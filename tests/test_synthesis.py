"""Constructive transfers: completion, spread, reach, gather, full transfer."""

import numpy as np
import pytest

import qwalk as qw
from qwalk.sampling import random_spec, random_state_vector, random_walk_state


def test_unitary_completion_identity_case():
    v = random_state_vector(np.random.default_rng(0), 3)
    q = qw.unitary_completion(v, v)
    assert np.abs(q @ v - v).max() < 1e-10
    assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-10


def test_unitary_completion_two_level_rotation():
    src = np.array([1, 0], dtype=complex)
    dst = np.array([1, 1], dtype=complex) / np.sqrt(2)
    q = qw.unitary_completion(src, dst)
    assert np.abs(q @ src - dst).max() < 1e-10


def test_unitary_completion_random_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        src = random_state_vector(rng, d)
        dst = random_state_vector(rng, d)
        q = qw.unitary_completion(src, dst)
        assert np.abs(q @ src - dst).max() < 1e-10
        assert np.abs(q.conj().T @ q - np.eye(d)).max() < 1e-10


def test_unitary_completion_rejects_non_unit():
    with pytest.raises(qw.NotUnitError):
        qw.unitary_completion(np.array([1, 1], dtype=complex), np.array([1, 0], dtype=complex))


def test_spread_k0_is_empty(fig):
    target = qw.TargetSpread((0,), np.array([1.0]))
    seq, states = qw.spread_from_node(fig, 0, 0, target, 0)
    assert len(seq) == 0
    assert np.abs(states[0] - np.array([1, 0, 0])).max() < 1e-12


def test_spread_two_nodes_two_steps(fig):
    target = qw.TargetSpread((4, 5), np.array([1, 1]) / np.sqrt(2))
    seq, states = qw.spread_from_node(fig, 0, 0, target, 2)
    assert len(seq) == 2
    out = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq, fig)
    probs = qw.position_probabilities(out)
    assert np.abs(probs - [0, 0, 0, 0, 0.5, 0.5]).max() < 1e-9
    # the achieved state matches the returned coin states exactly
    expected = np.zeros((3, 6), dtype=complex)
    expected[:, 4] = states[4] / np.sqrt(2)
    expected[:, 5] = states[5] / np.sqrt(2)
    assert abs(qw.state_fidelity(out, qw.WalkState(3, 6, expected.reshape(-1))) - 1) < 1e-9


def test_spread_uniform_three_steps(fig):
    target = qw.TargetSpread(tuple(range(6)), np.full(6, 1 / np.sqrt(6)))
    seq, _ = qw.spread_from_node(fig, 0, 0, target, 3)
    assert len(seq) == 3
    out = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq, fig)
    assert np.abs(qw.position_probabilities(out) - 1 / 6).max() < 1e-9


def test_spread_intermediate_support(fig):
    # after step t the walker only occupies vertices reachable in exactly t steps
    target = qw.TargetSpread(tuple(range(6)), np.full(6, 1 / np.sqrt(6)))
    seq, _ = qw.spread_from_node(fig, 0, 0, target, 3)
    sets = qw.reachable_sets(fig, 0, 3)
    state = qw.basis_state(fig, 0, 0)
    for t, coin in enumerate(seq.ops, start=1):
        state = qw.step(state, coin, fig)
        support = set(np.flatnonzero(qw.position_probabilities(state) > 1e-12).tolist())
        assert support <= sets[t]


def test_spread_strips_zero_coefficients(fig):
    coeffs = np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    target = qw.TargetSpread((4, 3, 5), coeffs)  # node 3 has weight zero
    seq, _ = qw.spread_from_node(fig, 0, 0, target, 2)  # 3 unreachable at k=2, but stripped
    out = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq, fig)
    assert np.abs(qw.position_probabilities(out) - [0, 0, 0, 0, 0.5, 0.5]).max() < 1e-9


def test_spread_unreachable(fig):
    target = qw.TargetSpread((3,), np.array([1.0]))
    with pytest.raises(qw.UnreachableError):
        qw.spread_from_node(fig, 0, 0, target, 2)


def test_target_spread_validation():
    with pytest.raises(ValueError, match="distinct"):
        qw.TargetSpread((1, 1), np.array([1, 0]))
    with pytest.raises(qw.NotUnitError):
        qw.TargetSpread((0, 1), np.array([1.0, 1.0]))


def test_reach_own_state_pads_to_shift_period(c5):
    # the walker is back on its own basis state after r bare shifts, so the
    # call at level r - 1 reaches it in r steps, and level 0 cannot
    target = qw.basis_state(c5, 0, 0)
    r = qw.shift_order(c5)
    seq = qw.reach_full_state(c5, 0, 0, target, r - 1)
    assert seq.meta == ("spread",) * (r - 1) + ("mix",)
    out = qw.apply_sequence(qw.basis_state(c5, 0, 0), seq, c5)
    assert qw.state_fidelity(target, out) > 1 - 1e-9
    with pytest.raises(qw.UnreachableError):
        qw.reach_full_state(c5, 0, 0, target, 0)


def test_reach_takes_least_shift_power(c5):
    # coin 0 carries the walker from vertex 0 to vertex v in v bare shifts,
    # so the call at level v - 1 reaches it in v steps
    for v in range(1, 5):
        target = qw.basis_state(c5, 0, v)
        seq = qw.reach_full_state(c5, 0, 0, target, v - 1)
        assert seq.meta == ("spread",) * (v - 1) + ("mix",)
        out = qw.apply_sequence(qw.basis_state(c5, 0, 0), seq, c5)
        assert qw.state_fidelity(target, out) > 1 - 1e-9
        if v >= 2:
            with pytest.raises(qw.UnreachableError):
                qw.reach_full_state(c5, 0, 0, target, 0)


def test_reach_after_extra_shifts_on_random_specs():
    # psi = S^t phi, phi random on the level-k set of j: S^-1 psi lies on
    # the level k + t - 1 set, so that call reaches psi in k + t steps
    rng = np.random.default_rng(41)
    for _ in range(40):
        spec = random_spec(rng)
        j = int(rng.integers(spec.n))
        k, t = int(rng.integers(0, 2 * spec.n)), int(rng.integers(1, 4))
        table = np.zeros((spec.d, spec.n), dtype=complex)
        level = sorted(qw.reachable_sets(spec, j, k)[k])
        table[:, level] = random_state_vector(rng, spec.d * len(level)).reshape(spec.d, -1)
        psi = qw.WalkState(spec.d, spec.n, table.reshape(-1))
        psi = qw.apply_sequence(psi, [qw.CoinOp.identity(spec.d, spec.n)] * t, spec)
        seq = qw.reach_full_state(spec, j, 0, psi, k + t - 1)
        assert len(seq) == k + t
        out = qw.apply_sequence(qw.basis_state(spec, 0, j), seq, spec)
        assert qw.state_fidelity(psi, out) >= 1 - 1e-9


def test_reach_uniform_state(fig):
    target = qw.WalkState(3, 6, np.full(18, 1 / np.sqrt(18), dtype=complex))
    seq = qw.reach_full_state(fig, 0, 0, target, 3)
    assert len(seq) == 4  # level 3 covers figure1, so k + 1 steps
    out = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq, fig)
    assert qw.state_fidelity(target, out) > 1 - 1e-9


def test_reach_accepts_target_spread_with_coin_states(c5):
    # a WalkState target prescribes the coin state at each node
    table = np.zeros((2, 5), dtype=complex)
    table[:, 1] = 0.6 * np.array([1, 1]) / np.sqrt(2)
    table[:, 4] = 0.8 * np.array([0, 1])
    target = qw.WalkState(2, 5, table.reshape(-1))
    seq = qw.reach_full_state(c5, 0, 0, target, 2)
    assert len(seq) == 3
    out = qw.apply_sequence(qw.basis_state(c5, 0, 0), seq, c5)
    assert qw.state_fidelity(target, out) > 1 - 1e-9


def test_concentrate_k0_empty(c5):
    seq, gamma = qw.concentrate_to_node(c5, 2, qw.basis_state(c5, 1, 2), 0)
    assert len(seq) == 0
    assert np.abs(gamma - [0, 1]).max() < 1e-12


def test_concentrate_two_neighbours_one_step(c5):
    amps = np.zeros(10, dtype=complex)
    amps[0 * 5 + 1] = 1 / np.sqrt(2)  # coin 0 at vertex 1
    amps[1 * 5 + 4] = 1 / np.sqrt(2)  # coin 1 at vertex 4
    state = qw.WalkState(2, 5, amps)
    seq, gamma = qw.concentrate_to_node(c5, 0, state, 1)
    assert len(seq) == 1
    out = qw.apply_sequence(state, seq, c5)
    assert np.abs(qw.position_probabilities(out) - [1, 0, 0, 0, 0]).max() < 1e-9
    assert abs(np.linalg.norm(gamma) - 1) < 1e-12


def test_concentrate_uniform_state(fig):
    state = qw.WalkState(3, 6, np.full(18, 1 / np.sqrt(18), dtype=complex))
    seq, _ = qw.concentrate_to_node(fig, 0, state, 3)
    assert len(seq) <= 3
    out = qw.apply_sequence(state, seq, fig)
    assert np.abs(qw.position_probabilities(out) - [1, 0, 0, 0, 0, 0]).max() < 1e-9


def test_concentrate_unreachable(c4):
    state = qw.basis_state(c4, 0, 1)  # odd vertex, even step count
    with pytest.raises(qw.UnreachableError):
        qw.concentrate_to_node(c4, 0, state, 2)


def test_transfer_same_state(c5):
    rng = np.random.default_rng(6)
    psi = random_walk_state(rng, c5)
    seq = qw.arbitrary_transfer(c5, psi, psi)
    assert len(seq) <= 13
    assert qw.state_fidelity(psi, qw.apply_sequence(psi, seq, c5)) > 1 - 1e-9


def test_transfer_lengths_and_fidelity(c5):
    rng = np.random.default_rng(14)
    for _ in range(5):
        psi1 = random_walk_state(rng, c5)
        psi2 = random_walk_state(rng, c5)
        seq = qw.arbitrary_transfer(c5, psi1, psi2)
        assert len(seq) <= 10
        assert qw.state_fidelity(psi2, qw.apply_sequence(psi1, seq, c5)) > 1 - 1e-9


def test_transfer_not_controllable(c4):
    rng = np.random.default_rng(5)
    psi1 = qw.basis_state(c4, 0, 0)
    psi2 = qw.basis_state(c4, 0, 1)  # crosses the even/odd partition
    with pytest.raises(qw.NotControllableError) as err:
        qw.arbitrary_transfer(c4, psi1, psi2)
    assert err.value.partition == ((0, 2), (1, 3))


def test_transfer_round_trip_on_random_controllable_specs():
    rng = np.random.default_rng(23)
    done = 0
    while done < 6:
        spec = random_spec(rng)
        report = qw.analyze(spec)
        if not report.controllable:
            continue
        psi1 = random_walk_state(rng, spec)
        psi2 = random_walk_state(rng, spec)
        go = qw.arbitrary_transfer(spec, psi1, psi2)
        assert len(go) <= 2 * report.kappa + 1
        back = qw.arbitrary_transfer(spec, psi2, psi1)
        out = qw.apply_sequence(qw.apply_sequence(psi1, go, spec), back, spec)
        assert qw.state_fidelity(psi1, out) > 1 - 1e-8
        done += 1


def test_sequence_meta_matches_phases(c5):
    rng = np.random.default_rng(33)
    seq = qw.arbitrary_transfer(c5, random_walk_state(rng, c5), random_walk_state(rng, c5))
    assert set(seq.meta) <= {"concentrate", "spread", "mix"}
    assert len(seq.meta) == len(seq.ops)
