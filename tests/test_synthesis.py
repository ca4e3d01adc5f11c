"""Constructive transfers: completion, spread, reach, gather, full transfer."""

from collections import Counter

import numpy as np
import pytest

import qwalk as qw
from qwalk import json_io, synthesis, walk_core
from qwalk.synthesis import _completions

from sampling import random_spec, random_state_vector, random_walk_state
from test_walk_core import identity_coin


def completion(src, dst):
    """A unitary Q with Q @ src = dst: the one-row case of the batched
    completion the constructions use."""
    src, dst = (np.asarray(v, dtype=complex)[None] for v in (src, dst))
    return _completions(src, dst)[0]


def test_unitary_completion_identity_case():
    v = random_state_vector(np.random.default_rng(0), 3)
    q = completion(v, v)
    assert np.abs(q @ v - v).max() < 1e-10
    assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-10


def test_unitary_completion_two_level_rotation():
    src = np.array([1, 0], dtype=complex)
    dst = np.array([1, 1], dtype=complex) / np.sqrt(2)
    q = completion(src, dst)
    assert np.abs(q @ src - dst).max() < 1e-10


def test_unitary_completion_random_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        src = random_state_vector(rng, d)
        dst = random_state_vector(rng, d)
        q = completion(src, dst)
        assert np.abs(q @ src - dst).max() < 1e-10
        assert np.abs(q.conj().T @ q - np.eye(d)).max() < 1e-10


def test_unitary_completion_rejects_non_unit():
    with pytest.raises(qw.NotUnitError):
        completion(np.array([1, 1], dtype=complex), np.array([1, 0], dtype=complex))


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
    # a node must be a vertex index, never truncated to one
    for node in (3.9, "3", None, float("nan"), float("inf"), np.float64(2.5), 1j):
        with pytest.raises(qw.IndexOutOfRangeError, match="not vertex indices"):
            qw.TargetSpread((1, node), np.array([0.6, 0.8]))
    for node in (3.0, np.float64(3.0), np.int32(3)):
        assert qw.TargetSpread((1, node), np.array([0.6, 0.8])).nodes == (1, 3)


def test_target_spread_copies_the_callers_array():
    coeffs = np.array([0.6, 0.8])
    target = qw.TargetSpread((1, 2), coeffs)
    coeffs[0] = 1.6  # norm 1.79: a later write cannot reach the validated target
    assert target.coeffs.tolist() == [0.6, 0.8] and not target.coeffs.flags.writeable


def test_unit_norm_rule_names_what_it_checks(fig):
    with pytest.raises(qw.NotUnitError, match=r"^coefficient norm 2\.0 is not 1 within 1e-12$"):
        qw.TargetSpread((0,), np.array([2.0]))
    target = qw.TargetSpread((0,), np.array([1.0]))
    with pytest.raises(qw.NotUnitError, match=r"^coin state norm 2\.0 is not 1 within 1e-12$"):
        qw.spread_from_node(fig, 0, [2, 0, 0], target, 0)


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
        psi = qw.apply_sequence(psi, [identity_coin(spec.d, spec.n)] * t, spec)
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


def test_concentrate_level_past_the_largest_index_is_refused(c5):
    with pytest.raises(qw.IndexOutOfRangeError, match=f"level {2**63} "):
        qw.concentrate_to_node(c5, 0, qw.basis_state(c5, 0, 0), 2**63)


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


# mixed(3,4,5) of the transfer bench, seed 1: three cycles under P1 = P2^-1
# and a matching P3
_MIXED_345 = [[9, 6, 1, 5, 10, 8, 0, 4, 3, 2, 11, 7], [6, 2, 9, 8, 7, 3, 1, 11, 5, 0, 4, 10],
              [1, 0, 3, 2, 11, 6, 5, 9, 10, 7, 8, 4]]


@pytest.mark.parametrize("spec", [qw.cycle_shift(7), qw.cycle_shift(31), qw.torus(3, 5)],
                         ids=["cycle_shift(7)", "cycle_shift(31)", "torus(3,5)"])
def test_transfer_accepts_states_anywhere_within_the_norm_tolerance(spec):
    # the spread's level-0 coin state is the gathered coin vector times the
    # target's total weight: two norms, each within NORM_TOL of 1, whose
    # product need not be; both corners and uniform draws in between
    rng = np.random.default_rng(90)
    scales = np.concatenate([[[-9e-13, -9e-13], [9e-13, 9e-13]],
                             rng.uniform(-9e-13, 9e-13, size=(10, 2))])
    for s1, s2 in 1 + scales:
        psi1, psi2 = (qw.WalkState(spec.d, spec.n, s * random_state_vector(rng, spec.d * spec.n))
                      for s in (s1, s2))
        seq = qw.arbitrary_transfer(spec, psi1, psi2)
        assert qw.state_fidelity(psi2, qw.apply_sequence(psi1, seq, spec)) >= 1 - 1e-9


def test_transfer_accepts_a_bench_pair_written_with_12_digits(tmp_path):
    # the pair of seed 1, round 2 on mixed(3,4,5): written with write_json, its
    # norms come back as 1 - 2.8e-13 and 1 - 7.5e-13
    spec = qw.validate(12, _MIXED_345)
    rng = np.random.default_rng([1, 3, 2])
    states = []
    for name in ("psi1", "psi2"):
        path = str(tmp_path / f"{name}.json")
        amps = random_state_vector(rng, spec.d * spec.n)
        json_io.write_json(json_io.state_to_dict(qw.WalkState(spec.d, spec.n, amps)), path)
        states.append(json_io.read_json(path, json_io.state_from_dict))
    seq = qw.arbitrary_transfer(spec, *states)
    assert qw.state_fidelity(states[1], qw.apply_sequence(states[0], seq, spec)) >= 1 - 1e-9


def test_reach_builds_spread_and_mix_with_one_batch_and_one_check(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(synthesis, "_completions", counting("completions", _completions))
    monkeypatch.setattr(walk_core, "_unitary", counting("unitary", walk_core._unitary))
    monkeypatch.setattr(qw.CoinOp, "from_blocks",
                        staticmethod(counting("from_blocks", qw.CoinOp.from_blocks)))
    monkeypatch.setattr(synthesis, "TargetSpread", counting("TargetSpread", qw.TargetSpread))
    spec = qw.torus(3, 5)
    rng = np.random.default_rng(4)
    psi1, psi2 = random_walk_state(rng, spec), random_walk_state(rng, spec)
    report = qw.analyze(spec)
    qw.reach_full_state(spec, report.kappa_vertex, 0, psi2, report.kappa)
    assert counts == {"completions": 1, "unitary": 1}
    counts.clear()
    seq = qw.arbitrary_transfer(spec, psi1, psi2)
    # one batch and one check per gather level, and one for spread and mix
    levels = seq.meta.count("concentrate") + 1
    assert counts == {"completions": levels, "unitary": levels}


def test_batched_mix_alone_at_level_0_matches_reference():
    # at k = 0 the spread has no step and the mix sends the coin state c0,
    # complex here, straight to the target's column
    rng = np.random.default_rng(12)
    for spec in (qw.cycle_shift(5), qw.figure1(), qw.complete(6), qw.torus(3, 4)):
        for j in range(spec.n):
            c0 = random_state_vector(rng, spec.d)
            table = np.zeros((spec.d, spec.n), dtype=complex)
            table[np.arange(spec.d), spec.maps[:, j]] = random_state_vector(rng, spec.d)
            target = qw.WalkState(spec.d, spec.n, table.reshape(-1))
            seq = qw.reach_full_state(spec, j, c0, target, 0)
            assert seq.meta == ("mix",)
            assert _same_bits(seq.ops, _ref_reach(spec, j, c0, target, 0)), (spec, j)
            start = qw.WalkState(spec.d, spec.n, np.outer(c0, np.eye(spec.n)[j]))
            out = qw.apply_sequence(start, seq, spec)
            assert qw.state_fidelity(target, out) > 1 - 1e-12


def test_spread_target_node_out_of_range(fig):
    # checked before any mask is indexed, where -1 would wrap to vertex n - 1
    for node in (-1, fig.n, 99):
        target = qw.TargetSpread((node, 1), np.array([0.6, 0.8]))
        with pytest.raises(qw.IndexOutOfRangeError, match=str(node)):
            qw.spread_from_node(fig, 0, 0, target, 1)


# Reference construction: one sorted predecessor scan per vertex and one
# completion per block, as the constructions were written before each level
# was built in one batched pass.  The batched code must match it bit for bit.


def _ref_reflector_to_e1(x):
    d = x.size
    phase = np.exp(1j * np.angle(x[0])) if abs(x[0]) > 0 else 1.0
    w = x.astype(np.complex128).copy()
    w[0] += phase
    u = np.eye(d, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    u[0, :] *= -np.conj(phase)
    return u


def _ref_completion(src, dst):
    src = np.asarray(src, dtype=np.complex128).reshape(-1)
    dst = np.asarray(dst, dtype=np.complex128).reshape(-1)
    return _ref_reflector_to_e1(dst).conj().T @ _ref_reflector_to_e1(src)


def _ref_spread(spec, j, c0vec, nodes, coeffs, k, nsets, inv_maps):
    d, n = spec.d, spec.n
    if k == 0:
        return [], {j: np.conj(complex(coeffs[0])) * c0vec}
    groups = {}
    for v, a in zip(nodes, coeffs):
        for w, coin in sorted((int(inv_maps[c][v]), c) for c in range(d)):
            if w in nsets[k - 1]:
                groups.setdefault(w, []).append((v, a, coin))
                break
    zs = sorted(groups)
    gammas = np.array([np.sqrt(sum(abs(a) ** 2 for _, a, _ in groups[z])) for z in zs])
    ops, deltas = _ref_spread(spec, j, c0vec, tuple(zs), gammas, k - 1, nsets, inv_maps)
    blocks, coin_states = {}, {}
    for z, gamma in zip(zs, gammas):
        dst = np.zeros(d, dtype=np.complex128)
        for v, a, coin in groups[z]:
            dst[coin] += a / gamma
            coin_states[v] = np.eye(d, dtype=np.complex128)[coin]
        blocks[z] = _ref_completion(deltas[z], dst)
    ops.append(qw.CoinOp.from_blocks(d, n, list(blocks), list(blocks.values())))
    return ops, coin_states


def _ref_spread_from_node(spec, j, c0vec, nodes, coeffs, k):
    kept = [(v, a) for v, a in zip(nodes, coeffs) if abs(a) > 1e-14]
    nodes = tuple(v for v, _ in kept)
    coeffs = np.array([a for _, a in kept], dtype=np.complex128)
    nsets = qw.reachable_sets(spec, j, k)
    inv_maps = [np.argsort(p.map) for p in spec.perms]
    return _ref_spread(spec, j, c0vec, nodes, coeffs, k, nsets, inv_maps)


def _ref_reach(spec, j, c0vec, target, k):
    maps = np.stack([p.map for p in spec.perms])
    pre = target.table()[np.arange(spec.d)[:, None], maps]
    norms = np.linalg.norm(pre, axis=0)
    nodes = tuple(int(v) for v in np.flatnonzero(norms > 1e-14))
    betas = norms[list(nodes)]
    ops, coin_states = _ref_spread_from_node(spec, j, c0vec, nodes, betas, k)
    mix = {v: _ref_completion(coin_states[v], pre[:, v] / b) for v, b in zip(nodes, betas)}
    return ops + [qw.CoinOp.from_blocks(spec.d, spec.n, list(mix), list(mix.values()))]


def _ref_concentrate(spec, j, state, k):
    nsets = qw.reachable_sets(spec, j, k)
    ops, current = [], state
    for level in range(k, 0, -1):
        table = current.table()
        support = set(np.flatnonzero(np.linalg.norm(table, axis=0) > 1e-14).tolist())
        if support == {j}:
            break
        blocks = {}
        for v in sorted(support):
            col = table[:, v]
            gamma = float(np.linalg.norm(col))
            for w, coin in sorted((int(p.map[v]), c) for c, p in enumerate(spec.perms)):
                if w in nsets[level - 1]:
                    break
            blocks[v] = _ref_completion(col / gamma, np.eye(spec.d, dtype=complex)[coin])
        ops.append(qw.CoinOp.from_blocks(spec.d, spec.n, list(blocks), list(blocks.values())))
        current = qw.step(current, ops[-1], spec)
    return ops, current.table()[:, j].copy()


def _ref_transfer(spec, psi1, psi2):
    report = qw.analyze(spec)
    gather, gamma = _ref_concentrate(spec, report.kappa_vertex, psi1, report.kappa)
    return gather + _ref_reach(spec, report.kappa_vertex, gamma, psi2, report.kappa)


def _same_bits(ops, ref):
    """Equal shapes and bytes, so signed zeros count too."""
    return len(ops) == len(ref) and all(
        a.blocks.shape == b.blocks.shape and a.blocks.tobytes() == b.blocks.tobytes()
        for a, b in zip(ops, ref)
    )


def _state_pairs(rng, spec):
    """A Haar pair, a pair of basis states and a pair of two-vertex states."""
    size = spec.d * spec.n
    haar = (random_walk_state(rng, spec), random_walk_state(rng, spec))
    basis = tuple(qw.basis_state(spec, int(rng.integers(spec.d)), int(rng.integers(spec.n)))
                  for _ in range(2))
    two = []
    for _ in range(2):
        amps = np.zeros(size, dtype=complex)
        vertices = rng.choice(spec.n, size=2, replace=False)
        amps[rng.integers(spec.d, size=2) * spec.n + vertices] = random_state_vector(rng, 2)
        two.append(qw.WalkState(spec.d, spec.n, amps))
    return haar, basis, tuple(two)


def _transfer_specs():
    specs = [qw.figure1(), qw.cycle_shift(31), qw.torus(5, 5), qw.complete(12)]
    rng = np.random.default_rng(58)
    while len(specs) < 24:
        spec = random_spec(rng)
        if qw.analyze(spec).controllable:
            specs.append(spec)
    return specs


def test_batched_construction_matches_per_block_reference():
    rng = np.random.default_rng(8)
    for spec in _transfer_specs():
        for psi1, psi2 in _state_pairs(rng, spec):
            seq = qw.arbitrary_transfer(spec, psi1, psi2)
            assert _same_bits(seq.ops, _ref_transfer(spec, psi1, psi2)), spec


@pytest.mark.parametrize("seed", [69, 207, 416, 513])
def test_batched_spread_matches_reference_on_complex_targets(seed):
    # complex weights in random node order: each group's weight sums its
    # squares in target order, and the top level divides complex by real.
    # In these draws the array square x * x, in place of the scalar
    # abs(a) ** 2 (libm's pow), would change a block.
    rng = np.random.default_rng(seed)
    spec, k = (qw.torus(5, 5), 4) if seed % 2 else (qw.complete(12), 2)
    nodes = tuple(int(v) for v in rng.permutation(sorted(qw.reachable_sets(spec, 0, k)[k])))
    coeffs = random_state_vector(rng, len(nodes))
    seq, states = qw.spread_from_node(spec, 0, 0, qw.TargetSpread(nodes, coeffs), k)
    c0 = np.eye(spec.d, dtype=complex)[0]
    ref_ops, ref_states = _ref_spread_from_node(spec, 0, c0, nodes, coeffs, k)
    assert _same_bits(seq.ops, ref_ops)
    assert states.keys() == ref_states.keys()
    assert all(states[v].tobytes() == ref_states[v].tobytes() for v in nodes)


def test_batched_spread_builds_every_level_in_one_completion_call(monkeypatch):
    # a level's sources are the coin basis vectors of the level below, known
    # after the downward pass: 30 levels take one completion batch
    calls = []

    def counting_completions(src, dst):
        calls.append(len(dst))
        return _completions(src, dst)

    monkeypatch.setattr(synthesis, "_completions", counting_completions)
    spec = qw.cycle_shift(31)
    nodes = tuple(sorted(qw.reachable_sets(spec, 0, 30)[30]))
    target = qw.TargetSpread(nodes, np.full(len(nodes), 1 / np.sqrt(len(nodes))))
    seq, _ = qw.spread_from_node(spec, 0, 1, target, 30)
    assert len(seq) == 30 and len(calls) <= 2
    final = qw.apply_sequence(qw.basis_state(spec, 1, 0), seq, spec)
    assert np.abs(qw.position_probabilities(final)[list(nodes)] - 1 / len(nodes)).max() < 1e-12


def test_unitary_completion_of_a_basis_vector_to_itself_is_the_identity():
    for d in range(2, 8):
        for c in range(d):
            e = np.eye(d, dtype=complex)[c]
            assert np.array_equal(completion(e, e), np.eye(d))
    # equal in value, not in bits: d = 2, c = 1 has -0.0 off the diagonal,
    # which the JSON writer prints, so skipping such a completion for the
    # identity block would change output bytes
    e1 = np.array([0, 1], dtype=complex)
    assert np.signbit(completion(e1, e1).real).tolist() == [[False, True], [True, False]]


def test_batched_completions_match_single_row_calls():
    rng = np.random.default_rng(19)
    for d in range(2, 6):
        rows = [random_state_vector(rng, d) for _ in range(12)]
        for r in rows[:4]:  # leading entry exactly zero
            r[0] = 0
            r /= np.linalg.norm(r)
        rows += list(np.eye(d, dtype=complex))
        src = np.array(rows)
        dst = np.array(rows[::-1])
        dst[:3] = src[:3]  # a row sent to itself
        batched = _completions(src, dst)
        for q, s, t in zip(batched, src, dst):
            assert q.tobytes() == completion(s, t).tobytes()
            assert q.tobytes() == _ref_completion(s, t).tobytes()


def _rows_for_dots(rng, d):
    """Complex (B, d) rows over magnitudes 1e-150 to 1e150: rows of one scale,
    rows mixing scales, rows with x[0] == 0 and rows holding +-0.0."""
    scales = 10.0 ** np.arange(-150, 151, 15)
    shape = (len(scales), d)
    rows = [(rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scales[:, None],
            rng.normal(size=shape) * 10.0 ** rng.integers(-150, 151, size=shape)
            + 1j * rng.normal(size=shape) * 10.0 ** rng.integers(-150, 151, size=shape)]
    lead0 = rows[0][::3].copy()
    lead0[:, 0] = 0
    zeros = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
    zeros[zeros.real > 0] = complex(0.0, -0.0)
    zeros[(zeros.imag > 0) & (zeros != 0)] = complex(-0.0, 0.0)
    return np.concatenate(rows + [lead0, zeros])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 11, 17, 33, 99])
def test_batched_row_dots_match_per_row_blas_calls(d):
    # matmul's vector @ vector loop must reach the BLAS dot that np.vdot and
    # np.linalg.norm use: a batched sum (einsum, sum along an axis) differs
    # from it in the last ulp, and the constructions' bytes with it
    rows = _rows_for_dots(np.random.default_rng(d), d)
    for w in (rows, np.asfortranarray(rows)):
        got = synthesis._row_dots(w.conj(), w).real
        want = [np.vdot(row, row).real for row in w]
        assert got.tobytes() == np.array(want).tobytes()
    # concentrate_to_node's column norms, the columns strided in a (d, n) table
    table = np.ascontiguousarray(rows.T)
    cols = np.ascontiguousarray(table.T)
    got = np.sqrt(synthesis._row_dots(cols.real, cols.real)
                  + synthesis._row_dots(cols.imag, cols.imag))
    want = [float(np.linalg.norm(table[:, v])) for v in range(table.shape[1])]
    assert got.tobytes() == np.array(want).tobytes()
    # and whole reflectors of unit rows, C- or F-ordered, per row
    rows = rows[np.linalg.norm(rows, axis=1) > 0]
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    unit = unit[np.abs(np.linalg.norm(unit, axis=1) - 1) <= 1e-12]
    for x in (unit, np.asfortranarray(unit)):
        batched = synthesis._reflectors(x)
        assert all(u.tobytes() == _ref_reflector_to_e1(r).tobytes() for u, r in zip(batched, x))
