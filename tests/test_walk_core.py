"""States, coins, shift and stepping, checked against explicit matrices."""

import pickle

import numpy as np
import pytest

import qwalk as qw
from qwalk import json_io

from reference import coin_matrix, shift_matrix, unitary_every_block
from sampling import random_coin_op, random_spec, random_unitary, random_walk_state


def identity_coin(d, n):
    """The identity coin at every vertex."""
    return qw.CoinOp(np.broadcast_to(np.eye(d), (n, d, d)))


def test_identity_coin_matrix_is_identity(c5):
    m = coin_matrix(identity_coin(2, 5))
    assert np.array_equal(m, np.eye(10))


def test_coin_matrix_blockwise_swap():
    # d=2, n=2; swap the coin at vertex 0 only
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    coin = qw.CoinOp.from_blocks(2, 2, [0], [swap])
    m = coin_matrix(coin)
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 0] = expected[0, 2] = 1  # (coin0,v0) <-> (coin1,v0)
    expected[1, 1] = expected[3, 3] = 1  # vertex 1 untouched
    assert np.array_equal(m, expected)


def test_coin_matrix_unitary_for_random_blocks():
    rng = np.random.default_rng(0)
    spec = qw.figure1()
    m = coin_matrix(random_coin_op(rng, spec))
    assert np.abs(m.conj().T @ m - np.eye(18)).max() < 1e-10


def test_shift_moves_forward_on_cycle():
    c3 = qw.cycle_shift(3)
    assert shift_matrix(c3)[1, 0] == 1  # (coin0, v0) -> (coin0, v1)
    psi = qw.apply_sequence(qw.basis_state(c3, 0, 0), (identity_coin(2, 3),), c3)
    assert psi.amps[1] == 1


def test_shift_uses_cross_pairing(fig):
    # coin value 2 at vertex 2 moves to vertex 4
    assert shift_matrix(fig)[2 * 6 + 4, 2 * 6 + 2] == 1


def test_shift_is_permutation_matrix(fig):
    m = shift_matrix(fig)
    assert np.array_equal(np.sort(m.sum(axis=0)), np.ones(18))
    assert np.array_equal(np.sort(m.sum(axis=1)), np.ones(18))


@pytest.mark.parametrize(
    "factory,expected",
    [
        (lambda: qw.cycle_shift(5), 5),
        (qw.figure1, 6),
        (lambda: qw.cycle_exchange(4), 2),
    ],
)
def test_shift_order(factory, expected):
    assert qw.shift_order(factory()) == expected


def test_shift_power_order_is_minimal(fig):
    m = shift_matrix(fig)
    r = qw.shift_order(fig)
    assert np.array_equal(np.linalg.matrix_power(m, r), np.eye(18, dtype=np.int64))
    for k in range(1, r):
        assert not np.array_equal(np.linalg.matrix_power(m, k), np.eye(18, dtype=np.int64))


def test_step_with_vertex0_coin_splits_both_ways(fig):
    # mix the first two coin values at vertex 0, identity elsewhere:
    # |c0> at 0 goes to (|c0> at 1 + |c1> at 5) / sqrt2
    q0 = np.array(
        [[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]], dtype=complex
    ) / np.sqrt(2)
    coin = qw.CoinOp.from_blocks(3, 6, [0], [q0])
    out = qw.apply_sequence(qw.basis_state(fig, 0, 0), (coin,), fig)
    expected = np.zeros(18, dtype=complex)
    expected[0 * 6 + 1] = 1 / np.sqrt(2)
    expected[1 * 6 + 5] = 1 / np.sqrt(2)
    assert np.abs(out.amps - expected).max() < 1e-12
    # oracle: the explicit matrix product gives the same state
    dense = shift_matrix(fig) @ coin_matrix(coin)
    assert np.abs(dense @ qw.basis_state(fig, 0, 0).amps - out.amps).max() < 1e-12


def test_step_agrees_with_dense_matrices_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        spec = random_spec(rng)
        if spec.d * spec.n > 24:
            continue
        state = random_walk_state(rng, spec)
        coin = random_coin_op(rng, spec)
        fast = qw.apply_sequence(state, (coin,), spec)
        dense = shift_matrix(spec) @ coin_matrix(coin) @ state.amps
        assert np.abs(fast.amps - dense).max() < 1e-12


def test_step_preserves_norm():
    rng = np.random.default_rng(3)
    spec = qw.torus(3, 3)
    state = random_walk_state(rng, spec)
    for _ in range(20):
        state = qw.apply_sequence(state, (random_coin_op(rng, spec),), spec)
    assert abs(np.linalg.norm(state.amps) - 1) < 1e-12


def test_apply_sequence_empty_and_full_period(c5):
    state = qw.basis_state(c5, 1, 3)
    assert qw.apply_sequence(state, [], c5) is state
    r = qw.shift_order(c5)
    out = qw.apply_sequence(state, [identity_coin(2, 5)] * r, c5)
    assert np.abs(out.amps - state.amps).max() < 1e-12


def test_position_probabilities(c5):
    assert qw.position_probabilities(qw.basis_state(c5, 0, 0)).tolist() == [1, 0, 0, 0, 0]
    amps = np.zeros(10, dtype=complex)
    amps[0] = amps[5] = 1 / np.sqrt(2)  # both coin values at vertex 0
    probs = qw.position_probabilities(qw.WalkState(2, 5, amps))
    assert np.abs(probs - [1, 0, 0, 0, 0]).max() < 1e-12
    assert abs(probs.sum() - 1) < 1e-12


def test_state_fidelity_ignores_global_phase(c5):
    rng = np.random.default_rng(9)
    a = random_walk_state(rng, c5)
    b = qw.WalkState(2, 5, np.exp(0.7j) * a.amps)
    assert abs(qw.state_fidelity(a, b) - 1) < 1e-12


def test_state_norm_validation():
    with pytest.raises(qw.NotUnitError, match="norm"):
        qw.WalkState(2, 2, np.array([1, 1, 0, 0], dtype=complex))
    with pytest.raises(qw.DimensionMismatchError):
        qw.WalkState(2, 3, np.array([1, 0, 0, 0], dtype=complex))


def test_state_copies_the_callers_array():
    # a later write to the caller's array cannot reach a validated state
    amps = np.eye(10, dtype=complex)[3]
    state = qw.WalkState(2, 5, amps)
    amps[0] = 5
    assert np.array_equal(state.amps, np.eye(10)[3]) and not state.amps.flags.writeable
    assert np.linalg.norm(state.amps) == 1.0


def test_state_dimensions_are_integers_from_one():
    amps = np.eye(5, dtype=complex)[0]
    for d, n in ((2.5, 2), (5, True), (-1, -5), (0, 5), ("5", 1)):
        with pytest.raises(qw.DimensionMismatchError, match="must be an integer >= 1"):
            qw.WalkState(d, n, amps)
    state = qw.WalkState(np.int64(1), 5.0, amps)
    assert (type(state.d), type(state.n)) == (int, int)


def test_apply_sequence_checks_the_state_without_steps(c5):
    state = qw.basis_state(qw.cycle_shift(3), 0, 0)
    with pytest.raises(qw.DimensionMismatchError, match="state is 2x3, walk is 2x5"):
        qw.apply_sequence(state, [], c5)


def test_coin_unitarity_validation():
    bad = np.stack([np.eye(2), np.array([[1, 1], [0, 1]])]).astype(complex)
    with pytest.raises(qw.NotUnitError, match="vertex 1"):
        qw.CoinOp(bad)
    # from_blocks checks the given blocks alone and names the vertex
    with pytest.raises(qw.NotUnitError, match="vertex 4 is not"):
        qw.CoinOp.from_blocks(2, 5, [3, 4, 0], [np.eye(2), bad[1], bad[1]])


def test_coin_polish_snaps_noisy_blocks_and_keeps_the_input():
    rng = np.random.default_rng(3)
    noisy = np.stack([np.eye(3)] + [random_unitary(rng, 3).round(12) for _ in range(3)])
    before = noisy.copy()
    coin = qw.CoinOp(noisy)
    assert np.array_equal(noisy, before) and noisy.flags.writeable
    assert np.array_equal(coin.blocks[0], np.eye(3))
    for q, ref in zip(coin.blocks[1:], noisy[1:]):
        # reference: the polar factor of each block on its own
        u, _, vh = np.linalg.svd(ref)
        assert np.abs(q - u @ vh).max() < 1e-15
        assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-14
    assert np.abs(coin.blocks - noisy).max() < 1e-10
    # of two bad blocks, the error names the first
    noisy[2, 0, 0] += 1e-3
    noisy[3, 0, 0] += 1.0
    with pytest.raises(qw.NotUnitError, match=r"vertex 2 is not unitary \(err \d\.\d\de-0"):
        qw.CoinOp(noisy)



def _mixed_blocks(rng, d):
    """Exact identity, identity with -0.0 entries, a NaN block, a noisy
    block (rounded to 12 digits), a block beyond UNITARY_TOL and a noisy
    identity."""
    eye = np.eye(d, dtype=complex)
    signed = eye.copy()
    signed[0, 1], signed[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    signed[1, 1] = complex(1, -0.0)
    nan = eye.copy()
    nan[1, 1] = np.nan
    far = eye.copy()
    far[0, 0] += 1e-6
    near = eye.copy()
    near[1, 0] = 3e-13
    return eye, signed, nan, random_unitary(rng, d).round(12), far, near


def test_unitary_skips_identity_blocks_with_the_reference_bits_and_errors():
    # an exact identity block has error exactly 0, so skipping its Gram
    # changes no snapped byte and no error text
    rng = np.random.default_rng(14)
    for d in (2, 3, 5):
        eye, signed, nan, noisy, far, near = _mixed_blocks(rng, d)
        good = np.stack([eye, noisy, signed, near, random_unitary(rng, d), eye, noisy.round(11)])
        for stack, where in ((good, "vertex {}".format),
                             (np.stack([good, good[::-1]]), "step {}, vertex {}".format),
                             (np.stack([eye, signed]), "vertex {}".format)):
            got = qw.walk_core._unitary(stack.copy(), where)
            want = unitary_every_block(stack.copy(), where)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.signbit(got[1].real).any()  # the -0.0 identity is kept as it is
        for order in ([eye, signed, nan, noisy, far], [signed, far, eye, nan], [noisy, nan, far]):
            errors = []
            for check in (qw.walk_core._unitary, unitary_every_block):
                with pytest.raises(qw.NotUnitError) as info:
                    check(np.stack(order), "vertex {}".format)
                errors.append(str(info.value))
            assert errors[0] == errors[1]


def test_replay_keeps_the_per_step_norm_check(c5):
    # an op that skipped the unitarity check lets the norm drift; replay on
    # the raw table stops at the first drifting step with WalkState's error
    state = qw.basis_state(c5, 1, 2)
    drift = qw.CoinOp._of(np.broadcast_to(np.eye(2) * (1 + 1e-9), (5, 2, 2)).astype(complex))
    ident = identity_coin(2, 5)
    amps = shift_matrix(c5) @ coin_matrix(drift) @ shift_matrix(c5) @ state.amps
    with pytest.raises(qw.NotUnitError) as want:
        qw.WalkState(2, 5, amps)
    for seq in ([ident, drift, drift, ident], [ident, drift]):
        with pytest.raises(qw.NotUnitError) as got:
            qw.apply_sequence(state, seq, c5)
        assert str(got.value) == str(want.value)
    assert str(want.value).startswith("state norm 1.000000001 is not 1 within")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: qw.WalkState(1, 2, np.array([1.0, np.nan])), qw.NotUnitError),
        (lambda: qw.CoinOp(np.array([[[1.0, 0.0], [0.0, np.nan]]])), qw.NotUnitError),
        (lambda: qw.reach_full_state(C5, 0, [1.0, np.nan], TARGET, 4), qw.NotUnitError),
    ],
    ids=["state", "coin", "coin-state"],
)
def test_nan_is_rejected(build, error):
    with pytest.raises(error):
        build()
    with pytest.raises(ValueError):  # nor can a NaN leave as bare JSON
        json_io.dumps({"x": np.nan})


def test_step_dimension_mismatch(c5):
    with pytest.raises(qw.DimensionMismatchError):
        qw.apply_sequence(qw.basis_state(c5, 0, 0), (identity_coin(2, 4),), c5)
    fig = qw.figure1()
    with pytest.raises(qw.DimensionMismatchError):
        qw.apply_sequence(qw.basis_state(c5, 0, 0), (identity_coin(3, 6),), fig)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 3)
    assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12


def test_from_blocks_without_blocks_is_the_identity_coin():
    coin = qw.CoinOp.from_blocks(2, 5, [], [])
    assert np.array_equal(coin.blocks, identity_coin(2, 5).blocks)
    with pytest.raises(qw.DimensionMismatchError, match="1 blocks for 2 vertices"):
        qw.CoinOp.from_blocks(2, 5, [0, 1], [np.eye(2)])


def test_from_blocks_refuses_a_repeated_vertex():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(qw.IndexOutOfRangeError, match=r"vertices \[1\] repeated"):
        qw.CoinOp.from_blocks(2, 5, [1, 1], [swap, np.eye(2)])
    with pytest.raises(qw.IndexOutOfRangeError, match=r"vertices \[0, 3\] repeated"):
        qw.CoinOp.from_blocks(2, 5, [3, 0, 2, 0, 3], [swap] * 5)


C5 = qw.cycle_shift(5)
PSI = qw.basis_state(C5, 0, 0)
TARGET = qw.basis_state(C5, 1, 3)
SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
# weight on nodes 2 and 3: from node 0 a 3-step spread reaches it, from node 1
# a 4-step one; a k-step spread from node j is reach_full_state at level k - 1
SPREAD = qw.WalkState(2, 5, np.array([[0, 0, 0, 1, 0], [0, 0, 1, 0, 0]]) / np.sqrt(2))

# Every public argument that takes a vertex, coin value or level: a call
# taking that one argument, a valid value, and the size of its range (None
# for a level, which has no upper end).
INDEX_ARGS = {
    "k_of-j": (lambda v: qw.k_of(C5, v), 1, 5),
    "parity_check-j": (lambda v: qw.parity_check(C5, v), 1, 5),
    "concentrate_to_node-j": (lambda v: qw.concentrate_to_node(C5, v, PSI, 4), 1, 5),
    "concentrate_to_node-k": (lambda v: qw.concentrate_to_node(C5, 0, PSI, v), 4, None),
    "reach_full_state-j": (lambda v: qw.reach_full_state(C5, v, 0, TARGET, 4), 1, 5),
    "reach_full_state-c0": (lambda v: qw.reach_full_state(C5, 0, v, TARGET, 4), 1, 2),
    "reach_full_state-k": (lambda v: qw.reach_full_state(C5, 0, 0, TARGET, v), 4, None),
    "reachable_sets-j": (lambda v: qw.reachable_sets(C5, v, 2), 1, 5),
    "reachable_sets-kmax": (lambda v: qw.reachable_sets(C5, 0, v), 2, None),
    "spread_from_node-j": (lambda v: qw.reach_full_state(C5, v, 0, SPREAD, 3), 1, 5),
    "spread_from_node-k": (lambda v: qw.reach_full_state(C5, 0, 0, SPREAD, v), 2, None),
    "basis_state-coin": (lambda v: qw.basis_state(C5, v, 0), 1, 2),
    "basis_state-vertex": (lambda v: qw.basis_state(C5, 0, v), 1, 5),
    "from_blocks-vertex": (lambda v: qw.CoinOp.from_blocks(2, 5, [v], [SWAP]), 1, 5),
    "from_blocks-second-vertex": (
        lambda v: qw.CoinOp.from_blocks(2, 5, [0, v], [SWAP, SWAP]), 1, 5),
}


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{bad!r}")
    for name, (_, _, size) in INDEX_ARGS.items()
    for bad in (True, 1.5, -1) + ((size,) if size else ())
])
def test_bad_index_is_refused(name, bad):
    with pytest.raises(qw.IndexOutOfRangeError):
        INDEX_ARGS[name][0](bad)


@pytest.mark.parametrize("vertices", [[0, 1e308], (0, 2.0 ** 63), np.array([0.0, -1e308]),
                                      [0, True], (np.True_, 1)])
def test_index_lists_past_int64_or_holding_bools_are_refused(vertices):
    with pytest.raises(qw.IndexOutOfRangeError, match="are not integers"):
        qw.CoinOp.from_blocks(2, 5, vertices, [SWAP, SWAP])


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: qw.reachable_sets(C5, 0, []), "level", id="reachable_sets-kmax"),
    pytest.param(lambda: qw.k_of(C5, []), "vertex", id="k_of-j"),
    pytest.param(lambda: qw.parity_check(C5, []), "vertex", id="parity_check-j"),
    pytest.param(lambda: qw.concentrate_to_node(C5, [1, 2], PSI, 4), "vertex",
                 id="concentrate_to_node-j"),
])
def test_scalar_index_given_a_list_is_refused(call, name):
    with pytest.raises(qw.IndexOutOfRangeError, match=f"^{name} .* is not an integer"):
        call()


@pytest.mark.parametrize("vertices", [[[0], [1, 2]], [0, [1]]], ids=["nested", "mixed"])
def test_ragged_vertex_list_is_refused(vertices):
    with pytest.raises(qw.IndexOutOfRangeError, match="^vertices .* are not a flat list"):
        qw.CoinOp.from_blocks(2, 5, vertices, [SWAP, SWAP])


_RAGGED_BLOCKS = [[[1, 0], [0, 1]], [[1, 0]]]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: qw.WalkState(2, 5, [[1, 0], [0]]), qw.DimensionMismatchError,
                 r"amps entry 1 has shape \(1,\), amps entry 0 has \(2,\)", id="state-ragged"),
    pytest.param(lambda: qw.WalkState(2, 5, "abc"), qw.DimensionMismatchError,
                 "not every amps entry holds only numbers that fit a complex128", id="state-string"),
    pytest.param(lambda: qw.WalkState(2, 5, {"a": 1}), qw.DimensionMismatchError,
                 "not every amps entry holds only numbers that fit a complex128", id="state-dict"),
    pytest.param(lambda: qw.WalkState(2, 5, [10 ** 400] + [0] * 9), qw.DimensionMismatchError,
                 "not every amps entry holds only numbers that fit a complex128", id="state-huge"),
    pytest.param(lambda: qw.CoinOp(_RAGGED_BLOCKS), qw.DimensionMismatchError,
                 r"block 1 has shape \(1, 2\), block 0 has \(2, 2\)", id="coin-ragged"),
    pytest.param(lambda: qw.CoinOp("x"), qw.DimensionMismatchError,
                 "not every block holds only numbers that fit a complex128", id="coin-string"),
    pytest.param(lambda: qw.CoinOp.from_blocks(2, 5, [0, 1], _RAGGED_BLOCKS),
                 qw.DimensionMismatchError, r"block 1 has shape \(1, 2\), block 0 has \(2, 2\)",
                 id="from_blocks-ragged"),
    pytest.param(lambda: qw.CoinOp.from_blocks(2, 5, [0, 1], np.zeros((2, 3, 3))),
                 qw.DimensionMismatchError, r"blocks must be 2x2, got shape \(2, 3, 3\)",
                 id="from_blocks-size"),
    pytest.param(lambda: qw.reach_full_state(C5, 0, [[1], [0, 0]], PSI, 4),
                 qw.DimensionMismatchError, r"c0 entry 1 has shape \(2,\), c0 entry 0 has \(1,\)",
                 id="c0-ragged"),
    pytest.param(lambda: qw.lie_closure_dim(qw.GeneratorBasis(mats="ab")), ValueError,
                 "not every generator holds only numbers that fit a complex128", id="generators-string"),
    pytest.param(lambda: qw.lie_closure_dim(qw.GeneratorBasis(mats=None)), ValueError,
                 r"generator 0 is not a square matrix: shape \(\)", id="generators-none"),
])
def test_complex_input_that_is_ragged_or_not_numbers_is_refused(call, error, message):
    # one complex-array rule names the argument, where numpy named no argument
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("name", INDEX_ARGS)
def test_zero_dimensional_array_index_gives_the_same_result(name):
    call, good, _ = INDEX_ARGS[name]
    assert pickle.dumps(call(np.array(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize("name", INDEX_ARGS)
def test_integral_float_index_gives_the_same_result(name):
    call, good, _ = INDEX_ARGS[name]
    assert pickle.dumps(call(float(good))) == pickle.dumps(call(good))
