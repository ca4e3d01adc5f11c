"""The indent-2 writer: pinned to the bytes of the list-of-pairs encoder."""

import gc
import json

import numpy as np
import pytest

import qwalk as qw
from qwalk import json_io

from reference import from_pairs_asarray
from sampling import random_spec, random_state_vector, random_walk_state


def _pair(z) -> list:
    return [json_io.round_float(z.real), json_io.round_float(z.imag)]


def _pairs(a):
    return _pair(a) if np.ndim(a) == 0 else [_pairs(x) for x in a]


def reference_sequence_text(seq, **extra) -> str:
    """The writer this module replaced: nested [re, im] lists of rounded
    floats through the standard library's indent-2 encoder."""
    doc = {
        "schema": json_io.SCHEMA_VERSION,
        "steps": [
            {"phase": tag, "coins": _pairs(op.blocks)}
            for op, tag in zip(seq.ops, seq.meta)
        ],
    }
    doc.update(extra)
    return json.dumps(doc, indent=2, allow_nan=False)


def reference_state_doc(state) -> dict:
    """A state's amplitudes are written exactly, as plain [re, im] floats."""
    return {
        "schema": json_io.SCHEMA_VERSION,
        "d": state.d,
        "n": state.n,
        "amps": [[z.real, z.imag] for z in state.amps.tolist()],
    }


def assert_same_text(got: str, want: str) -> None:
    """Fail on the first line that differs: a bare assert on documents of
    a few hundred kB spends minutes building pytest's diff."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i + 1} of {len(a)} (expected {len(b)}) differs: "
                    f"got {a[i:i + 1]}, expected {b[i:i + 1]}")


def _mixed_cycle_walk():
    """Cycles of lengths 3, 4 and 5 plus a perfect matching: N = 12, r = 60."""
    p1 = [1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7]
    p2 = np.empty(12, dtype=np.int64)
    p2[p1] = np.arange(12)
    return qw.validate(12, [p1, p2, (np.arange(12) + 6) % 12])


@pytest.mark.parametrize(
    "name, build",
    [
        ("figure1", qw.figure1),
        ("torus(3,5)", lambda: qw.torus(3, 5)),
        ("complete(12)", lambda: qw.complete(12)),
        ("mixed cycles (3,4,5)", _mixed_cycle_walk),
        ("cycle_shift(31)", lambda: qw.cycle_shift(31)),
        ("torus(7,9)", lambda: qw.torus(7, 9)),
    ],
)
def test_sequence_and_state_text_is_pinned(name, build):
    spec = build()
    rng = np.random.default_rng(11)
    psi1, psi2 = random_walk_state(rng, spec), random_walk_state(rng, spec)
    seq = qw.arbitrary_transfer(spec, psi1, psi2)
    extra = {"bound": seq.bound, "achieved_fidelity": 0.999999999999}
    assert_same_text(
        json_io.dumps({**json_io.sequence_to_dict(seq), **extra}),
        reference_sequence_text(seq, **extra),
    )
    final = qw.apply_sequence(psi1, seq, spec)
    probs = [json_io.round_float(p) for p in qw.position_probabilities(final)]
    doc = {
        "schema": 1,
        "steps": len(seq),
        "state": json_io.state_to_dict(final),
        "probabilities": probs,
    }
    reference = {**doc, "state": reference_state_doc(final)}
    assert_same_text(json_io.dumps(doc), json.dumps(reference, indent=2, allow_nan=False))


def _written_and_read_transfers():
    """Sequence documents of transfers between Haar states, written by
    ``dumps`` and parsed back, on the bench's walks and random_spec draws."""
    specs = [qw.cycle_shift(31), qw.torus(7, 9), qw.complete(12)]
    rng = np.random.default_rng(23)
    while len(specs) < 10:
        spec = random_spec(rng)
        if qw.analyze(spec).controllable:
            specs.append(spec)
    for spec in specs:
        seq = qw.arbitrary_transfer(spec, random_walk_state(rng, spec), random_walk_state(rng, spec))
        yield spec, json.loads(json_io.dumps(json_io.sequence_to_dict(seq)))


def test_stacked_decode_matches_one_coin_op_per_step():
    # one decode and one check over every step give the bits of a CoinOp
    # built from each step alone, signed zeros and snapped blocks included
    generic = snapped = 0
    for spec, doc in _written_and_read_transfers():
        seq = json_io.sequence_from_dict(doc)
        assert seq.meta == tuple(entry["phase"] for entry in doc["steps"])
        assert len(seq) == len(doc["steps"])
        for op, entry in zip(seq.ops, doc["steps"]):
            raw = json_io._from_pairs(entry["coins"], "coins")
            ref = qw.CoinOp(raw).blocks
            assert op.blocks.shape == ref.shape and op.blocks.tobytes() == ref.tobytes()
            assert not op.blocks.flags.writeable
            generic += int((raw != np.eye(spec.d)).any(axis=(1, 2)).sum())
            snapped += int((ref != raw).any(axis=(1, 2)).sum())
    # after 12-digit rounding most non-identity blocks take the SVD snap
    assert snapped > generic / 2


def test_sequence_document_is_checked_once(monkeypatch):
    calls = []
    check = json_io._unitary

    def counting_check(blocks, where):
        calls.append(blocks.shape)
        return check(blocks, where)

    monkeypatch.setattr(json_io, "_unitary", counting_check)
    spec, doc = next(_written_and_read_transfers())
    seq = json_io.sequence_from_dict(doc)
    assert calls == [(len(seq), spec.n, spec.d, spec.d)]


_PAIR = [1.0, 0.0]
_ODD_VALUES = [
    # ragged at each depth
    [[1, 2], [3]], [[1, 2], 3], [[1, 2], [[3, 4]]], [[[1, 2]], [[1, 2], [3, 4]]],
    [[[1, 2], [3, 4]], [[1, 2], [3]]], [[[[1, 0]]], [[[1, 0]], [[0, 1]]]], [[1, [2]]],
    [[_PAIR, _PAIR], [_PAIR, _PAIR, _PAIR], [_PAIR]],  # as many numbers as an even nesting
    # a string or a two-key object where a pair belongs
    [[1, 2], "12"], ["12", "34"], ["12"], "12", [_PAIR, {"re": 1, "im": 2}],
    [{"re": 1, "im": 2}, {"re": 1, "im": 2}], {"re": 1, "im": 2},
    # numeric strings, null and bools
    [["1.5", "-2"], ["1e3", " 7 "]], [["inf", "-nan"], ["1_0", "-0"]], [["0x10", 1]], [["", 1]],
    [[None, 1], [0, None]], [[True, False], [False, True]], [[True, "2"], [None, 3]],
    None, 5, 2.5, True,
    # deeper uniform nesting and empty lists
    [[[[[1, 0], [0, 1]]]]], [[[[_PAIR, _PAIR], [_PAIR, _PAIR]]] * 2] * 3, [_PAIR] * 7,
    [], [[]], [[], []], [[[]]], [[[], []]], [[[1, 2]], []], [[], [[1, 2]]], [[_PAIR, []]],
    [[1, 2, 3]], [[[1, 2, 3]]], [[-0.0, 0.0], [0.0, -0.0]],
    # one vertex of d = 2, the shape of the other step's coins
    [[[["1", 0], [False, "-0"]], [[0, "0"], [True, 0.0]]]], [[[["1", 0], [None, 0]], [[0, 0], _PAIR]]],
    [[[_PAIR, [0, 0]], [[0, 0]]]], [[[_PAIR, [0, 0]], "12"]],
]


def _decode(decoder, value):
    """The array bytes and shape, or the SpecValidationError text."""
    try:
        arr = decoder(value, "amps")
    except qw.SpecValidationError as exc:
        return str(exc)
    return arr.shape, arr.tobytes()


@pytest.mark.parametrize("value", _ODD_VALUES, ids=range(len(_ODD_VALUES)))
def test_flat_decode_matches_the_asarray_reference(monkeypatch, value):
    assert _decode(json_io._from_pairs, value) == _decode(from_pairs_asarray, value)
    # and through sequence_from_dict, where _odd names the step and vertex
    doc = {"steps": [{"coins": [[[_PAIR, [0, 0]], [[0, 0], _PAIR]]]}, {"coins": value}]}
    outcomes = []
    for decoder in (json_io._from_pairs, from_pairs_asarray):
        monkeypatch.setattr(json_io, "_from_pairs", decoder)
        try:
            outcomes.append([op.blocks.tobytes() for op in json_io.sequence_from_dict(doc)])
        except qw.QwalkError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]


def _assert_pinned(a):
    assert json_io.dumps({"a": a}) == json.dumps({"a": _pairs(a)}, indent=2, allow_nan=False)


def test_every_decade_matches_the_reference_encoder():
    rng = np.random.default_rng(5)
    for e in range(-300, 10):
        # mantissas in (-10, 10): each array spans the decades e and e + 1
        mant = rng.uniform(-10, 10, (2, 3, 3)) + 1j * rng.uniform(-10, 10, (2, 3, 3))
        _assert_pinned(mant * 10.0**e)
        _assert_pinned(mant[0, 0] * 10.0**e)


@pytest.mark.parametrize(
    "x",
    [0.0, -0.0, 1.0, -1.0, 0.9999999999995, 1 - 1e-16, 5e-324, 1e-310,
     1e10, 99999999999.9, 1e11, 3e11, 1e16],
)
def test_edge_values_match_the_reference_encoder(x):
    # subnormals and magnitudes from 1e10 on take the per-float path
    _assert_pinned(np.array([complex(x, -x), complex(1.0, x)]))
    _assert_pinned(np.array([[x, 0.5], [-0.5, x]], dtype=complex))


def test_stack_with_a_subnormal_slab_matches_the_reference_encoder():
    eye = np.eye(2, dtype=complex)
    stack = np.stack([eye, 0.5 * eye, np.full((2, 2), 1e-320 + 0.25j), eye, -eye])
    _assert_pinned(stack)
    _assert_pinned(np.stack([stack[[0, 1, 3]], stack[[1, 2, 4]]]))


def test_empty_arrays_match_the_reference_encoder():
    for shape in [(0,), (2, 0), (0, 2, 2), (3, 0, 2), (2, 2, 0, 2)]:
        _assert_pinned(np.zeros(shape, dtype=complex))


def test_negative_zero_is_not_written_as_zero():
    # equal in value to the identity block beside it, but not in bytes
    signed = np.array([[1.0, -0.0], [complex(0.0, -0.0), 1.0]], dtype=np.complex128)
    blocks = np.stack([np.eye(2), signed, np.eye(2), signed])
    assert np.array_equal(blocks[0], blocks[1])
    seq = qw.ControlSequence((qw.CoinOp(blocks),), ("mix",))
    text = json_io.dumps(json_io.sequence_to_dict(seq))
    assert text == reference_sequence_text(seq)
    assert text.count("-0.0") == 4


def test_empty_steps_and_state_text_are_pinned():
    empty = qw.ControlSequence((), ())
    assert json_io.dumps(json_io.sequence_to_dict(empty)) == reference_sequence_text(empty)
    state = random_walk_state(np.random.default_rng(3), qw.cycle_shift(5))
    assert json_io.dumps(json_io.state_to_dict(state)) == json.dumps(
        reference_state_doc(state), indent=2, allow_nan=False
    )


def test_written_states_read_back_bit_for_bit_and_transfer(tmp_path):
    # norms anywhere within NORM_TOL, 1e-15 from both ends too: the
    # amplitudes are written exactly, so every state reads back with its own
    # bits, and the states read back transfer to one another
    rng = np.random.default_rng(13)
    path = str(tmp_path / "state.json")
    edges = np.concatenate([[-0.999, 0.999], rng.uniform(-0.999, 0.999, 98)])
    for spec in (qw.cycle_shift(5), qw.figure1(), qw.torus(3, 5)):
        back = []
        for edge in edges:
            amps = random_state_vector(rng, spec.d * spec.n) * (1 + edge * qw.walk_core.NORM_TOL)
            state = qw.WalkState(spec.d, spec.n, amps)
            json_io.write_json(json_io.state_to_dict(state), path)
            back.append(json_io.state_from_dict(json_io.read_json(path)))
            assert back[-1].amps.tobytes() == state.amps.tobytes()
        for a, b in zip(back[:6], back[1:7]):
            seq = qw.arbitrary_transfer(spec, a, b)
            assert qw.state_fidelity(qw.apply_sequence(a, seq, spec), b) >= 1 - 1e-9


def test_plain_documents_match_the_standard_encoder():
    docs = [
        {},
        [],
        [[]],
        {"a": [], "b": {}, "c": [1, 2.5, None, True, False, "x\ny, z"]},
        {"sets": [[0, 2], [1, 3], []], "nested": [{"k": [1e-300, -0.0]}, "s"]},
        "tab\tand é",
        7,
    ]
    for doc in docs:
        assert json_io.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False), doc


_SCALARS = {
    "0": 0, "-1": -1, "2**63": 2**63, "2**200": 2**200,
    "4300 digits": 10**4299, "4301 digits": 10**4300,
    "True": True, "False": False, "np.int64": np.int64(3), "np.float64": np.float64(0.1),
    "-0.0": -0.0, "5e-324": 5e-324, "1e-7": 1e-7, "0.1": 0.1, "1e16": 1e16,
    "max": 1.7976931348623157e308,
    "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
}


@pytest.mark.parametrize("value", _SCALARS.values(), ids=_SCALARS)
def test_scalars_match_the_standard_encoder(value):
    # exact ints and finite floats are written without the encoder: its
    # text, or its error type and message
    try:
        want = json.JSONEncoder(allow_nan=False).encode(value)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            json_io.dumps(value)
        assert str(got.value) == str(exc)
    else:
        assert json_io.dumps(value) == want
        doc = {"x": [value, -1]}
        assert json_io.dumps(doc) == json.dumps(doc, indent=2, allow_nan=False)


def test_non_finite_values_are_refused():
    # a bare NaN scalar is covered with the other NaN inputs in test_walk_core
    with pytest.raises(ValueError):
        json_io.dumps({"x": [1.0, float("inf")]})
    with pytest.raises(ValueError):
        json_io.dumps({"amps": np.array([1.0, complex(0.0, np.nan)])})


@pytest.mark.parametrize("enabled", [True, False])
def test_read_json_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    docs = {
        "ok.json": b'{"a": [1, 2.5]}',
        "utf16.json": b'\xff\xfe{"a": 1}',
        "deep.json": b"[" * 200_000 + b"]" * 200_000,
        "bad.json": b"{not json",
        "bigint.json": b'{"a": ' + b"9" * 5000 + b"}",
    }
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for name, text in docs.items():
            path = tmp_path / name
            path.write_bytes(text)
            if name == "ok.json":
                assert json_io.read_json(str(path)) == {"a": [1, 2.5]}
            else:
                with pytest.raises(json.JSONDecodeError):
                    json_io.read_json(str(path))
            assert gc.isenabled() is enabled, name
    finally:
        (gc.enable if was else gc.disable)()
