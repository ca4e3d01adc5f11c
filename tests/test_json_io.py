"""The indent-2 writer: pinned to the bytes of the list-of-pairs encoder."""

import json

import numpy as np
import pytest

import qwalk as qw
from qwalk import json_io
from qwalk.sampling import random_walk_state


def _pair(z) -> list:
    return [json_io.round_float(z.real), json_io.round_float(z.imag)]


def _matrix(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m)]


def reference_sequence_text(seq, **extra) -> str:
    """The writer this module replaced: nested [re, im] lists of rounded
    floats through the standard library's indent-2 encoder."""
    doc = {
        "schema": json_io.SCHEMA_VERSION,
        "steps": [
            {"phase": tag, "coins": [_matrix(q) for q in op.blocks]}
            for op, tag in zip(seq.ops, seq.meta)
        ],
    }
    doc.update(extra)
    return json.dumps(doc, indent=2, allow_nan=False)


def reference_state_doc(state) -> dict:
    return {
        "schema": json_io.SCHEMA_VERSION,
        "d": state.d,
        "n": state.n,
        "amps": [_pair(z) for z in state.amps],
    }


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
    ],
)
def test_sequence_and_state_text_is_pinned(name, build):
    spec = build()
    rng = np.random.default_rng(11)
    psi1, psi2 = random_walk_state(rng, spec), random_walk_state(rng, spec)
    seq = qw.arbitrary_transfer(spec, psi1, psi2)
    extra = {"bound": seq.bound, "achieved_fidelity": 0.999999999999}
    assert json_io.dumps(json_io.sequence_to_dict(seq, **extra)) == reference_sequence_text(
        seq, **extra
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
    assert json_io.dumps(doc) == json.dumps(reference, indent=2, allow_nan=False)


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


def test_non_finite_values_are_refused():
    # a bare NaN scalar is covered with the other NaN inputs in test_walk_core
    with pytest.raises(ValueError):
        json_io.dumps({"x": [1.0, float("inf")]})
    with pytest.raises(ValueError):
        json_io.dumps({"amps": np.array([1.0, complex(0.0, np.nan)])})
