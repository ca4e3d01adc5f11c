"""JSON (de)serialization for specs, states, coins, sequences and reports.

All floats are rounded to 12 significant digits before dumping so identical
inputs produce byte-identical output.  Every emitted document carries a
"schema" version field; it is optional on input.
"""

from __future__ import annotations

import json

import numpy as np

from .controllability import ControllabilityReport
from .errors import SpecValidationError
from .graph_model import WalkSpec, validate
from .synthesis import ControlSequence
from .walk_core import CoinOp, WalkState

SCHEMA_VERSION = 1


def round_float(x) -> float:
    """``x`` rounded to the 12 significant digits of every emitted float."""
    return float(f"{float(x):.12g}")


def _pair(z) -> list:
    return [round_float(z.real), round_float(z.imag)]


def _matrix(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m)]


def _from_pairs(pairs, key: str) -> np.ndarray:
    """Complex array from a nested list whose innermost entries are
    [re, im] pairs."""
    try:
        arr = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError):  # ragged nesting, strings, objects
        arr = np.empty(0)
    if arr.shape[-1:] != (2,):
        raise SpecValidationError(f'"{key}" must be an evenly nested list of [re, im] pairs')
    return arr[..., 0] + 1j * arr[..., 1]


def _object(data, kind: str) -> dict:
    if not isinstance(data, dict):
        raise SpecValidationError(f"a {kind} is a JSON object, got {type(data).__name__}")
    return data


def _int_field(data: dict, key: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1 != 0:
        raise SpecValidationError(f'"{key}" must be an integer, got {value!r}')
    return int(value)


def spec_to_dict(spec: WalkSpec) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": spec.n,
        "perms": [p.map.tolist() for p in spec.perms],
    }


def spec_from_dict(data: dict) -> WalkSpec:
    """Accepts one-line arrays or cycle-notation strings under "perms".

    Raises SpecValidationError unless ``data`` is an object whose "n" is an
    integer and whose "perms" is a list.
    """
    n = _int_field(_object(data, "spec"), "n")
    if not isinstance(data.get("perms"), list):
        raise SpecValidationError(f'"perms" must be a list, got {data.get("perms")!r}')
    return validate(n, data["perms"])


def state_to_dict(state: WalkState) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "d": state.d,
        "n": state.n,
        "amps": [_pair(z) for z in state.amps],
    }


def state_from_dict(data: dict) -> WalkState:
    """Raises SpecValidationError unless ``data`` is an object with integer
    "d" and "n" and an "amps" list of [re, im] pairs."""
    d, n = _int_field(_object(data, "state"), "d"), _int_field(data, "n")
    return WalkState(d, n, _from_pairs(data.get("amps"), "amps"))


def coin_to_list(coin: CoinOp) -> list:
    return [_matrix(q) for q in coin.blocks]


def coin_from_list(data) -> CoinOp:
    return CoinOp(_from_pairs(data, "coins"))


def sequence_to_dict(seq: ControlSequence, **extra) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "steps": [{"phase": tag, "coins": coin_to_list(op)} for op, tag in zip(seq.ops, seq.meta)],
    }
    doc.update(extra)
    return doc


def sequence_from_dict(data: dict) -> ControlSequence:
    """Raises SpecValidationError unless ``data`` is an object whose "steps"
    is a list of objects, each with a "coins" list of [re, im] pairs."""
    steps = _object(data, "sequence").get("steps")
    if not isinstance(steps, list):
        raise SpecValidationError(f'"steps" must be a list, got {type(steps).__name__}')
    ops, meta = [], []
    for entry in steps:
        ops.append(coin_from_list(_object(entry, "step").get("coins")))
        meta.append(entry.get("phase", "step"))
    return ControlSequence(tuple(ops), tuple(meta))


def report_to_dict(report: ControllabilityReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "m": report.m,
        "components": [list(c) for c in report.components],
        "controllable": report.controllable,
        "predicted_lie_dim": report.predicted_lie_dim,
        "kappa": report.kappa,
        "step_bound": report.step_bound,
        "verdicts_agree": report.verdicts_agree,
    }


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")
