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


def _f(x) -> float:
    return float(f"{float(x):.12g}")


def _pair(z) -> list:
    return [_f(z.real), _f(z.imag)]


def _matrix(m) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(m)]


def _from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


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
    if not isinstance(data, dict):
        raise SpecValidationError(f"a spec is a JSON object, got {type(data).__name__}")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, (int, float)) or n % 1 != 0:
        raise SpecValidationError(f'"n" must be an integer, got {n!r}')
    if not isinstance(data.get("perms"), list):
        raise SpecValidationError(f'"perms" must be a list, got {data.get("perms")!r}')
    return validate(int(n), data["perms"])


def state_to_dict(state: WalkState) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "d": state.d,
        "n": state.n,
        "amps": [_pair(z) for z in state.amps],
    }


def state_from_dict(data: dict) -> WalkState:
    return WalkState(int(data["d"]), int(data["n"]), _from_pairs(data["amps"]))


def coin_to_list(coin: CoinOp) -> list:
    return [_matrix(q) for q in coin.blocks]


def coin_from_list(data) -> CoinOp:
    return CoinOp(np.stack([_from_pairs(q) for q in data]))


def sequence_to_dict(seq: ControlSequence, **extra) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "steps": [{"phase": tag, "coins": coin_to_list(op)} for op, tag in zip(seq.ops, seq.meta)],
    }
    doc.update(extra)
    return doc


def sequence_from_dict(data: dict) -> ControlSequence:
    ops = []
    meta = []
    for entry in data["steps"]:
        ops.append(coin_from_list(entry["coins"]))
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
