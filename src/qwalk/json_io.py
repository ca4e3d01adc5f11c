"""JSON (de)serialization for specs, states, coins, sequences and reports.

Documents hold states and coins as complex numpy arrays; ``dumps`` writes
each complex number as an [re, im] pair with every float rounded to 12
significant digits, so identical inputs produce byte-identical output.  Every
emitted document carries a "schema" version field; it is optional on input.
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
        "amps": state.amps,
    }


def state_from_dict(data: dict) -> WalkState:
    """Raises SpecValidationError unless ``data`` is an object with integer
    "d" and "n" and an "amps" list of [re, im] pairs."""
    d, n = _int_field(_object(data, "state"), "d"), _int_field(data, "n")
    return WalkState(d, n, _from_pairs(data.get("amps"), "amps"))


def coin_from_list(data) -> CoinOp:
    return CoinOp(_from_pairs(data, "coins"))


def sequence_to_dict(seq: ControlSequence, **extra) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "steps": [{"phase": tag, "coins": op.blocks} for op, tag in zip(seq.ops, seq.meta)],
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
    """The report's document; when the criteria disagree it also carries
    the reachability and parity verdicts beside the orbit count ``m``."""
    doc = {
        "schema": SCHEMA_VERSION,
        "m": report.m,
        "components": [list(c) for c in report.components],
        "controllable": report.controllable,
        "predicted_lie_dim": report.predicted_lie_dim,
        "kappa": report.kappa,
        "step_bound": report.step_bound,
        "verdicts_agree": report.verdicts_agree,
    }
    if not report.verdicts_agree:
        doc["reach_controllable"] = report.reach_controllable
        doc["parity_m"] = report.parity_m
        doc["partitions_match"] = report.partitions_match
    return doc


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_ENCODER = json.JSONEncoder(allow_nan=False)


def _wrap(items: list, level: int, brackets: str) -> str:
    """The indent-2 layout of already rendered items at nesting ``level``."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * level + brackets[1]


def _template(shape: tuple, level: int) -> str:
    """Layout of a complex array of ``shape`` with one %s per float, each
    complex number an [re, im] pair."""
    if not shape:
        return _wrap(["%s", "%s"], level, "[]")
    return _wrap([_template(shape[1:], level + 1)] * shape[0], level, "[]")


def _array(a: np.ndarray, level: int, slabs: dict) -> str:
    """A complex array at nesting ``level``, rendered a (d, d) slab (or a
    whole vector) at a time.  ``slabs`` maps (shape, level) to the slab
    template and (shape, level, raw bytes) to the slab text, since most
    slabs of a control sequence repeat (identity blocks).  Equal bytes, not
    equal values: -0.0 == 0.0 prints differently."""
    if a.ndim > 2:
        return _wrap([_array(s, level + 1, slabs) for s in a], level, "[]")
    key = (a.shape, level, a.tobytes())
    text = slabs.get(key)
    if text is None:
        template = slabs.get(key[:2])
        if template is None:
            template = slabs[key[:2]] = _template(a.shape, level)
        floats = a.reshape(-1).view(np.float64).tolist()
        text = slabs[key] = template % tuple(map(float.__repr__, map(round_float, floats)))
    return text


def _render(obj, level: int, slabs: dict) -> str:
    if isinstance(obj, dict):
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_ENCODER.encode(key) + ": " + _render(value, level + 1, slabs))
        return _wrap(items, level, "{}")
    if isinstance(obj, (list, tuple)):
        return _wrap([_render(v, level + 1, slabs) for v in obj], level, "[]")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "c":
            raise TypeError(f"only complex arrays are written, not {obj.dtype}")
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _array(np.asarray(obj, dtype=np.complex128, order="C"), level, slabs)
    return _ENCODER.encode(obj)


def dumps(obj) -> str:
    """The standard library's indent-2 text of ``obj`` (NaN and infinity
    refused), where every complex array is written as nested lists of
    [round_float(re), round_float(im)] pairs.  Keys must be strings.  Slab
    text is shared within one call only."""
    return _render(obj, 0, {})


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")
