"""JSON (de)serialization for specs, states, coins, sequences and reports.

Documents hold states and coins as complex numpy arrays; ``dumps`` writes
each complex number as an [re, im] pair with every float rounded to 12
significant digits, except state amplitudes, which are written exactly, so
identical inputs produce byte-identical output.  Every emitted document
carries a "schema" version field; it is optional on input.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import suppress
from itertools import chain

import numpy as np

from .controllability import ControllabilityReport
from .errors import DimensionMismatchError, SpecValidationError
from .graph_model import WalkSpec, _integer, validate
from .synthesis import ControlSequence
from .walk_core import CoinOp, WalkState, _unitary

SCHEMA_VERSION = 1


def round_float(x) -> float:
    """``x`` rounded to the 12 significant digits of every emitted float
    but state amplitudes."""
    return float(f"{float(x):.12g}")


def _from_pairs(pairs, key: str) -> np.ndarray:
    """Complex array from a nested list of [re, im] pairs: each level is lists of
    one length, and the numbers convert as in np.asarray(..., float) (null as NaN)."""
    shape, level = [], [pairs]
    while set(map(type, level)) == {list} and len(set(map(len, level))) == 1:
        shape.append(len(level[0]))
        if shape[-1] and type(level[0][0]) is list:
            level = list(chain.from_iterable(level))
            continue
        if shape[-1] == 2:  # the pairs; a list among the numbers is ragged nesting too
            with suppress(TypeError, ValueError, OverflowError):  # strings, objects, huge ints
                arr = np.fromiter(chain.from_iterable(level), np.float64, 2 * len(level))
                return (arr[0::2] + 1j * arr[1::2]).reshape(shape[:-1])
        break
    raise SpecValidationError(f'"{key}" must be an evenly nested list of [re, im] pairs')


def _object(data, kind: str) -> dict:
    if not isinstance(data, dict):
        raise SpecValidationError(f"a {kind} is a JSON object, got {type(data).__name__}")
    return data


def _int_field(data: dict, key: str) -> int:
    value = _integer(data.get(key))
    if value is None:
        raise SpecValidationError(f'"{key}" must be an integer, got {data.get(key)!r}')
    return value


def spec_to_dict(spec: WalkSpec) -> dict:
    return {"schema": SCHEMA_VERSION, "n": spec.n, "perms": spec.maps.tolist()}


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
    return {"schema": SCHEMA_VERSION, "d": state.d, "n": state.n, "amps": state.amps}


def state_from_dict(data: dict) -> WalkState:
    """Raises SpecValidationError unless ``data`` is an object with integer
    "d" and "n" and an "amps" list of [re, im] pairs."""
    d, n = _int_field(_object(data, "state"), "d"), _int_field(data, "n")
    return WalkState(d, n, _from_pairs(data.get("amps"), "amps"))


def sequence_to_dict(seq: ControlSequence) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "steps": [{"phase": tag, "coins": op.blocks} for op, tag in zip(seq.ops, seq.meta)],
    }


def sequence_from_dict(data: dict) -> ControlSequence:
    """Raises SpecValidationError unless ``data`` is an object whose "steps"
    is a list of objects, each with a "coins" list of [re, im] pairs, all of
    one shape, and a string "phase" if it has one.  The steps are decoded
    and checked as one stack."""
    steps = _object(data, "sequence").get("steps")
    if not isinstance(steps, list):
        raise SpecValidationError(f'"steps" must be a list, got {type(steps).__name__}')
    coins = [_object(entry, "step").get("coins") for entry in steps]
    try:
        blocks = _from_pairs(coins, "coins") if coins else np.empty((0, 1, 1, 1))  # no steps
    except SpecValidationError:
        raise SpecValidationError(f"{_odd(coins)}: not [re, im] pairs of one shape") from None
    if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
        raise DimensionMismatchError(f"coin block at step 0, vertex 0 has shape {blocks.shape[2:]}")
    _unitary(blocks, "step {}, vertex {}".format)
    meta = tuple(entry.get("phase", "step") for entry in steps)
    for i, tag in enumerate(meta):
        if not isinstance(tag, str):
            raise SpecValidationError(f'step {i}: "phase" must be a string, got {type(tag).__name__}')
    return ControlSequence(tuple(map(CoinOp._of, blocks)), meta)


def _odd(items: list, names=("step", "vertex")) -> str:
    """Where the first entry is that does not parse as [re, im] pairs alone,
    or not to the first entry's shape: "step s" or "step s, vertex v"."""
    shapes = []
    for i, item in enumerate(items):
        try:
            shapes.append(_from_pairs(item, "").shape)
        except SpecValidationError:
            inner = names[1:] and isinstance(item, list) and _odd(item, names[1:])
            return f"{names[0]} {i}" + (f", {inner}" if inner else "")
        if shapes[i] != shapes[0]:
            return f"{names[0]} {i}"
    return ""


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


def read_json(path: str, decode):
    """``decode`` of the parsed document.  Text that is not UTF-8, arrays and
    objects nested too deep, or an integer past int()'s digit limit raise
    json.JSONDecodeError like any other unparsable document; what ``decode``
    raises passes through unchanged.

    The cyclic garbage collector is off while the document is parsed and
    decoded: a parsed document holds no reference cycle, so a collection
    meanwhile only scans every live object, and the parsed tree is freed by
    reference count before the collector is back.  The switch is global; its
    prior state comes back on every exit, so a disabled one stays disabled."""
    with open(path, encoding="utf-8") as fh:
        enabled = gc.isenabled()
        gc.disable()
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            text = exc.object[:exc.start].decode("utf-8")
            raise json.JSONDecodeError(f"not UTF-8 text ({exc.reason})", text, len(text)) from None
        except RecursionError:
            raise json.JSONDecodeError("arrays or objects nested too deep", "", 0) from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # the only other: an integer past int()'s digit limit
            raise json.JSONDecodeError("integer literal too long", "", 0) from None
        else:
            doc = decode(doc)  # drops the last reference to the parsed tree
        finally:
            if enabled:
                gc.enable()
    return doc


_ENCODER = json.JSONEncoder(allow_nan=False)
_TINY = np.finfo(np.float64).tiny


def _wrap(out: list, items, level: int, brackets: str, put=list.append) -> list:
    """Append to ``out`` the indent-2 layout of ``items`` at nesting ``level``,
    each item's text placed by ``put(out, item)``; returns ``out``."""
    mark, pad = len(out), ",\n" + "  " * (level + 1)
    for item in items:
        out.append(pad)
        put(out, item)
    if len(out) > mark:  # the first pad opens the brackets
        out[mark] = brackets[0] + pad[1:]
    out.append(brackets if len(out) == mark else f"\n{'  ' * level}{brackets[1]}")
    return out


def _template(shape: tuple, level: int) -> str:
    """Layout of a complex array of ``shape`` with one %s per float, each
    complex number an [re, im] pair."""
    items = [_template(shape[1:], level + 1)] * shape[0] if shape else ["%s", "%s"]
    return "".join(_wrap([], items, level, "[]"))


def _array(out: list, a: np.ndarray, level: int, slabs: dict, fast: str | None) -> None:
    """A complex array at nesting ``level``, rendered a (d, d) slab (or a
    whole vector) at a time; a stack of slabs goes to ``_slabs`` at once."""
    if a.ndim > 3:
        _wrap(out, a, level, "[]", lambda out, s: _array(out, s, level + 1, slabs, fast))
    elif a.ndim < 3:
        out.append(_slabs(a[None], level, slabs, fast)[0])
    else:
        _wrap(out, _slabs(a, level + 1, slabs, fast), level, "[]")


def _slabs(stack: np.ndarray, level: int, slabs: dict, fast: str | None) -> list:
    """The text of each slab of ``stack`` at nesting ``level``, each distinct
    slab formatted once, since most slabs of a control sequence repeat
    (identity blocks).  ``slabs`` maps (shape, level, fast) to the slab
    template, its twin with ``fast`` for each float and the texts met so
    far, keyed by raw bytes: equal bytes, not equal values, since
    -0.0 == 0.0 prints differently.  Given ``fast``, one ``str.format`` call
    fills the twin; otherwise every float goes through ``round_float`` and
    ``repr``."""
    shape = stack.shape[1:]
    entry = slabs.get((shape, level, fast))
    if entry is None:
        template = _template(shape, level)
        entry = slabs[shape, level, fast] = (template, template.replace("%s", fast or "%s"), {})
    template, twin, texts = entry
    if not stack.size:
        return [template] * len(stack)
    keys = stack.reshape(len(stack), -1).view(f"V{stack[0].nbytes}").ravel().tolist()
    for key in set(keys).difference(texts):
        floats = np.frombuffer(key).tolist()
        texts[key] = twin.format(*floats) if fast else template % tuple(
            map(float.__repr__, map(round_float, floats)))
    return [texts[key] for key in keys]


def _render(out: list, obj, level: int, slabs: dict, amps: bool = False) -> list:
    # the C encoder's own text for exact ints and finite floats, without the call
    if type(obj) is int or type(obj) is float and math.isfinite(obj):
        out.append(type(obj).__repr__(obj))
    elif isinstance(obj, dict):
        _wrap(out, obj.items(), level, "{}", lambda out, item: _entry(out, *item, level, slabs))
    elif isinstance(obj, (list, tuple)):
        _wrap(out, obj, level, "[]", lambda out, v: _render(out, v, level + 1, slabs, amps))
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind != "c":
            raise TypeError(f"only complex arrays are written, not {obj.dtype}")
        # format(x, ".12") is repr(round_float(x)) for +-0.0 and every normal
        # float below 1e10 in magnitude: both round to the same 12 digits, a
        # normal double has no shorter repr, and an exponent appears only
        # from 1e11 on.  Subnormals and larger floats can differ.  "{!r}" is
        # repr itself, exact for every finite float.
        a = np.asarray(obj, dtype=np.complex128, order="C")
        mag = np.abs(a.reshape(-1).view(np.float64))
        exact = bool(((mag < 1e10) & ((mag >= _TINY) | (mag == 0))).all())
        if not (exact or np.isfinite(mag).all()):
            raise ValueError("Out of range float values are not JSON compliant")
        _array(out, a, level, slabs, "{!r}" if amps else "{:.12}" if exact else None)
    else:
        out.append(_ENCODER.encode(obj))
    return out


def _entry(out: list, key, value, level: int, slabs: dict) -> None:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    out.append(f"{_ENCODER.encode(key)}: ")
    _render(out, value, level + 1, slabs, key == "amps")


def dumps(obj) -> str:
    """The standard library's indent-2 text of ``obj`` (NaN and infinity
    refused), where every complex array is written as nested lists of
    [round_float(re), round_float(im)] pairs, or of exact [re, im] pairs
    under the key "amps".  Keys must be strings.  Slab text is shared within
    one call only.  The text is built as one flat list of pieces and joined
    once, so each character is copied once however deep it is nested.

    State amplitudes are written exactly so that a written state reads back
    bit for bit: rounded to 12 digits its norm can move by about 1e-12, and
    even at 13 digits one state in a hundred whose norm lies within
    ``NORM_TOL`` of 1 reads back outside it.  Coin blocks keep 12 digits,
    since ``_unitary`` snaps them back on read."""
    return "".join(_render([], obj, 0, {}))


def write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        print(dumps(obj), file=fh)
