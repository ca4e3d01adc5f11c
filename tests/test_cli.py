"""Command-line surface: exit codes, JSON schemas, determinism."""

import contextlib
import copy
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qwalk as qw
from qwalk import controllability, json_io, lie_closure
from qwalk.cli import main

from sampling import random_coin_op, random_walk_state


@pytest.fixture()
def cycle5_path(tmp_path):
    path = tmp_path / "cycle5.json"
    json_io.write_json(json_io.spec_to_dict(qw.cycle_shift(5)), str(path))
    return str(path)


@pytest.fixture()
def cycle4_path(tmp_path):
    path = tmp_path / "cycle4.json"
    json_io.write_json(json_io.spec_to_dict(qw.cycle_shift(4)), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, cycle5_path):
    code, out = run_cli(capsys, "validate", "--spec", cycle5_path)
    doc = json.loads(out)
    assert code == 0
    assert doc == {"schema": 1, "valid": True, "n": 5, "d": 2, "shift_order": 5}


def test_validate_bad_spec(capsys, tmp_path):
    path = tmp_path / "bad.json"
    json_io.write_json({"n": 4, "perms": [[0, 1, 2, 3], [1, 2, 3, 0]]}, str(path))
    code, out = run_cli(capsys, "validate", "--spec", str(path))
    doc = json.loads(out)
    assert code == 1
    assert doc["valid"] is False and doc["error"] == "SelfLoopError"


@pytest.mark.parametrize("cycle", ["(0 1 2 3 4", "(0 1 x 3 4)"])
def test_validate_malformed_cycle_notation(capsys, tmp_path, cycle):
    # a string is not an image array, cycle notation or not
    path = tmp_path / "bad.json"
    json_io.write_json({"n": 5, "perms": [cycle, [4, 0, 1, 2, 3]]}, str(path))
    code, out = run_cli(capsys, "validate", "--spec", str(path))
    doc = json.loads(out)
    assert code == 1
    assert doc["valid"] is False and doc["error"] == "NotBijectionError"
    assert doc["detail"] == f"images must be integers: {cycle}"


# spec checks that raise with the message given: ragged and empty images,
# a string in place of an image array, and "perms" that is not a list
_BAD_SPECS = {
    "ragged-images": ({"n": 3, "perms": [[[0, 1], [2]], [1, 2, 0]]}, qw.NotBijectionError,
                      "images are not a flat array of integers"),
    "empty-images": ({"n": 3, "perms": [[], [1, 2, 0]]}, qw.NotBijectionError,
                     "need a non-empty one-dimensional image array"),
    "cycle-vertex-out-of-range": ({"n": 5, "perms": ["(0 7)", [4, 0, 1, 2, 3]]},
                                  qw.NotBijectionError, "images must be integers: (0 7)"),
    "perms-not-a-list": ({"n": 5, "perms": "(0 1 2 3 4)"}, qw.SpecValidationError,
                         "\"perms\" must be a list, got '(0 1 2 3 4)'"),
}


@pytest.mark.parametrize(
    "text,error",
    [
        *((json.dumps(doc), error.__name__) for doc, error, _ in _BAD_SPECS.values()),
        ('{"perms": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}', "SpecValidationError"),
        ('[5, [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]]', "SpecValidationError"),
        ('{"n": "x", "perms": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}', "SpecValidationError"),
        ('{"n": 5, "perms": [[1.5, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}', "NotBijectionError"),
        # a string is refused before any n-length array is built
        ('{"n": 1000000000000, "perms": ["(0 1)", "(1 2)"]}', "NotBijectionError"),
        ('{"n": 5, "perms": ["(0 1 ' + "9" * 5000 + ')", [4, 0, 1, 2, 3]]}', "NotBijectionError"),
        ('{"n": 5, "perms": ["(0 1 2 3 4)", [4, 0, 1, 2, 3]]}', "NotBijectionError"),
    ],
    ids=[
        *_BAD_SPECS, "missing-n", "top-level-list", "string-n", "fractional-image", "huge-n-cycles",
        "huge-vertex-cycles", "cycle-notation",
    ],
)
def test_malformed_spec_is_invalid(capsys, tmp_path, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    code, out = run_cli(capsys, "analyze", "--spec", str(path))
    assert code == 1
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize(
    "call,error,message",
    [
        *((lambda doc=doc: json_io.spec_from_dict(doc), error, message)
          for doc, error, message in _BAD_SPECS.values()),
        (lambda: json_io.dumps({1: "x"}), TypeError, "keys must be str, not int"),
        (lambda: json_io.dumps(np.zeros(3)), TypeError, "only complex arrays are written, not float64"),
        (lambda: qw.ControlSequence((), ("step",)), ValueError, "ops and meta must have equal length"),
        (lambda: qw.reach_full_state(qw.cycle_shift(5), 0, np.ones(3) / np.sqrt(3),
                                     qw.basis_state(qw.cycle_shift(5), 0, 1), 0),
         qw.DimensionMismatchError, "coin state has size 3, expected 2"),
        (lambda: qw.CoinOp(np.zeros((3, 2, 1))), qw.DimensionMismatchError,
         "blocks must be (n, d, d), got (3, 2, 1)"),
    ],
    ids=[*_BAD_SPECS, "non-string-key", "real-array", "ops-and-meta", "coin-state-size",
         "non-square-coin"],
)
def test_input_checks_raise_named_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_missing_file_is_io_error(capsys):
    assert main(["analyze", "--spec", "/nonexistent/x.json"]) == 3


def test_every_os_error_on_an_input_is_io_error(capsys, tmp_path, cycle5_path):
    # a path through a file (NotADirectoryError) and a name past 255 bytes
    # (ENAMETOOLONG) are OSErrors like a missing file
    for spec in (cycle5_path + "/x.json", str(tmp_path / ("x" * 300))):
        assert main(["analyze", "--spec", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("i/o error: ")


def test_an_out_path_that_cannot_be_written_is_io_error(capsys, cycle5_path):
    assert main(["analyze", "--spec", cycle5_path, "--out", cycle5_path + "/report.json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["controllable"] is True
    assert captured.err.startswith("i/o error: ")


def test_unparsable_json_is_io_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["analyze", "--spec", str(path)]) == 3


def test_non_utf8_json_is_io_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"n": 3, "perms": []}')
    assert main(["analyze", "--spec", str(path)]) == 3
    assert "cannot parse JSON: not UTF-8" in capsys.readouterr().err


def test_oversized_integer_json_is_io_error(capsys, tmp_path):
    # json.load raises a plain ValueError past int()'s 4300-digit limit
    path = tmp_path / "bigint.json"
    path.write_text('{"n": ' + "9" * 5000 + ', "perms": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}')
    assert main(["validate", "--spec", str(path)]) == 3
    assert "cannot parse JSON: integer literal too long" in capsys.readouterr().err


def test_deeply_nested_json_is_io_error(capsys, tmp_path, cycle5_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    state = tmp_path / "state.json"
    json_io.write_json(json_io.state_to_dict(qw.basis_state(qw.cycle_shift(5), 0, 0)), str(state))
    for argv in (
        ["analyze", "--spec", deep],
        ["simulate", "--spec", cycle5_path, "--state", deep, "--seq", deep],
        ["simulate", "--spec", cycle5_path, "--state", state, "--seq", deep],
    ):
        assert main([str(arg) for arg in argv]) == 3
        assert "cannot parse JSON: arrays or objects nested too deep" in capsys.readouterr().err


def test_analyze_report(capsys, cycle5_path):
    code, out = run_cli(capsys, "analyze", "--spec", cycle5_path)
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "schema": 1,
        "m": 1,
        "components": [[0, 1, 2, 3, 4]],
        "controllable": True,
        "predicted_lie_dim": 100,
        "kappa": 4,
        "step_bound": 13,
        "verdicts_agree": True,
    }


def test_analyze_uncontrollable_report(capsys, cycle4_path):
    code, out = run_cli(capsys, "analyze", "--spec", cycle4_path)
    doc = json.loads(out)
    assert code == 0  # criteria agree; not being controllable is not a failure
    assert doc["m"] == 2
    assert doc["components"] == [[0, 2], [1, 3]]
    assert doc["controllable"] is False
    assert doc["kappa"] is None and doc["step_bound"] is None


def test_analyze_exit_2_names_the_disagreeing_criterion(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cycle6.json"
    json_io.write_json(json_io.spec_to_dict(qw.cycle_shift(6)), str(path))
    _, agreeing = run_cli(capsys, "analyze", "--spec", str(path))
    assert "parity_m" not in json.loads(agreeing)
    # a parity split that differs from the orbit components
    fake = controllability.ParityReport(m=2, witness=None, even=(0, 1, 2), odd=(3, 4, 5))
    monkeypatch.setattr(controllability, "parity_check", lambda spec, j=0: fake)
    code, out = run_cli(capsys, "analyze", "--spec", str(path))
    doc = json.loads(out)
    assert code == 2
    assert doc == {
        **json.loads(agreeing),
        "verdicts_agree": False,
        "reach_controllable": False,
        "parity_m": 2,
        "partitions_match": False,
    }
    explained = ["verdicts_agree", "reach_controllable", "parity_m", "partitions_match"]
    assert list(doc)[-4:] == explained


def test_output_is_byte_identical(capsys, cycle5_path):
    _, first = run_cli(capsys, "analyze", "--spec", cycle5_path)
    _, second = run_cli(capsys, "analyze", "--spec", cycle5_path)
    assert first == second


def test_reach_sets(capsys, cycle5_path):
    code, out = run_cli(capsys, "reach", "--spec", cycle5_path, "--node", "0", "--k", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["sets"][0] == [0]
    assert doc["sets"][1] == [1, 4]
    assert doc["sets"][4] == [0, 1, 2, 3, 4]


def test_reach_negative_level_is_invalid(capsys, cycle5_path):
    code, out = run_cli(capsys, "reach", "--spec", cycle5_path, "--node", "0", "--k", "-3")
    assert code == 1
    assert json.loads(out)["error"] == "IndexOutOfRangeError"


def test_reach_level_past_the_largest_index_is_invalid(capsys, cycle5_path):
    code, out = run_cli(capsys, "reach", "--spec", cycle5_path, "--node", "0",
                        "--k", "99999999999999999999")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "IndexOutOfRangeError"
    assert "level 99999999999999999999" in doc["detail"]


def test_analyze_exit_2_on_a_reach_parity_conflict(capsys, monkeypatch, cycle4_path):
    # the parity test calls the bipartite walk coverable; the covering
    # search disagrees, and the report says so instead of raising
    fake = controllability.ParityReport(m=1, witness=0, even=(), odd=())
    monkeypatch.setattr(controllability, "parity_check", lambda spec, j=0: fake)
    code, out = run_cli(capsys, "analyze", "--spec", cycle4_path)
    doc = json.loads(out)
    assert code == 2
    assert doc["verdicts_agree"] is False
    assert doc["reach_controllable"] is False and doc["parity_m"] == 1


def test_lie_check(capsys, cycle4_path):
    code, out = run_cli(capsys, "lie-check", "--spec", cycle4_path)
    doc = json.loads(out)
    assert code == 0
    assert doc["dim"] == doc["predicted"] == 32
    assert doc["match"] is True and doc["block_diagonal_ok"] is True


def test_lie_check_exit_2_names_the_largest_off_block_entry(capsys, monkeypatch, cycle5_path):
    _, agreeing = run_cli(capsys, "lie-check", "--spec", cycle5_path)
    assert "off_block_max" not in json.loads(agreeing)
    # split components, which the full closure of a controllable walk crosses
    report = controllability.analyze(qw.cycle_shift(5))
    split = dataclasses.replace(
        report, components=((0, 1), (2, 3, 4)), m=2, predicted_lie_dim=52
    )
    monkeypatch.setattr(lie_closure, "analyze", lambda spec: split)
    code, out = run_cli(capsys, "lie-check", "--spec", cycle5_path)
    doc = json.loads(out)
    assert code == 2
    assert list(doc) == [*json.loads(agreeing), "off_block_max", "off_block_at"]
    assert doc["match"] is False and doc["block_diagonal_ok"] is False
    a, b = doc["off_block_at"]
    assert (a % 5 < 2) != (b % 5 < 2)  # the pair straddles the two components
    span = lie_closure._closure(qw.generator_basis(qw.cycle_shift(5)), 1e-9)[2]
    mats = span._columns(np.arange(span.dim), np.arange(10), 10)
    block = np.arange(10) % 5 < 2
    largest = np.abs(mats[:, block[:, None] != block[None, :]]).max()
    assert doc["off_block_max"] == pytest.approx(largest, rel=1e-11)
    assert np.abs(mats[:, a, b]).max() == pytest.approx(largest, rel=1e-11)


def test_lie_check_cap(capsys, tmp_path):
    path = tmp_path / "torus.json"
    json_io.write_json(json_io.spec_to_dict(qw.torus(3, 3)), str(path))
    code, out = run_cli(capsys, "lie-check", "--spec", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "CapExceededError"


def test_synthesize_then_simulate(capsys, tmp_path, cycle5_path):
    c5 = qw.cycle_shift(5)
    rng = np.random.default_rng(7)
    psi1 = qw.basis_state(c5, 0, 0)
    psi2 = random_walk_state(rng, c5)
    p1, p2 = tmp_path / "psi1.json", tmp_path / "psi2.json"
    json_io.write_json(json_io.state_to_dict(psi1), str(p1))
    json_io.write_json(json_io.state_to_dict(psi2), str(p2))
    seq_path = tmp_path / "seq.json"

    code, out = run_cli(
        capsys,
        "synthesize",
        "--spec", cycle5_path,
        "--state", str(p1),
        "--target", str(p2),
        "--out", str(seq_path),
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["bound"] == 13
    assert len(doc["steps"]) <= 13
    assert doc["achieved_fidelity"] >= 1 - 1e-9

    code, out = run_cli(
        capsys,
        "simulate",
        "--spec", cycle5_path,
        "--state", str(p1),
        "--seq", str(seq_path),
    )
    sim = json.loads(out)
    assert code == 0
    final = json_io.state_from_dict(sim["state"])
    assert qw.state_fidelity(psi2, final) >= 1 - 1e-9
    expected = qw.position_probabilities(psi2)
    assert np.abs(np.array(sim["probabilities"]) - expected).max() < 1e-9


def test_simulate_runs_no_collection(capsys, tmp_path):
    # each read parses and decodes with the collector off, and its parsed
    # tree (about 20,000 lists for this 1.2 MB sequence) is freed by
    # reference count before the collector is back, so no collection
    # scans it afterwards
    spec = qw.torus(7, 9)
    rng = np.random.default_rng(5)
    psi1, psi2 = random_walk_state(rng, spec), random_walk_state(rng, spec)
    paths = [str(tmp_path / name) for name in ("spec.json", "psi1.json", "seq.json")]
    json_io.write_json(json_io.spec_to_dict(spec), paths[0])
    json_io.write_json(json_io.state_to_dict(psi1), paths[1])
    json_io.write_json(json_io.sequence_to_dict(qw.arbitrary_transfer(spec, psi1, psi2)), paths[2])
    argv = ["simulate", "--spec", paths[0], "--state", paths[1], "--seq", paths[2]]
    assert main(argv) == 0  # the first run also builds the shared parser
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(count)
    assert starts == []


def test_usage_error_is_invalid_input(capsys, cycle5_path):
    # an unknown flag is invalid input (1); 2 would read as a failed cross-check
    code = main(["synthesize", "--spec", cycle5_path, "--state", "a.json",
                 "--target", "b.json", "--shortcut"])
    assert code == 1
    # the closure cap and the transfer fidelity tolerance are not settable,
    # nor is the closure tolerance (test_bad_closure_tolerance_is_invalid)
    assert main(["lie-check", "--spec", cycle5_path, "--cap", "30"]) == 1
    assert main(["synthesize", "--spec", cycle5_path, "--state", "a.json",
                 "--target", "b.json", "--tol", "0.1"]) == 1
    # the demo draws its round-trip states with a fixed seed at the default tolerance
    assert main(["demo", "--seed", "0"]) == 1
    assert main(["demo", "--tol", "1e-9"]) == 1
    assert main(["--help"]) == 0


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e3", "0", "1e-9"])
def test_bad_closure_tolerance_is_invalid(capsys, tmp_path, n, tol):
    # lie-check takes no --tol: no rank decision of a walk's closure comes near
    # the tolerance, so another one could only make it fail; a usage error
    # prints no document
    path = tmp_path / "cycle.json"
    json_io.write_json(json_io.spec_to_dict(qw.cycle_shift(n)), str(path))
    assert run_cli(capsys, "lie-check", "--spec", str(path), "--tol", tol) == (1, "")


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_non_unit_input_is_invalid(capsys, tmp_path, cycle5_path, command):
    # a state of norm 1.58 for synthesize, a non-unitary coin for simulate
    c5 = qw.cycle_shift(5)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    json_io.write_json(json_io.state_to_dict(qw.basis_state(c5, 0, 0)), str(good))
    if command == "synthesize":
        amps = [[1.0, 0.0], [1.0, 0.0], [0.5, 0.0], [0.5, 0.0]] + [[0.0, 0.0]] * 6
        json_io.write_json({"d": 2, "n": 5, "amps": amps}, str(bad))
        argv = ["--state", str(good), "--target", str(bad)]
    else:
        blocks = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 5
        blocks[2] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        json_io.write_json({"steps": [{"coins": blocks}]}, str(bad))
        argv = ["--state", str(good), "--seq", str(bad)]
    code, out = run_cli(capsys, command, "--spec", cycle5_path, *argv)
    assert code == 1
    assert json.loads(out)["error"] == "NotUnitError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_overflowing_entries_are_not_unit(capsys, tmp_path, cycle5_path, command):
    # finite entries whose squares overflow: numpy's overflow warning is no
    # traceback (warnings are errors here) and no line before the document
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    json_io.write_json({"d": 2, "n": 5, "amps": _AMPS}, str(good))
    if command == "synthesize":
        json_io.write_json({"d": 2, "n": 5, "amps": [[1e308, 0.0]] + _AMPS[1:]}, str(bad))
        argv, detail = ["--state", str(bad), "--target", str(good)], "state norm inf is not 1"
    else:
        huge = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        json_io.write_json({"steps": [{"coins": [_EYE] * 2 + [huge] + [_EYE] * 2}]}, str(bad))
        argv, detail = ["--state", str(good), "--seq", str(bad)], "coin block at step 0, vertex 2"
    code = main([command, "--spec", cycle5_path, *argv])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == "NotUnitError"
    assert json.loads(out)["detail"].startswith(detail)


_EYE =[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_AMPS = [[1.0, 0.0]] + [[0.0, 0.0]] * 9


@pytest.mark.parametrize(
    "which,doc",
    [
        ("seq", {"steps": [{"coins": [_EYE] * 4 + [[[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}]}),
        ("seq", {"schema": 1}),
        ("seq", {"steps": 3}),
        ("seq", {"steps": [{"coins": "x"}]}),
        ("state", {"n": 5, "amps": _AMPS}),
        ("state", {"d": 2, "n": 5, "amps": [[1.0]] + _AMPS[1:]}),
        # a JSON integer beyond float range: np.asarray raised OverflowError
        ("state", {"d": 2, "n": 5, "amps": [[10 ** 400, 0]] + _AMPS[1:]}),
        ("seq", {"steps": [{"coins": [_EYE] * 4 + [[[[-10 ** 400, 0], [0, 0]], [[0, 0], [1, 0]]]]}]}),
    ],
    ids=["ragged-coins", "missing-steps", "integer-steps", "string-coins", "missing-d", "ragged-amps",
         "huge-integer-amps", "huge-integer-coins"],
)
def test_malformed_sequence_or_state_is_invalid(capsys, tmp_path, cycle5_path, which, doc):
    paths = {"state": tmp_path / "state.json", "seq": tmp_path / "seq.json"}
    json_io.write_json({"d": 2, "n": 5, "amps": _AMPS}, str(paths["state"]))
    json_io.write_json({"steps": [{"coins": [_EYE] * 5}]}, str(paths["seq"]))
    json_io.write_json(doc, str(paths[which]))
    code, out = run_cli(
        capsys, "simulate", "--spec", cycle5_path,
        "--state", str(paths["state"]), "--seq", str(paths["seq"]),
    )
    assert code == 1
    assert json.loads(out)["error"] == "SpecValidationError"


@pytest.mark.parametrize("phase", [3, [1], None, True, {"tag": "mix"}],
                         ids=["number", "list", "null", "bool", "object"])
def test_a_step_phase_must_be_a_string(capsys, tmp_path, cycle5_path, phase):
    state_path, seq_path = tmp_path / "state.json", tmp_path / "seq.json"
    json_io.write_json({"d": 2, "n": 5, "amps": _AMPS}, str(state_path))
    steps = [{"phase": "spread", "coins": [_EYE] * 5}, {"phase": phase, "coins": [_EYE] * 5}]
    seq_path.write_text(json.dumps({"steps": steps}))
    code = main(["simulate", "--spec", cycle5_path, "--state", str(state_path), "--seq", str(seq_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out)["error"] == "SpecValidationError"
    assert json.loads(out)["detail"].startswith('step 1: "phase" must be a string')


_SHEAR = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_NAN = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "steps,error,detail",
    [
        ([[_EYE] * 5, [_EYE] * 2 + [_SHEAR] + [_EYE] * 2], "NotUnitError", "step 1, vertex 2 is not"),
        ([[_EYE] * 4 + [_NAN], [_EYE] * 5], "NotUnitError", "step 0, vertex 4 is not"),
        ([[_EYE] * 5, [_EYE] * 3 + [[[[1.0, 0.0]]]] + [_EYE]], "SpecValidationError", "step 1, vertex 3:"),
        ([[_EYE] * 5, [_EYE] * 5, [_EYE] * 4], "SpecValidationError", "step 2:"),
        ([[[[[1.0, 0.0]] * 3] * 2] * 5] * 2, "DimensionMismatchError", "step 0, vertex 0 has"),
    ],
    ids=["non-unitary", "nan", "misshapen-block", "steps-of-two-shapes", "non-square-blocks"],
)
def test_bad_coin_block_names_its_step_and_vertex(capsys, tmp_path, cycle5_path, steps, error, detail):
    # every step's coins are decoded and checked as one stack; the error
    # still names the step and the vertex at fault
    state_path, seq_path = tmp_path / "state.json", tmp_path / "seq.json"
    json_io.write_json({"d": 2, "n": 5, "amps": _AMPS}, str(state_path))
    seq_path.write_text(json.dumps({"steps": [{"coins": coins} for coins in steps]}))
    code = main(["simulate", "--spec", cycle5_path, "--state", str(state_path), "--seq", str(seq_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert doc["error"] == error and detail in doc["detail"], doc


@pytest.mark.parametrize(
    "state,detail",
    [
        ({"d": 2, "n": 3, "amps": _AMPS[:6]}, "state is 2x3, walk is 2x5"),
        ({"d": -1, "n": -1, "amps": _AMPS[:1]}, "state d must be an integer >= 1, got -1"),
    ],
    ids=["other-walk", "negative-dims"],
)
def test_simulate_refuses_a_state_that_does_not_fit(capsys, tmp_path, cycle5_path, state, detail):
    # a sequence without steps replays nothing, so the state check alone refuses it
    state_path, seq_path = tmp_path / "state.json", tmp_path / "seq.json"
    json_io.write_json(state, str(state_path))
    json_io.write_json({"steps": []}, str(seq_path))
    code = main(["simulate", "--spec", cycle5_path, "--state", str(state_path), "--seq", str(seq_path)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == {"schema": 1, "error": "DimensionMismatchError", "detail": detail}


def test_synthesize_analyzes_the_walk_once(capsys, monkeypatch, tmp_path, cycle5_path):
    calls = []
    covering_level = controllability._covering_level

    def counting_covering_level(spec, starts):
        calls.append(None)
        return covering_level(spec, starts)

    monkeypatch.setattr(controllability, "_covering_level", counting_covering_level)
    c5 = qw.cycle_shift(5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    json_io.write_json(json_io.state_to_dict(qw.basis_state(c5, 0, 0)), str(p1))
    json_io.write_json(json_io.state_to_dict(qw.basis_state(c5, 1, 3)), str(p2))
    code, out = run_cli(
        capsys, "synthesize", "--spec", cycle5_path, "--state", str(p1), "--target", str(p2)
    )
    assert code == 0
    assert json.loads(out)["bound"] == 13
    assert len(calls) == 1


def test_synthesize_not_controllable(capsys, tmp_path, cycle4_path):
    c4 = qw.cycle_shift(4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    json_io.write_json(json_io.state_to_dict(qw.basis_state(c4, 0, 0)), str(p1))
    json_io.write_json(json_io.state_to_dict(qw.basis_state(c4, 0, 1)), str(p2))
    code, out = run_cli(
        capsys, "synthesize", "--spec", cycle4_path, "--state", str(p1), "--target", str(p2)
    )
    assert code == 1
    assert json.loads(out)["error"] == "NotControllableError"


def _figure1_uniform():
    """figure1's uniform spread, whose S^-1 lies on the level-2 set of vertex 0."""
    amps = np.zeros((3, 6))
    amps[0, [0, 1, 2, 3, 5]] = amps[1, 4] = 1 / np.sqrt(6)
    return qw.WalkState(3, 6, amps)


def test_simulate_figure1_uniform_spread(capsys, tmp_path):
    # replaying a three-step spread sequence spreads the walker uniformly
    fig = qw.figure1()
    seq = qw.reach_full_state(fig, 0, 0, _figure1_uniform(), 2)
    spec_path = tmp_path / "figure1.json"
    psi0_path = tmp_path / "psi0.json"
    seq_path = tmp_path / "seq.json"
    json_io.write_json(json_io.spec_to_dict(fig), str(spec_path))
    json_io.write_json(json_io.state_to_dict(qw.basis_state(fig, 0, 0)), str(psi0_path))
    json_io.write_json(json_io.sequence_to_dict(seq), str(seq_path))
    code, out = run_cli(
        capsys,
        "simulate",
        "--spec", str(spec_path),
        "--state", str(psi0_path),
        "--seq", str(seq_path),
    )
    assert code == 0
    probs = np.array(json.loads(out)["probabilities"])
    assert np.abs(probs - 1 / 6).max() < 1e-9


def _text_round_trip(seq):
    return json_io.sequence_from_dict(json.loads(json_io.dumps(json_io.sequence_to_dict(seq))))


def test_replay_survives_rounded_coin_blocks(tmp_path):
    # coin blocks are written rounded to 12 significant digits; replaying
    # many such steps must not drift the state norm past its tolerance
    c5 = qw.cycle_shift(5)
    rng = np.random.default_rng(20)
    state = qw.basis_state(c5, 0, 0)
    for _ in range(40):
        (coin,) = _text_round_trip(qw.ControlSequence((random_coin_op(rng, c5),), ("step",)))
        state = qw.apply_sequence(state, (coin,), c5)
    assert abs(np.linalg.norm(state.amps) - 1) < 1e-12


def test_json_round_trips(tmp_path):
    fig = qw.figure1()
    back = json_io.spec_from_dict(json_io.spec_to_dict(fig))
    assert np.array_equal(np.sort(back.maps, axis=0), np.sort(fig.maps, axis=0))
    rng = np.random.default_rng(0)
    state = random_walk_state(rng, fig)
    back = json_io.state_from_dict(json.loads(json_io.dumps(json_io.state_to_dict(state))))
    assert np.abs(back.amps - state.amps).max() < 1e-11
    seq = qw.reach_full_state(fig, 0, 0, _figure1_uniform(), 2)
    seq2 = _text_round_trip(seq)
    assert seq2.meta == seq.meta
    out1 = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq, fig)
    out2 = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq2, fig)
    assert qw.state_fidelity(out1, out2) > 1 - 1e-9


def test_demo_passes_cross_checks(capsys):
    code, out = run_cli(capsys, "demo")
    assert code == 0
    assert "all cross-checks passed" in out
    assert "figure1 reachable from 0 in exactly 3 steps: [0, 1, 2, 3, 4, 5]" in out
    # the whole table and every line below it, byte for byte
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a2c3332c3e3df87353490e5ee9f9895fffe99ed88bd2b364f2ee1f2d8527ad1f"


def test_analyze_and_reach_bytes_pinned(capsys, tmp_path):
    # exit codes and stdout of analyze and of reach from node 0 at k = 3N,
    # byte for byte, on bench walks: bipartite, not, dense and irregular
    digest = hashlib.sha256()
    walks = [qw.cycle_shift(101), qw.cycle_shift(100), qw.torus(9, 11), qw.complete(20),
             qw.figure1(), qw.cycle_exchange(8)]
    for i, spec in enumerate(walks):
        path = str(tmp_path / f"walk{i}.json")
        json_io.write_json(json_io.spec_to_dict(spec), path)
        for argv in (["analyze"], ["reach", "--node", "0", "--k", str(3 * spec.n)]):
            code, out = run_cli(capsys, *argv, "--spec", path)
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "40a55f17de87db0aeac90b80e8fc2cafcda670eb8b8d824d3b73ab8cd2c9ba98"


def test_every_command_bytes_pinned(capsys, tmp_path):
    # exit codes, stdout and every --out file of validate, lie-check,
    # synthesize, simulate and main's error document, byte for byte.  The
    # i/o and usage errors count by exit code only: their stderr comes from
    # Python and argparse, which word it differently across versions.
    digest = hashlib.sha256()

    def spec_file(name, spec):
        path = tmp_path / f"{name}.json"
        json_io.write_json(json_io.spec_to_dict(spec), str(path))
        return str(path)

    def record(*argv, out=None):
        code, text = run_cli(capsys, *argv, *(["--out", str(out)] if out else []))
        digest.update(f"{code}\n{text}".encode())
        if out is not None and out.is_file():
            digest.update(out.read_bytes())

    self_loop = tmp_path / "self-loop.json"
    json_io.write_json({"n": 4, "perms": [[0, 1, 2, 3], [1, 2, 3, 0]]}, str(self_loop))
    record("validate", "--spec", spec_file("c5", qw.cycle_shift(5)))
    record("validate", "--spec", str(self_loop), out=tmp_path / "validate.json")
    algebra = [qw.cycle_shift(5), qw.cycle_shift(7), qw.cycle_exchange(6), qw.cycle_exchange(8),
               qw.cycle_shift(8), qw.complete(4), qw.figure1(), qw.torus(3, 3)]
    for i, spec in enumerate(algebra):
        record("lie-check", "--spec", spec_file(f"algebra{i}", spec))
    rng = np.random.default_rng(5)
    for name, spec in (("c5", qw.cycle_shift(5)), ("figure1", qw.figure1())):
        path, states = spec_file(name, spec), []
        for which in ("psi1", "psi2"):
            states.append(str(tmp_path / f"{name}-{which}.json"))
            json_io.write_json(json_io.state_to_dict(random_walk_state(rng, spec)), states[-1])
        seq = tmp_path / f"{name}-seq.json"
        record("synthesize", "--spec", path, "--state", states[0], "--target", states[1], out=seq)
        record("simulate", "--spec", path, "--state", states[0], "--seq", str(seq),
               out=tmp_path / f"{name}-final.json")
    record("analyze", "--spec", str(self_loop))
    record("analyze", "--spec", spec_file("c4", qw.cycle_shift(4)), out=tmp_path)  # exit 3
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    for argv in (["analyze", "--spec", str(tmp_path / "missing.json")],
                 ["analyze", "--spec", str(garbage)], ["analyze", "--bogus"]):
        digest.update(f"{main(argv)}\n".encode())
        capsys.readouterr()
    assert digest.hexdigest() == "68e4165724fa541cbe2b8e0f2b2754d4791eb356d9ba57ed341cdfa3158531b8"


def test_out_flag_writes_file(capsys, tmp_path, cycle5_path):
    out_path = tmp_path / "report.json"
    _, printed = run_cli(capsys, "analyze", "--spec", cycle5_path, "--out", str(out_path))
    assert out_path.read_text() == printed


def test_failed_run_writes_its_error_document_to_out(capsys, tmp_path, cycle5_path):
    # a QwalkError's document takes the one print-and---out write, so no
    # stale report survives a failed run; i/o and usage errors write no
    # document and leave --out as it was
    out = tmp_path / "report.json"
    assert run_cli(capsys, "analyze", "--spec", cycle5_path, "--out", str(out))[0] == 0
    self_loop = tmp_path / "self-loop.json"
    json_io.write_json({"n": 4, "perms": [[0, 1, 2, 3], [1, 2, 3, 0]]}, str(self_loop))
    code, printed = run_cli(capsys, "analyze", "--spec", str(self_loop), "--out", str(out))
    assert code == 1 and json.loads(printed)["error"] == "SelfLoopError"
    assert out.read_text() == printed
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    for argv, want in (
        (["--spec", str(tmp_path / "missing.json")], 3),
        (["--spec", str(garbage)], 3),
        (["--spec", cycle5_path, "--bogus"], 1),
    ):
        assert run_cli(capsys, "analyze", *argv, "--out", str(out)) == (want, "")
        assert out.read_text() == printed


def test_simulated_state_feeds_synthesize(capsys, tmp_path):
    # simulate writes its final state with the state writer, which keeps the
    # amplitudes exact: a norm near the edge of NORM_TOL still reads back.
    # The inputs are written by the standard encoder, exact too.
    spec = qw.cycle_shift(5)
    path = tmp_path / "c5.json"
    json_io.write_json(json_io.spec_to_dict(spec), str(path))
    rng = np.random.default_rng(17)
    for i, edge in enumerate([-0.9, 0.9] * 4):
        files = {}
        for name in ("psi1", "psi2"):
            amps = random_walk_state(rng, spec).amps * (1 + edge * qw.walk_core.NORM_TOL)
            files[name] = tmp_path / f"{i}-{name}.json"
            pairs = [[z.real, z.imag] for z in amps.tolist()]
            files[name].write_text(json.dumps({"d": 2, "n": 5, "amps": pairs}))
        seq, final, state = (tmp_path / f"{i}-{name}.json" for name in ("seq", "final", "state"))
        common = ("--spec", str(path), "--state", str(files["psi1"]))
        assert run_cli(capsys, "synthesize", *common, "--target", str(files["psi2"]), "--out", str(seq))[0] == 0
        assert run_cli(capsys, "simulate", *common, "--seq", str(seq), "--out", str(final))[0] == 0
        state.write_text(json.dumps(json.loads(final.read_text())["state"]))
        code, text = run_cli(capsys, "synthesize", "--spec", str(path), "--state", str(state),
                             "--target", str(files["psi1"]))
        assert code == 0 and json.loads(text)["achieved_fidelity"] >= 1 - 1e-9


def test_repeated_main_calls_match_fresh_processes(capsys, tmp_path, cycle5_path):
    # the parser is built once per process and shared by later main calls
    c5 = qw.cycle_shift(5)
    rng = np.random.default_rng(2)
    p1, p2 = tmp_path / "psi1.json", tmp_path / "psi2.json"
    for path in (p1, p2):
        json_io.write_json(json_io.state_to_dict(random_walk_state(rng, c5)), str(path))
    argvs = [
        ["analyze", "--spec", cycle5_path],
        ["synthesize", "--spec", cycle5_path, "--state", str(p1), "--target", str(p2)],
        ["analyze", "--spec", cycle5_path, "--bogus"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "qwalk.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout)
    assert main(argvs[0]) == 0  # a success after the usage error


_DELETE = object()
_CORRUPTIONS = [None, True, False, 1.5, 1e308, -1e308, 2 ** 64, 1e-320, "x", "", "(0 1)",
                [], [[1.0, 0.0], [0.0]], {}, {"a": 1}, _DELETE]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A cycle_shift(5) spec, two states and a synthesized sequence between
    them, as parsed JSON, with the commands that read each (``{...}`` is
    a path)."""
    work = tmp_path_factory.mktemp("documents")
    c5 = qw.cycle_shift(5)
    paths = {name: str(work / f"{name}.json") for name in ("spec", "state", "target", "seq")}
    json_io.write_json(json_io.spec_to_dict(c5), paths["spec"])
    rng = np.random.default_rng(3)
    for name in ("state", "target"):
        json_io.write_json(json_io.state_to_dict(random_walk_state(rng, c5)), paths[name])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synthesize", "--spec", paths["spec"], "--state", paths["state"],
                     "--target", paths["target"], "--out", paths["seq"]]) == 0
    docs = {name: json.loads(Path(path).read_text()) for name, path in paths.items()}
    synthesize = ["synthesize", "--spec", "{spec}", "--state", "{state}", "--target", "{target}"]
    simulate = ["simulate", "--spec", "{spec}", "--state", "{state}", "--seq", "{seq}"]
    readers = {
        "spec": [["validate", "--spec", "{spec}"], ["analyze", "--spec", "{spec}"],
                 ["reach", "--spec", "{spec}", "--node", "0", "--k", "3"],
                 ["lie-check", "--spec", "{spec}"], synthesize, simulate],
        "state": [synthesize, simulate],
        "target": [synthesize],
        "seq": [simulate],
    }
    return work, docs, readers


def _places(node, at=()):
    """Every entry of a parsed document, as its path of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _places(child, at + (key,))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_documents_never_raise(documents, data):
    # one entry replaced, or one key or item deleted, in one document, read
    # by every command that reads it: a named error (exit 1) or an i/o
    # error (exit 3), never an exception or a RuntimeWarning
    work, docs, readers = documents
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    *at, key = data.draw(st.sampled_from(list(_places(doc))))
    node = doc
    for step in at:
        node = node[step]
    value = data.draw(st.sampled_from(_CORRUPTIONS))
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    paths = {other: str(work / f"{other}.json") for other in docs}
    paths[name] = str(work / "corrupted.json")
    Path(paths[name]).write_text(json.dumps(doc))
    for argv in readers[name]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([arg.format(**paths) for arg in argv]) in (0, 1, 2, 3)
