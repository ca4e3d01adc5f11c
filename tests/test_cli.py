"""Command-line surface: exit codes, JSON schemas, determinism."""

import json

import numpy as np
import pytest

import qwalk as qw
from qwalk import controllability, json_io
from qwalk.cli import main
from qwalk.sampling import random_walk_state


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
    path = tmp_path / "bad.json"
    json_io.write_json({"n": 5, "perms": [cycle, [4, 0, 1, 2, 3]]}, str(path))
    code, out = run_cli(capsys, "validate", "--spec", str(path))
    doc = json.loads(out)
    assert code == 1
    assert doc["valid"] is False and doc["error"] == "SpecValidationError"


@pytest.mark.parametrize(
    "text,error",
    [
        ('{"perms": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}', "SpecValidationError"),
        ('[5, [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]]', "SpecValidationError"),
        ('{"n": "x", "perms": [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}', "SpecValidationError"),
        ('{"n": 5, "perms": [[1.5, 2, 3, 4, 0], [4, 0, 1, 2, 3]]}', "NotBijectionError"),
    ],
    ids=["missing-n", "top-level-list", "string-n", "fractional-image"],
)
def test_malformed_spec_is_invalid(capsys, tmp_path, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    code, out = run_cli(capsys, "analyze", "--spec", str(path))
    assert code == 1
    assert json.loads(out)["error"] == error


def test_missing_file_is_io_error(capsys):
    assert main(["analyze", "--spec", "/nonexistent/x.json"]) == 3


def test_unparsable_json_is_io_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["analyze", "--spec", str(path)]) == 3


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


def test_lie_check(capsys, cycle4_path):
    code, out = run_cli(capsys, "lie-check", "--spec", cycle4_path)
    doc = json.loads(out)
    assert code == 0
    assert doc["dim"] == doc["predicted"] == 32
    assert doc["match"] is True and doc["block_diagonal_ok"] is True


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


def test_usage_error_is_invalid_input(capsys, cycle5_path):
    # an unknown flag is invalid input (1); 2 would read as a failed cross-check
    code = main(["synthesize", "--spec", cycle5_path, "--state", "a.json",
                 "--target", "b.json", "--shortcut"])
    assert code == 1
    # the closure cap and the transfer fidelity tolerance are not settable
    assert main(["lie-check", "--spec", cycle5_path, "--cap", "30"]) == 1
    assert main(["synthesize", "--spec", cycle5_path, "--state", "a.json",
                 "--target", "b.json", "--tol", "0.1"]) == 1
    # the demo draws its round-trip states with a fixed seed at the default tolerance
    assert main(["demo", "--seed", "0"]) == 1
    assert main(["demo", "--tol", "1e-9"]) == 1
    assert main(["--help"]) == 0


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e3", "0"])
def test_bad_closure_tolerance_is_invalid(capsys, tmp_path, n, tol):
    # a tolerance outside (0, 1) made NaN basis rows or an empty span before
    path = tmp_path / "cycle.json"
    json_io.write_json(json_io.spec_to_dict(qw.cycle_shift(n)), str(path))
    code, out = run_cli(capsys, "lie-check", "--spec", str(path), "--tol", tol)
    assert code == 1
    assert json.loads(out)["error"] == "ToleranceDegenerateError"


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


_EYE = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
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
    ],
    ids=["ragged-coins", "missing-steps", "integer-steps", "string-coins", "missing-d", "ragged-amps"],
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


def test_synthesize_analyzes_the_walk_once(capsys, monkeypatch, tmp_path, cycle5_path):
    calls = []
    kappa = controllability.kappa

    def counting_kappa(spec):
        calls.append(None)
        return kappa(spec)

    monkeypatch.setattr(controllability, "kappa", counting_kappa)
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


def test_simulate_figure1_uniform_spread(capsys, tmp_path):
    # replaying a three-step spread sequence spreads the walker uniformly
    fig = qw.figure1()
    target = qw.TargetSpread(tuple(range(6)), np.full(6, 1 / np.sqrt(6)))
    seq, _ = qw.spread_from_node(fig, 0, 0, target, 3)
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
    from qwalk.sampling import random_coin_op

    for _ in range(40):
        (coin,) = _text_round_trip(qw.ControlSequence((random_coin_op(rng, c5),), ("step",)))
        state = qw.step(state, coin, c5)
    assert abs(np.linalg.norm(state.amps) - 1) < 1e-12


def test_json_round_trips(tmp_path):
    fig = qw.figure1()
    assert json_io.spec_from_dict(json_io.spec_to_dict(fig)).adjacency.tolist() == (
        fig.adjacency.tolist()
    )
    rng = np.random.default_rng(0)
    state = random_walk_state(rng, fig)
    back = json_io.state_from_dict(json.loads(json_io.dumps(json_io.state_to_dict(state))))
    assert np.abs(back.amps - state.amps).max() < 1e-11
    target = qw.TargetSpread(tuple(range(6)), np.full(6, 1 / np.sqrt(6)))
    seq, _ = qw.spread_from_node(fig, 0, 0, target, 3)
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


def test_out_flag_writes_file(capsys, tmp_path, cycle5_path):
    out_path = tmp_path / "report.json"
    _, printed = run_cli(capsys, "analyze", "--spec", cycle5_path, "--out", str(out_path))
    assert out_path.read_text() == printed
