"""Tests of the benchmark's own pieces: oracle, span self times, inputs.

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from qwalk import cli  # noqa: E402
from qwalk.lie_closure import DEFAULT_DIM_CAP  # noqa: E402

GALLERY = cli._demo_gallery()


def _cli_doc(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return json.loads(out.getvalue())


def _spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": spec.n, "perms": [p.map.tolist() for p in spec.perms]}))
    return str(path)


@pytest.mark.parametrize("name,spec", GALLERY, ids=[name for name, _ in GALLERY])
def test_oracle_agrees_with_analyze_and_lie_check(tmp_path, name, spec):
    exp = oracle.expect(spec.n, [p.map.copy() for p in spec.perms])
    path = _spec_file(tmp_path, spec)
    assert oracle.check_analyze(_cli_doc(["analyze", "--spec", path]), exp) == []
    if spec.d * spec.n <= DEFAULT_DIM_CAP:
        assert oracle.check_lie(_cli_doc(["lie-check", "--spec", path]), exp) == []


def test_oracle_reports_a_wrong_verdict():
    exp = oracle.expect(5, inputs.cycle_shift(5))
    doc = {"m": 1, "components": [[0, 1, 2, 3, 4]], "controllable": True,
           "predicted_lie_dim": 100, "kappa": 3, "step_bound": 11, "verdicts_agree": True}
    assert oracle.check_analyze(doc, exp) == [
        "kappa: got 3, expected 4",
        "step_bound: got 11, expected 13",
    ]


def test_oracle_replay_matches_transfer(tmp_path):
    walk = inputs.build_walks("transfer", seed=3)[0]
    inputs.write_specs([walk], tmp_path)
    psi1, psi2 = inputs.state_pair(3, 0, 0, walk.d * walk.n)
    state, target, seq = (str(tmp_path / name) for name in ("a.json", "b.json", "seq.json"))
    inputs.write_state(walk, psi1, Path(state))
    inputs.write_state(walk, psi2, Path(target))
    spec = str(walk.spec_path)
    seq_doc = _cli_doc(["synthesize", "--spec", spec, "--state", state, "--target", target,
                        "--out", seq])
    sim_doc = _cli_doc(["simulate", "--spec", spec, "--state", state, "--seq", seq])
    exp = oracle.expect(walk.n, walk.perms)
    assert oracle.check_transfer(seq_doc, sim_doc, psi1, psi2, walk.perms, exp) == []
    assert oracle.check_transfer(seq_doc, sim_doc, psi2, psi1, walk.perms, exp) != []


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has two
    # overlapping children [6, 8] and [7.5, 8.5], which cover 2.5 of it.
    tree = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 6.0, 8.0, 2, 0),
        ("d", 7.5, 8.5, 2, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 1.5, 2.0, 1.0, 1.0])
    assert spans.layer_totals(tree)["root"] == (2, pytest.approx(4.0))


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    from qwalk import controllability, lie_closure, walk_core

    original = controllability.analyze
    post_init = walk_core.CoinOp.__post_init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.analyze is lie_closure.analyze is controllability.analyze
        assert controllability.analyze is not original
        _cli_doc(["analyze", "--spec", _spec_file(tmp_path, GALLERY[0][1])])
    finally:
        tracer.restore()
    assert cli.analyze is lie_closure.analyze is controllability.analyze is original
    assert walk_core.CoinOp.__post_init__ is post_init
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    assert names.count("controllability.analyze") == 1
    assert all(span[3] >= 0 for span in tracer.spans[1:])


def _input_bytes(workload, seed, dest):
    walks = inputs.build_walks(workload, seed)
    inputs.write_specs(walks, dest)
    for index, walk in enumerate(walks):
        for round_no in range(2):
            pair = inputs.state_pair(seed, index, round_no, walk.d * walk.n)
            for side, amps in zip("ab", pair):
                inputs.write_state(walk, amps, dest / f"{index}-{round_no}-{side}.json")
    return {p.name: p.read_bytes() for p in sorted(dest.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _input_bytes(workload, 7, tmp_path / "a")
    assert first == _input_bytes(workload, 7, tmp_path / "b")
    assert first != _input_bytes(workload, 8, tmp_path / "c")


def test_relabeling_keeps_shift_order_kappa_and_dimension():
    rng = np.random.default_rng(0)
    perms = inputs.mixed_cycles(rng, (3, 4, 5, 7, 11))
    base = oracle.expect(30, perms)
    assert base.r == 4620
    for _ in range(3):
        exp = oracle.expect(30, inputs.relabel(perms, rng.permutation(30)))
        assert (exp.r, exp.kappa, exp.predicted_dim) == (base.r, base.kappa, base.predicted_dim)
