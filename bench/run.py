"""The qwalk benchmark: seeded workloads run through ``qwalk.cli.main``.

    python3 bench/run.py --workload control --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in this process: every op is
one or two in-process ``cli.main(argv)`` calls on spec and state files in a
temporary directory, with stdout captured.  Ops run in whole rounds (each
walk of the workload once) so every walk carries the same weight in the
latency quantiles.  Every output is checked by ``oracle``, which does not
use qwalk; a failed op still counts in latency and makes the exit code 1.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; latencies there are relative to a reference loop timed
before each op (see ``end_to_end``).  With ``--trace 1`` the same rounds run once untraced and
once traced by ``spans.Tracer``; the JSON then holds per-op call counts and
self times of every wrapped function, the counters, and the tracing overhead.
Spans and a per-run record (metadata, per-op latency and stdout sha256) are
written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread keeps the small products steady on a shared machine; set
# these variables beforehand to measure something else.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # so that at least ten latencies lie beyond p90
SETUP_REPEATS = 15
REFERENCE_ITERATIONS = 100_000


@dataclass
class OpRecord:
    walk: str
    round: int
    latency_s: float
    problems: list
    sha256: str
    stdout_bytes: int
    steps: int | None = None
    ref_s: float = 0.0


@dataclass
class Context:
    workload: str
    seed: int
    cli: object
    walks: list
    expected: dict
    work: Path


def load_qwalk():
    """Import qwalk and its CLI from this checkout's ``src``, fresh."""
    for key in [k for k in sys.modules if k == "qwalk" or k.startswith("qwalk.")]:
        del sys.modules[key]
    qwalk = importlib.import_module("qwalk")
    if Path(qwalk.__file__).resolve().parent != SRC / "qwalk":
        raise ImportError(f"qwalk was imported from {qwalk.__file__}, not from {SRC}")
    return qwalk, importlib.import_module("qwalk.cli")


def setup(workload: str, seed: int, work: Path):
    """Import qwalk, build and validate the walks, write the spec files.

    Repeated SETUP_REPEATS times, each into a fresh directory and after
    collecting the previous repetition's modules; returns the median
    duration and the last repetition's modules and walks.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        qwalk, cli = load_qwalk()
        walks = inputs.build_walks(workload, seed)
        for walk in walks:
            qwalk.validate(walk.n, walk.perms)
        inputs.write_specs(walks, work / f"setup{rep}")
        times.append(time.perf_counter() - start)
    return statistics.median(times), cli, walks


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, the host's speed just now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def call(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_op(ctx: Context, walk_index: int, round_no: int) -> OpRecord:
    """One timed op.  Transfer state files are written before the clock
    starts; the output check runs after it stops."""
    walk = ctx.walks[walk_index]
    spec = str(walk.spec_path)
    if ctx.workload == "transfer":
        pair = inputs.state_pair(ctx.seed, walk_index, round_no, walk.d * walk.n)
        state, target, seq = (str(ctx.work / name) for name in ("psi1.json", "psi2.json", "seq.json"))
        for amps, path in zip(pair, (state, target)):
            inputs.write_state(walk, amps, Path(path))
        argvs = [
            ["synthesize", "--spec", spec, "--state", state, "--target", target, "--out", seq],
            ["simulate", "--spec", spec, "--state", state, "--seq", seq],
        ]
    else:
        command = "analyze" if ctx.workload == "control" else "lie-check"
        argvs = [[command, "--spec", spec]]

    ref_s = reference_loop()
    results, error = [], None
    start = time.perf_counter()
    try:
        for argv in argvs:
            results.append(call(ctx.cli, argv))
            if results[-1][0] != 0:
                break
    except Exception:  # noqa: BLE001 - a crashing op is a failed op, not a crashed run
        error = traceback.format_exc(limit=3)
    latency = time.perf_counter() - start

    stdout = "".join(text for _, text in results)
    record = OpRecord(
        walk=walk.name,
        round=round_no,
        latency_s=latency,
        problems=[],
        sha256=hashlib.sha256(stdout.encode()).hexdigest(),
        stdout_bytes=len(stdout),
        ref_s=ref_s,
    )
    if error is not None:
        record.problems.append(f"exception: {error}")
    elif len(results) < len(argvs) or any(code != 0 for code, _ in results):
        record.problems.append(f"exit codes {[code for code, _ in results]}")
    else:
        docs = [json.loads(text) for _, text in results]
        exp = ctx.expected[walk.name]
        if ctx.workload == "control":
            record.problems = oracle.check_analyze(docs[0], exp)
        elif ctx.workload == "algebra":
            record.problems = oracle.check_lie(docs[0], exp)
        else:
            record.steps = len(docs[0].get("steps", ()))
            record.problems = oracle.check_transfer(docs[0], docs[1], *pair, walk.perms, exp)
    return record


def run_round(ctx: Context, round_no: int, tracer=None, first_op: int = 0) -> list[OpRecord]:
    """Each walk of the workload once; spans get op ids from ``first_op`` on."""
    records = []
    for walk_index in range(len(ctx.walks)):
        if tracer is not None:
            tracer.op_id = first_op + walk_index
        record = run_op(ctx, walk_index, round_no)
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += record.stdout_bytes
        records.append(record)
    return records


def timed_run(ctx: Context, seconds: float) -> list[OpRecord]:
    """Whole rounds until ``seconds`` of loop time have passed and at least
    MIN_OPS ops ran."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < MIN_OPS:
        records += run_round(ctx, len(records) // len(ctx.walks))
    return records


def traced_run(ctx: Context, seconds: float, tracer: spans.Tracer):
    """Every round once untraced, then once traced on the same inputs, so
    that drift in machine speed falls on both sides of the overhead."""
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        round_no = len(plain) // len(ctx.walks)
        plain += run_round(ctx, round_no)
        tracer.install()
        try:
            traced += run_round(ctx, round_no, tracer, first_op=len(traced))
        finally:
            tracer.restore()
    return plain, traced


def metadata() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {
            var: os.environ.get(var)
            for var in ("QWALK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def end_to_end(setup_s: float, records: list[OpRecord]) -> tuple[dict, dict]:
    """Gated metrics and the raw figures shown as text.

    The host's speed drifts by 15 to 30% over minutes, which moves raw
    latencies of every run alike.  Each op's latency is therefore also
    divided by the reference loop timed just before it; these relative
    latencies (unit "ref") are what the result line carries.
    """
    lat = [r.latency_s for r in records]
    rel = [r.latency_s / r.ref_s for r in records]
    gated = {
        "setup_s": (setup_s, "s"),
        "op_mean_ref": (statistics.fmean(rel), "ref"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    shown = {
        "op_p90_ref": (statistics.quantiles(rel, n=10)[8], "ref"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "reference_s": (statistics.median(r.ref_s for r in records), "s"),
    }
    return gated, shown


def per_layer(tracer: spans.Tracer, ops: int, overhead_s: float) -> dict:
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for name in spans.span_names():
        calls, own = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "count/op")
        metrics[f"{name}.self_s"] = (own / ops, "s/op")
    units = {"json_io.bytes_in": "B/op", "json_io.bytes_out": "B/op", "cli.stdout_bytes": "B/op"}
    for name in spans.COUNTERS:
        metrics[name] = (tracer.counts[name] / ops, units.get(name, "count/op"))
    steps = tracer.counts["synthesis.steps"]
    metrics["synthesis.pad_ratio"] = (tracer.counts["synthesis.pad_steps"] / steps if steps else 0.0, "1")
    metrics["trace.overhead_s"] = (overhead_s / ops, "s/op")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{tag}-") as tmp:
        work = Path(tmp)
        try:
            setup_s, cli, walks = setup(args.workload, args.seed, work)
        except ImportError as exc:
            print(f"bench: cannot import qwalk from {SRC}: {exc}", file=sys.stderr)
            return 2
        expected = {w.name: oracle.expect(w.n, w.perms) for w in walks}
        ctx = Context(args.workload, args.seed, cli, walks, expected, work)
        run_op(ctx, 0, 0)  # untimed warm-up

        if args.trace:
            tracer = spans.Tracer()
            plain, traced = traced_run(ctx, args.seconds, tracer)
            tracer.write(OUT / f"spans-{tag}.jsonl")
            overhead = sum(r.latency_s for r in traced) - sum(r.latency_s for r in plain)
            records = plain + traced
            metrics, extra = per_layer(tracer, len(traced), overhead), {}
        else:
            records = timed_run(ctx, args.seconds)
            metrics, extra = end_to_end(setup_s, records)

    # Text only as well: the result line carries no metric that reads 0 on a
    # correct program or that only one workload has.
    failed = [r for r in records if r.problems]
    extra["fail_ratio"] = (len(failed) / len(records), "1")
    steps = [r.steps for r in records if r.steps is not None]
    if steps:
        extra["steps_per_transfer"] = (statistics.fmean(steps), "steps")
    meta = metadata()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)} in {len(records) // len(walks)} rounds of {len(walks)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for r in failed[:5]:
        print(f"FAILED {r.walk} round {r.round}: {'; '.join(r.problems)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "ops": [vars(r) for r in records],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
