"""Batch command-line surface.

Exit codes: 0 success, 1 validation or usage error, 2 cross-check disagreement
(criteria verdicts or closure dimension), 3 I/O failure.  All reports go to
standard output as JSON except `demo`, which prints a fixed-width table.
Each ``cmd_*`` returns (document, exit code), and ``main`` writes the
document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import json_io
from .controllability import analyze, k_of, reachable_sets
from .errors import CapExceededError, QwalkError
from .graph_model import complete, cycle_exchange, cycle_shift, figure1, torus
from .lie_closure import DEFAULT_TOL, verify_structure
from .synthesis import TargetSpread, arbitrary_transfer, spread_from_node
from .walk_core import (
    WalkState, apply_sequence, basis_state, position_probabilities, shift_order, state_fidelity)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_IO = 3

FIDELITY_TOL = 1e-9


def _load_spec(path: str):
    return json_io.read_json(path, json_io.spec_from_dict)


def cmd_validate(args) -> tuple[dict, int]:
    try:
        spec = _load_spec(args.spec)
    except QwalkError as exc:
        return {"valid": False, "error": type(exc).__name__, "detail": str(exc)}, EXIT_INVALID
    return {"valid": True, "n": spec.n, "d": spec.d, "shift_order": shift_order(spec)}, EXIT_OK


def cmd_analyze(args) -> tuple[dict, int]:
    report = analyze(_load_spec(args.spec))
    return json_io.report_to_dict(report), EXIT_OK if report.verdicts_agree else EXIT_MISMATCH


def cmd_reach(args) -> tuple[dict, int]:
    sets = reachable_sets(_load_spec(args.spec), args.node, args.k)
    return {"node": args.node, "sets": [sorted(s) for s in sets]}, EXIT_OK


def cmd_lie_check(args) -> tuple[dict, int]:
    result = verify_structure(_load_spec(args.spec), tol=args.tol)
    doc = {
        "dim": result.dim,
        "predicted": result.predicted,
        "match": result.match,
        "iterations": result.iterations,
        "block_diagonal_ok": result.block_diagonal_ok,
    }
    if result.off_block is not None:
        worst, a, b = result.off_block
        doc["off_block_max"] = json_io.round_float(worst)
        doc["off_block_at"] = [a, b]
    ok = result.match and result.block_diagonal_ok
    return doc, EXIT_OK if ok else EXIT_MISMATCH


def cmd_synthesize(args) -> tuple[dict, int]:
    spec = _load_spec(args.spec)
    psi1 = json_io.read_json(args.state, json_io.state_from_dict)
    psi2 = json_io.read_json(args.target, json_io.state_from_dict)
    seq = arbitrary_transfer(spec, psi1, psi2)
    fidelity = state_fidelity(psi2, apply_sequence(psi1, seq, spec))
    doc = {
        **json_io.sequence_to_dict(seq),
        "bound": seq.bound,
        "achieved_fidelity": json_io.round_float(fidelity),
    }
    return doc, EXIT_OK if fidelity >= 1.0 - FIDELITY_TOL else EXIT_MISMATCH


def cmd_simulate(args) -> tuple[dict, int]:
    spec = _load_spec(args.spec)
    state = json_io.read_json(args.state, json_io.state_from_dict)
    seq = json_io.read_json(args.seq, json_io.sequence_from_dict)
    final = apply_sequence(state, seq, spec)
    doc = {
        "steps": len(seq),
        "state": json_io.state_to_dict(final),
        "probabilities": [json_io.round_float(p) for p in position_probabilities(final)],
    }
    return doc, EXIT_OK


def _demo_gallery():
    walks = []
    for n in range(3, 9):
        walks.append((f"cycle_shift({n})", cycle_shift(n)))
        if n % 2 == 0:
            walks.append((f"cycle_exchange({n})", cycle_exchange(n)))
    walks.append(("figure1", figure1()))
    walks.append(("complete(4)", complete(4)))
    walks.append(("torus(3,3)", torus(3, 3)))
    return walks


def cmd_demo(args) -> tuple[None, int]:
    rows = []
    failures = []
    for name, spec in _demo_gallery():
        report = analyze(spec)
        try:
            closure = verify_structure(spec)
        except CapExceededError:
            dim = "-"
        else:
            dim = str(closure.dim)
            if not (closure.match and closure.block_diagonal_ok):
                failures.append(f"{name}: closure dim {closure.dim} != predicted "
                                f"{closure.predicted} or block structure broken")
        if not report.verdicts_agree:
            failures.append(f"{name}: criteria disagree")
        rows.append((
            name, spec.n, spec.d, shift_order(spec), report.m,
            "yes" if report.controllable else "no", report.predicted_lie_dim, dim,
            "-" if report.kappa is None else str(report.kappa),
            "-" if report.step_bound is None else str(report.step_bound),
            "yes" if report.verdicts_agree else "no",
        ))

    hdr = ("walk", "n", "d", "r", "m", "ctrl", "dim_pred", "dim", "kappa", "bound", "agree")
    widths = [max(len(str(row[i])) for row in rows + [hdr]) for i in range(len(hdr))]
    for row in [hdr] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())

    fig = figure1()
    sets = reachable_sets(fig, 0, 3)
    print()
    for k, s in enumerate(sets[1:], start=1):
        print(f"figure1 reachable from 0 in exactly {k} steps: {sorted(s)}")
    if sets[1] != {1, 3, 5} or sets[2] != {0, 1, 2, 4, 5} or sets[3] != set(range(6)):
        failures.append("figure1: reachable sets differ from the expected table")
    if k_of(fig, 0) != 3:
        failures.append("figure1: covering step count at vertex 0 is not 3")

    # three-step uniform spread on figure1: every node probability must be 1/6
    target = TargetSpread(tuple(range(6)), np.full(6, 1 / np.sqrt(6)))
    seq, _ = spread_from_node(fig, 0, 0, target, 3)
    probs = position_probabilities(apply_sequence(basis_state(fig, 0, 0), seq, fig))
    print(f"figure1 uniform 3-step spread node probabilities: "
          f"{[format(p, '.6f') for p in probs]}")
    if np.abs(probs - 1 / 6).max() > 1e-9:
        failures.append("figure1: uniform spread probabilities deviate from 1/6")

    # round-trip transfer between two random 5-cycle states from a fixed seed
    rng = np.random.default_rng(0)
    c5 = cycle_shift(5)
    psi_a, psi_b = (WalkState(2, 5, v / np.linalg.norm(v))
                    for v in (re + 1j * im for re, im in rng.standard_normal((2, 2, 10))))
    there = arbitrary_transfer(c5, psi_a, psi_b)
    back = arbitrary_transfer(c5, psi_b, psi_a)
    rt = state_fidelity(psi_a, apply_sequence(apply_sequence(psi_a, there, c5), back, c5))
    print(f"cycle_shift(5) random round trip: {len(there)}+{len(back)} steps, "
          f"fidelity {rt:.12f}")
    if rt < 1.0 - 2 * FIDELITY_TOL:  # two transfers
        failures.append("cycle_shift(5): round-trip fidelity below threshold")

    if failures:
        print()
        for f in failures:
            print(f"CROSS-CHECK FAILED: {f}")
        return None, EXIT_MISMATCH
    print("\nall cross-checks passed")
    return None, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls:
    parsing leaves it unchanged, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Coined quantum walks: validation, controllability, synthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--spec", required=True, help="walk spec JSON path")
        p.add_argument("--out", help="also write the JSON report to this path")
        return p

    add_command("validate", cmd_validate, "check a walk spec file")
    add_command("analyze", cmd_analyze, "controllability report")

    p = add_command("reach", cmd_reach, "exact reachable sets from a node")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add_command("lie-check", cmd_lie_check, "closure dimension vs structure prediction")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add_command("synthesize", cmd_synthesize, "coin sequence steering one state to another")
    p.add_argument("--state", required=True, help="initial state JSON path")
    p.add_argument("--target", required=True, help="target state JSON path")

    p = add_command("simulate", cmd_simulate, "replay a coin sequence")
    p.add_argument("--state", required=True)
    p.add_argument("--seq", required=True)

    demo = sub.add_parser("demo", help="built-in gallery with cross-checks")
    demo.set_defaults(run=cmd_demo, out=None)
    return parser


def main(argv=None) -> int:
    """Run one command, print its document with "schema" first and, with
    ``--out``, write the same text to that path; a QwalkError's document
    takes the same write.  A usage error or an OSError on an input writes
    no document and leaves ``--out`` as it was; every OSError exits 3."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_INVALID if exc.code == 2 else exc.code
    try:
        try:
            doc, code = args.run(args)
        except QwalkError as exc:
            doc, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_INVALID
        if doc is not None:
            text = json_io.dumps({"schema": json_io.SCHEMA_VERSION, **doc})
            print(text)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    print(text, file=fh)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"i/o error: cannot parse JSON: {exc}", file=sys.stderr)
        code = EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
