"""Outside-in tracing of qwalk's public functions.

A ``Tracer`` replaces module attributes with wrappers that record one span
per call: (name, start, end, parent index, op id).  A function imported
under the same name into several modules (``analyze`` lives in
``controllability``, ``lie_closure``, ``synthesis``, ``cli`` and the package
itself) is replaced in every module that binds it, and calls inside the
defining module resolve through its global, so every call is seen.  Spans
stay in memory until the run writes them out once.  Nothing under ``src/``
is modified; ``restore`` puts the original attributes back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# Public functions timed per module.  "CoinOp" stands for CoinOp.__post_init__,
# which runs the per-block unitarity check on every construction.
TARGETS = {
    "controllability": (
        "analyze",
        "verdicts_agree",
        "reduced_connectivity_graph",
        "connected_components",
        "kappa",
        "k_of",
        "parity_check",
        "joint_orbit",
        "reachable_sets",
    ),
    "lie_closure": ("verify_structure", "generator_basis"),
    "synthesis": (
        "arbitrary_transfer",
        "concentrate_to_node",
        "spread_from_node",
        "reach_full_state",
        "unitary_completion",
    ),
    "walk_core": ("step", "apply_sequence", "shift_order", "CoinOp"),
    "json_io": (
        "read_json",
        "spec_from_dict",
        "state_from_dict",
        "sequence_from_dict",
        "sequence_to_dict",
        "state_to_dict",
        "report_to_dict",
        "dumps",
    ),
    "graph_model": ("validate",),
    "cli": ("main",),
}

# Counters derived from return values, summed over a run.
COUNTERS = (
    "lie_closure.dim",
    "lie_closure.iterations",
    "lie_closure.generators",
    "synthesis.steps",
    "synthesis.pad_steps",
    "json_io.bytes_in",
    "json_io.bytes_out",
    "cli.stdout_bytes",
)


def _count_result(counts: Counter, name: str, args, result) -> None:
    if name == "lie_closure.verify_structure":
        counts["lie_closure.dim"] += result.dim
        counts["lie_closure.iterations"] += result.iterations
    elif name == "lie_closure.generator_basis":
        counts["lie_closure.generators"] += len(result.mats)
    elif name == "synthesis.arbitrary_transfer":
        counts["synthesis.steps"] += len(result)
        counts["synthesis.pad_steps"] += sum(tag == "pad" for tag in result.meta)
    elif name == "json_io.read_json":
        counts["json_io.bytes_in"] += os.stat(args[0]).st_size
    elif name == "json_io.dumps":
        counts["json_io.bytes_out"] += len(result)  # ASCII: characters are bytes


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            _count_result(self.counts, name, args, result)
            return result

        return wrapper

    def install(self, package: str = "qwalk") -> None:
        """Wrap every target in every loaded module of ``package``."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for short, funcs in TARGETS.items():
            home = sys.modules.get(f"{package}.{short}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    continue  # gone in this version; reported as zero calls
                name = f"{short}.{func}"
                if isinstance(original, type):
                    self._patch(original, "__post_init__", self.wrap(name, original.__post_init__))
                    continue
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(spans: list) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time)."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}


def span_names() -> list[str]:
    return [f"{short}.{func}" for short, funcs in TARGETS.items() for func in funcs]
