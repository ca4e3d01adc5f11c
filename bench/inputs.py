"""Seeded benchmark inputs, built with numpy and networkx only.

Every walk is a list of one-line permutation arrays (``perms[i][j]`` is the
image of vertex ``j`` under ``P_i``) after a seeded random vertex
relabeling, which keeps the shift order, kappa and the cost of every
criterion fixed while changing the bytes the program sees.  Nothing here
imports ``qwalk``, so a change to the package cannot change its inputs.
The same seed gives byte-identical input files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

WORKLOADS = ("control", "algebra", "transfer")


@dataclass
class Walk:
    name: str
    n: int
    perms: list
    spec_path: Path | None = None

    @property
    def d(self) -> int:
        return len(self.perms)


def cycle_shift(n: int) -> list:
    idx = np.arange(n)
    return [(idx + 1) % n, (idx - 1) % n]


def cycle_exchange(n: int) -> list:
    idx = np.arange(n)
    return [idx ^ 1, np.where(idx % 2 == 1, (idx + 1) % n, (idx - 1) % n)]


def complete(n: int) -> list:
    idx = np.arange(n)
    return [(idx + k) % n for k in range(1, n)]


def figure1() -> list:
    return [
        np.array([1, 2, 3, 4, 5, 0]),
        np.array([5, 0, 1, 2, 3, 4]),
        np.array([3, 5, 4, 0, 2, 1]),
    ]


def torus(n1: int, n2: int) -> list:
    """Cartesian product of two cycles; vertex (j, k) is j * n2 + k."""
    j, k = np.divmod(np.arange(n1 * n2), n2)
    return [
        ((j + 1) % n1) * n2 + k,
        ((j - 1) % n1) * n2 + k,
        j * n2 + (k + 1) % n2,
        j * n2 + (k - 1) % n2,
    ]


def mixed_cycles(rng: np.random.Generator, lengths) -> list:
    """P1 with disjoint cycles of the given lengths, P2 = P1^-1 and P3 a
    perfect matching that avoids the cycle edges and connects the graph.

    The shift order is the lcm of the lengths, which grows much faster than
    the vertex count.
    """
    n = sum(lengths)
    if n % 2:
        raise ValueError(f"a perfect matching needs an even vertex count, got {n}")
    p1 = np.empty(n, dtype=np.int64)
    start = 0
    for length in lengths:
        block = np.arange(start, start + length)
        p1[block] = np.roll(block, -1)
        start += length
    p2 = np.argsort(p1)
    cycle_edges = {frozenset((j, int(p1[j]))) for j in range(n)}
    while True:
        order = rng.permutation(n)
        pairs = order.reshape(-1, 2)
        if any(frozenset(map(int, e)) in cycle_edges for e in pairs):
            continue
        p3 = np.empty(n, dtype=np.int64)
        p3[pairs[:, 0]], p3[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        for p in (p1, p3):
            graph.add_edges_from(zip(range(n), p.tolist()))
        if nx.is_connected(graph):
            return [p1, p2, p3]


def relabel(perms: list, sigma: np.ndarray) -> list:
    """Conjugate every permutation by the vertex relabeling ``sigma``."""
    out = []
    for p in perms:
        q = np.empty_like(p)
        q[sigma] = sigma[p]
        out.append(q)
    return out


def haar_state(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def _families(workload: str, rng: np.random.Generator) -> list:
    # The first walk of each list is a cheap one, used for the untimed warm-up.
    if workload == "control":
        return [
            ("cycle_shift(51)", cycle_shift(51)),
            ("cycle_shift(101)", cycle_shift(101)),
            ("cycle_shift(100)", cycle_shift(100)),
            ("torus(9,11)", torus(9, 11)),
            ("complete(20)", complete(20)),
            ("mixed(3,4,5,7,9)", mixed_cycles(rng, (3, 4, 5, 7, 9))),
            ("mixed(3,4,5,7,11)", mixed_cycles(rng, (3, 4, 5, 7, 11))),
        ]
    if workload == "algebra":
        return [
            ("cycle_shift(5)", cycle_shift(5)),
            ("cycle_shift(7)", cycle_shift(7)),
            ("cycle_exchange(6)", cycle_exchange(6)),
            ("cycle_exchange(8)", cycle_exchange(8)),
            ("cycle_shift(8)", cycle_shift(8)),
            ("complete(4)", complete(4)),
            ("figure1", figure1()),
        ]
    if workload == "transfer":
        return [
            ("figure1", figure1()),
            ("cycle_shift(31)", cycle_shift(31)),
            ("torus(7,9)", torus(7, 9)),
            ("mixed(3,4,5)", mixed_cycles(rng, (3, 4, 5))),
            ("torus(5,5)", torus(5, 5)),
            ("complete(12)", complete(12)),
            ("torus(3,5)", torus(3, 5)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def build_walks(workload: str, seed: int) -> list[Walk]:
    """The workload's walks, relabeled from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [
        Walk(name, perms[0].size, relabel(perms, rng.permutation(perms[0].size)))
        for name, perms in _families(workload, rng)
    ]


def write_specs(walks: list[Walk], dest: Path) -> None:
    """Write one spec file per walk into dest."""
    dest.mkdir(parents=True, exist_ok=True)
    for index, walk in enumerate(walks):
        walk.spec_path = dest / f"w{index}-spec.json"
        walk.spec_path.write_text(
            json.dumps({"n": walk.n, "perms": [p.tolist() for p in walk.perms]}) + "\n"
        )


def state_pair(seed: int, walk_index: int, round_no: int, size: int) -> tuple:
    """Haar random (psi1, psi2) for the transfer op on one walk in one round."""
    rng = np.random.default_rng([seed, walk_index, round_no])
    return haar_state(rng, size), haar_state(rng, size)


def write_state(walk: Walk, amps: np.ndarray, path: Path) -> None:
    doc = {"d": walk.d, "n": walk.n, "amps": [[z.real, z.imag] for z in amps.tolist()]}
    path.write_text(json.dumps(doc) + "\n")
