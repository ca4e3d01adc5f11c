"""Expected CLI outputs, computed without ``qwalk``.

* Components: a connected walk is controllable unless its graph is
  bipartite, in which case the two colour classes are the components
  (networkx decides the bipartition).
* kappa and its vertex: column j of the boolean power A^k holds the vertices
  reachable from j in exactly k steps; k_of(j) is the first k at which that
  column is full.  For a symmetric primitive matrix the exponent is at most
  2N - 2 (Shao, 1987), which bounds the search.
* r: the lcm of every cycle length of every permutation.
* Predicted algebra dimension: sum((d * v)^2) over component sizes v.

Each ``check_*`` returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np

FIDELITY_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    n: int
    d: int
    r: int
    components: list
    kappa: int | None
    kappa_vertex: int | None
    predicted_dim: int

    @property
    def step_bound(self) -> int | None:
        return None if self.kappa is None else 2 * self.kappa + self.r


def cycle_lengths(p: np.ndarray) -> list[int]:
    seen = np.zeros(p.size, dtype=bool)
    lengths = []
    for start in range(p.size):
        length, v = 0, start
        while not seen[v]:
            seen[v] = True
            v = int(p[v])
            length += 1
        if length:
            lengths.append(length)
    return lengths


def covering_steps(n: int, perms: list) -> np.ndarray:
    """k_of for every vertex at once, -1 where no exact step count covers."""
    adjacency = np.zeros((n, n))
    for p in perms:
        adjacency[p, np.arange(n)] = 1.0
    reach = np.eye(n)
    k_of = np.full(n, -1)
    for k in range(1, 2 * n - 1):
        reach = (adjacency @ reach > 0).astype(float)
        k_of[(reach > 0).all(axis=0) & (k_of < 0)] = k
        if (k_of >= 0).all():
            break
    return k_of


def expect(n: int, perms: list) -> Expected:
    d = len(perms)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for p in perms:
        graph.add_edges_from(zip(range(n), np.asarray(p).tolist()))
    if nx.is_bipartite(graph):
        classes = nx.bipartite.sets(graph)
        components = sorted(sorted(c) for c in classes)
    else:
        components = [list(range(n))]
    k_of = covering_steps(n, perms)
    covered = k_of >= 0
    if covered.any() == (len(components) == 2):
        raise RuntimeError("oracle: bipartiteness and covering step counts disagree")
    kappa = kappa_vertex = None
    if covered.any():
        kappa = int(k_of[covered].min())
        kappa_vertex = int(np.flatnonzero(k_of == kappa)[0])
    r = math.lcm(*(length for p in perms for length in cycle_lengths(np.asarray(p))))
    return Expected(
        n=n,
        d=d,
        r=r,
        components=components,
        kappa=kappa,
        kappa_vertex=kappa_vertex,
        predicted_dim=sum((d * len(c)) ** 2 for c in components),
    )


def _compare(doc: dict, wanted: dict) -> list[str]:
    return [
        f"{key}: got {doc.get(key)!r}, expected {value!r}"
        for key, value in wanted.items()
        if doc.get(key) != value
    ]


def check_analyze(doc: dict, exp: Expected) -> list[str]:
    m = len(exp.components)
    return _compare(
        doc,
        {
            "m": m,
            "components": exp.components,
            "controllable": m == 1,
            "predicted_lie_dim": exp.predicted_dim,
            "kappa": exp.kappa,
            "step_bound": exp.step_bound,
            "verdicts_agree": True,
        },
    )


def check_lie(doc: dict, exp: Expected) -> list[str]:
    return _compare(
        doc,
        {
            "dim": exp.predicted_dim,
            "predicted": exp.predicted_dim,
            "match": True,
            "block_diagonal_ok": True,
        },
    )


def amplitudes(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def replay(psi: np.ndarray, coins: np.ndarray, perms: list) -> np.ndarray:
    """Apply coin steps ``coins[s]`` of shape (n, d, d), each followed by the
    shift that moves coin value i along ``perms[i]``; flat index i*n + j."""
    d, n = len(perms), perms[0].size
    table = psi.reshape(d, n)
    for blocks in coins:
        mixed = np.einsum("jki,ij->kj", blocks, table)
        table = np.empty_like(mixed)
        for i, p in enumerate(perms):
            table[i, p] = mixed[i]
    return table.reshape(-1)


def check_transfer(
    seq_doc: dict, sim_doc: dict, psi1: np.ndarray, psi2: np.ndarray, perms: list, exp: Expected
) -> list[str]:
    """The emitted sequence respects 2*kappa + r, the simulated final state
    reaches psi2, and an independent replay of the sequence agrees."""
    problems = []
    steps = seq_doc.get("steps", [])
    if len(steps) > exp.step_bound:
        problems.append(f"{len(steps)} steps exceed 2*kappa + r = {exp.step_bound}")
    if seq_doc.get("bound") != exp.step_bound:
        problems.append(f"bound {seq_doc.get('bound')!r}, expected {exp.step_bound}")
    if sim_doc.get("steps") != len(steps):
        problems.append(f"simulate replayed {sim_doc.get('steps')!r} of {len(steps)} steps")
    final = amplitudes(sim_doc["state"]["amps"])
    fidelity = float(abs(np.vdot(psi2, final)))
    if not fidelity >= 1.0 - FIDELITY_TOL:
        problems.append(f"fidelity {fidelity!r} to the target is below 1 - {FIDELITY_TOL}")
    if steps:
        coins = amplitudes([step["coins"] for step in steps])
        agreement = float(abs(np.vdot(replay(psi1, coins, perms), final)))
        if not agreement >= 1.0 - FIDELITY_TOL:
            problems.append(f"independent replay differs from simulate: overlap {agreement!r}")
    return problems
