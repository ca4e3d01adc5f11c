"""Combinatorial controllability criteria and the structure report.

Three mutually cross-checking criteria decide whether a walk can realize
every unitary evolution:

* joint orbits of permutation-power pairs, whose components are read off
  cycle residues; one component is the verdict;
* reachability sets: some vertex must cover the whole graph with walks of
  one exact length;
* a parity test: some vertex must be reachable in both an odd and an even
  number of steps.

All three are facts about the N vertices and d coins, not about the shift
order r (the lcm of the cycle lengths, which can grow exponentially in N):
joint orbits follow from cycle positions modulo gcds of cycle lengths, and
the reachability search stops at the first covering level (at most 2N-2)
or once its reachable sets repeat.  Only the 2k+r transfer bound reads r.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CriterionConflictError, IndexOutOfRangeError, UnreachableError
from .graph_model import WalkSpec, component_labels, cycle_table
from .walk_core import _index, cycle_order


@dataclass(frozen=True)
class ParityReport:
    """Outcome of the odd/even reachability test from one vertex."""

    m: int
    witness: int | None
    even: tuple[int, ...]
    odd: tuple[int, ...]


@dataclass(frozen=True)
class ControllabilityReport:
    """The orbit criterion's verdict with the other two criteria beside it.

    ``m`` counts the orbit criterion's components; ``reach_controllable``
    says whether some vertex covers the graph at one exact level, and
    ``parity_m`` is the parity test's block count.  ``partitions_match`` is
    False only when the orbit and parity criteria both split the vertices
    in two, but differently.
    """

    components: tuple[tuple[int, ...], ...]
    m: int
    controllable: bool
    predicted_lie_dim: int
    kappa: int | None
    kappa_vertex: int | None
    step_bound: int | None
    reach_controllable: bool
    parity_m: int
    partitions_match: bool

    @property
    def verdicts_agree(self) -> bool:
        """The three criteria give one verdict, and one partition."""
        agree = (self.m == 1) == self.reach_controllable == (self.parity_m == 1)
        return agree and self.partitions_match


def _orbit_labels(spec: WalkSpec, table) -> np.ndarray:
    """Each vertex's least fellow in the orbit criterion's components.

    The (1, m) joint orbits, m = 2..d, join what all pairs l < m join: the
    (l, m) pair (P_l^k j, P_m^k j) has both ends joined to P_1^k j.  Let
    cycles A of P_1 and B of P_m meet at j, with g the gcd of their lengths.
    By the Chinese remainder theorem the orbit of (j, j) joins A[u] to B[v]
    exactly when u - v = pos_A(j) - pos_B(j) (mod g); all meeting points
    together, when u - v = delta (mod g'), g' the gcd of g and the offsets'
    differences.  A cycle's positions are so joined modulo G, the gcd of g'
    over the cycles it meets: each vertex links to a node per (cycle,
    position mod G), and each meeting pair links A[c] to B[c - delta] for c
    below lcm(G_A, G_B).  ``table`` is ``cycle_table(spec.maps)``.
    """
    n, d = spec.n, spec.d
    root, pos, size = table
    vertex = np.arange(d * n) % n
    # Rows (m >= 2, j) sorted by meeting pair, the pair's key above the
    # offset pos_A - pos_B + n in one integer; root[j] is j's P_1 cycle.
    key, delta = np.divmod(np.sort(
        (root[n:] * n + root[vertex[n:]]) * 2 * n + pos[vertex[n:]] - pos[n:] + n), 2 * n)
    new = np.concatenate(([True], key[1:] != key[:-1]))
    starts = np.flatnonzero(new)
    pb, pa = np.divmod(key[starts], n)
    first = delta[starts]
    spread = np.gcd.reduceat(delta - first[np.cumsum(new) - 1], starts)
    gp = np.gcd(np.gcd(size[pa], size[pb]), spread)
    mod = np.zeros(d * n, dtype=np.int64)  # G, indexed by a cycle's root
    np.gcd.at(mod, pa, gp)
    np.gcd.at(mod, pb, gp)
    node = n + np.cumsum(mod) - mod  # the first node of each cycle
    links = np.lcm(mod[pa], mod[pb])
    pair = np.repeat(np.arange(starts.size), links)
    c = np.arange(pair.size) - (np.cumsum(links) - links)[pair]
    pa, pb = pa[pair], pb[pair]
    u = np.concatenate((vertex, node[pa] + c % mod[pa]))
    v = np.concatenate((node[root] + pos % mod[root], node[pb] + (c - first[pair] + n) % mod[pb]))
    return component_labels(n + int(mod.sum()), u, v)[:n]


def _step(spec: WalkSpec, mask: np.ndarray) -> np.ndarray:
    """Advance a boolean (n,) mask, or (words, n) packed start bits, one
    level: entry y ORs entries P_c y, as the P_c^-1 y are the P_c y by
    symmetry.  A ``take`` gathers the images of up to 2^20 / mask.size coins
    at a time (all d on small walks) and an OR-reduce folds them."""
    block = max(1, 2**20 // mask.size)
    out = np.bitwise_or.reduce(mask.take(spec.maps[:block], axis=-1), axis=-2)
    for c in range(block, spec.d, block):
        out |= np.bitwise_or.reduce(mask.take(spec.maps[c:c + block], axis=-1), axis=-2)
    return out


def _levels(spec: WalkSpec, mask: np.ndarray):
    """Yield ``mask`` and the masks one, two, ... steps on, stopping before
    the first mask whose bytes equal those of the one two levels back; from
    there they alternate between the last two yielded.  The adjacency is
    symmetric, so every row settles with period 1 or 2 and the stop comes.
    """
    older = newer = None
    while (key := mask.tobytes()) != older:
        yield mask
        older, newer = newer, key
        mask = _step(spec, mask)


def reachable_masks(spec: WalkSpec, j: int, kmax: int, need=()) -> list[np.ndarray]:
    """``reachable_sets`` as boolean vertex masks of shape (n,); raises
    UnreachableError naming the vertices of ``need`` off the level-kmax set,
    and IndexOutOfRangeError on a level of sys.maxsize or more.

    Stepping stops once the masks repeat with period 2 (see ``_levels``);
    the later levels repeat the last two mask objects.
    """
    j, kmax = _index(j, spec.n, "vertex"), _index(kmax, None, "level")
    if kmax >= sys.maxsize:
        raise IndexOutOfRangeError(f"level {kmax} is not below {sys.maxsize}")
    start = np.zeros(spec.n, dtype=bool)
    start[j] = True
    masks = list(itertools.islice(_levels(spec, start), kmax + 1))
    rest = kmax + 1 - len(masks)
    masks += masks[-2:] * (rest // 2) + masks[-2:-1] * (rest % 2)
    missing = [v for v in need if not masks[kmax][v]]
    if missing:
        raise UnreachableError(
            f"nodes {missing} are not reachable from {j} in exactly {kmax} steps")
    return masks


def reachable_sets(spec: WalkSpec, j: int, kmax: int) -> list[set[int]]:
    """Exact image sets: vertices reachable from j in exactly 0, 1, ..., kmax
    steps.  Not monotone in general.  j and kmax pass ``_index``.

    Stepping stops once the sets repeat with period 2 (see ``_levels``);
    the later levels repeat the last two set objects.
    """
    masks = reachable_masks(spec, j, kmax)
    sets = {}
    for mask in masks:
        if id(mask) not in sets:
            sets[id(mask)] = set(np.flatnonzero(mask).tolist())
    return [sets[id(mask)] for mask in masks]


def parity_check(spec: WalkSpec, j: int = 0) -> ParityReport:
    """Odd/even reachability from vertex j, as one component search on the
    bipartite double cover, where vertex v + N is the odd copy of v.

    m = 1 when some vertex is reachable in both an odd and an even number of
    steps (with a witness); otherwise m = 2 with the even/odd partition.
    """
    j = _index(j, spec.n, "vertex")
    n = spec.n
    label = component_labels(2 * n, np.arange(spec.d * n) % n, n + spec.maps.ravel())
    even, odd = (tuple(np.flatnonzero(h == label[j]).tolist()) for h in (label[:n], label[n:]))
    both = set(even) & set(odd)
    return ParityReport(m=1 if both else 2, witness=min(both, default=None), even=even, odd=odd)


def _covering_level(spec: WalkSpec, starts: list[int]) -> tuple[int, int | None]:
    """Least k at which some start reaches every vertex in exactly k steps,
    with the least such start; when no start covers, the level at which the
    reachable sets repeat, with None.

    All starts advance together as the bits of one words-major (words, n)
    uint64 mask, bit i of word w at vertex v set when starts[64w + i]
    reaches v; a start covers when its bit survives the AND along the
    vertex axis.  Once the masks repeat (see ``_levels``) no later level
    can cover; on a bipartite walk that comes within diameter + 2 levels.
    """
    bit = np.arange(len(starts), dtype=np.uint64)
    start = np.zeros((-(-len(starts) // 64), spec.n), dtype=np.uint64)
    np.bitwise_or.at(start, (bit >> 6, starts), np.uint64(1) << (bit & 63))
    for k, mask in enumerate(_levels(spec, start)):
        full = np.bitwise_and.reduce(mask, axis=-1)
        if full.tobytes() != bytes(full.nbytes):
            bits = np.unpackbits(full.astype("<u8").view(np.uint8), bitorder="little")
            return k, starts[int(np.argmax(bits))]
    return k + 1, None


def k_of(spec: WalkSpec, j: int) -> int | None:
    """Least k with every vertex reachable from j in exactly k steps.

    None when the exact-k sets repeat without covering and the parity test
    confirms the walk is not coverable.  A coverable walk has a primitive
    symmetric adjacency matrix, whose exponent is at most 2N-2 (J.-Y. Shao,
    1987).  Sets that repeat on a walk whose parity test says it is
    coverable raise CriterionConflictError, an internal assertion.
    """
    j = _index(j, spec.n, "vertex")
    k, found = _covering_level(spec, [j])
    if found is None and parity_check(spec, j).m == 1:
        raise CriterionConflictError(
            f"reachable sets from vertex {j} repeat at level {k} without covering, "
            "but the parity test reports a coverable walk"
        )
    return None if found is None else k


def analyze(spec: WalkSpec) -> ControllabilityReport:
    """Full controllability report.

    Components come from the joint orbits' cycle residues; the predicted
    operator-algebra dimension is sum((d*v_j)^2) over component sizes v_j:
    the algebra splits into one full unitary block per component (every
    block's phase direction is independently reachable through per-vertex
    phase coins), so it is (dN)^2 exactly when there is a single component.
    The covering step count and the 2k+r transfer bound are filled in only
    for controllable walks.  Each criterion runs once, and the report
    carries all three verdicts side by side: the covering search runs
    without ``k_of``'s parity assertion, so a disagreement shows in
    ``verdicts_agree`` instead of raising.  The one cycle table serves both
    the orbit criterion and the shift order r.
    """
    table = cycle_table(spec.maps)
    label = _orbit_labels(spec, table)
    roots = np.flatnonzero(label == np.arange(spec.n))
    comps = [np.flatnonzero(label == v).tolist() for v in roots]
    level, start = _covering_level(spec, list(range(spec.n)))
    par = parity_check(spec, 0)
    m = len(comps)
    controllable = m == 1
    predicted = sum((spec.d * len(c)) ** 2 for c in comps)
    kk = kv = bound = None
    if controllable and start is not None:
        kk, kv = level, start
        bound = 2 * kk + cycle_order(table[2])
    partitions_match = m != 2 or par.m != 2 or (
        {frozenset(c) for c in comps} == {frozenset(par.even), frozenset(par.odd)}
    )
    return ControllabilityReport(
        components=tuple(tuple(c) for c in comps),
        m=m,
        controllable=controllable,
        predicted_lie_dim=predicted,
        kappa=kk,
        kappa_vertex=kv,
        step_bound=bound,
        reach_controllable=start is not None,
        parity_m=par.m,
        partitions_match=partitions_match,
    )
