"""Combinatorial controllability criteria and the structure report.

Three mutually cross-checking criteria decide whether a walk can realize
every unitary evolution:

* joint orbits of permutation-power pairs, reduced to an N-vertex
  connectivity graph whose connectedness is the verdict;
* reachability sets: some vertex must cover the whole graph with walks of
  one exact length;
* a parity test: some vertex must be reachable in both an odd and an even
  number of steps.

All three are facts about the N vertices and d coins, not about the shift
order r (the lcm of the cycle lengths, which can grow exponentially in N):
joint orbits are cycles of a permutation of the N^2 vertex pairs, and the
reachability search stops at the first covering level, which is at most
2N-2 on a coverable walk, or as soon as its reachable sets repeat, within
diameter + 2 levels on a non-coverable one.  Only the 2k+r transfer bound
reads r.

Coin labels ``l, m`` in the joint-orbit API are 1-based (1..d); vertices
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CriterionConflictError, IndexOutOfRangeError
from .graph_model import WalkSpec, connected_components
from .walk_core import shift_order


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

    ``m`` counts the reduced-connectivity components; ``reach_controllable``
    says whether some vertex covers the graph at one exact level, and
    ``parity_m`` is the parity test's block count.  ``partitions_match`` is
    False only when the orbit and parity criteria both split the vertices
    in two, but differently.
    """

    components: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
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


def _check_vertex(spec: WalkSpec, j: int):
    if not 0 <= j < spec.n:
        raise IndexOutOfRangeError(f"vertex {j} out of range 0..{spec.n - 1}")


def joint_orbit(spec: WalkSpec, l: int, m: int) -> frozenset:
    """All pairs (P_l^k j, P_m^k j) over j and k >= 0 (l, m are 1-based).

    These are the orbits of the diagonal pairs (j, j) under the pair map
    (x, y) -> (P_l x, P_m y).  The pair map permutes the N^2 vertex pairs,
    so each orbit is a cycle back to its starting pair and every pair is
    visited at most once, whatever the shift order r is.
    """
    for label in (l, m):
        if not 1 <= label <= spec.d:
            raise IndexOutOfRangeError(f"coin index {label} out of range 1..{spec.d}")
    pl = spec.perms[l - 1].map.tolist()
    pm = spec.perms[m - 1].map.tolist()
    pairs = set()
    for j in range(spec.n):
        x = y = j
        while (x, y) not in pairs:
            pairs.add((x, y))
            x, y = pl[x], pm[y]
    return frozenset(pairs)


def reduced_connectivity_graph(spec: WalkSpec) -> list[set[int]]:
    """Adjacency sets of the N-vertex graph deciding controllability.

    For every coin m = 2..d, each pair (x, y) of the (1, m) joint orbit
    joins x and y.  These d-1 orbits give the same components as all
    d(d-1)/2 coin pairs l < m: for any j and k the (l, m) pair
    (P_l^k j, P_m^k j) joins two vertices that the (1, l) and (1, m) pairs
    both join to P_1^k j, and the (1, m) graph is a subgraph of the
    all-pairs one.  The returned sets are therefore a spanning subgraph of
    the all-pairs graph with the same components, built in O(d N^2).
    """
    adj: list[set[int]] = [set() for _ in range(spec.n)]
    for m in range(2, spec.d + 1):
        for x, y in joint_orbit(spec, 1, m):
            if x != y:
                adj[x].add(y)
                adj[y].add(x)
    return adj


def _step(spec: WalkSpec, mask: np.ndarray) -> np.ndarray:
    """Advance a boolean vertex mask of shape (n,) or (starts, n) one level:
    the vertices reachable in exactly one more step.  y is reachable when
    some P_c^-1 y is in the mask; the adjacency is symmetric, so the
    P_c^-1 y over all coins are the P_c y, and the gather out |= mask[P_c]
    gives the same set without building the inverses."""
    out = np.zeros_like(mask)
    for p in spec.perms:
        out |= mask[..., p.map]
    return out


def _levels(spec: WalkSpec, mask: np.ndarray):
    """Yield ``mask`` and the masks one, two, ... steps on, stopping before
    the first mask that equals the one two levels back.  The next mask
    depends only on the current one, so from there the masks alternate
    between the last two yielded.  The adjacency is symmetric, so every row
    settles with period 1 or 2 and the stop always comes.
    """
    older = newer = None
    while older is None or not np.array_equal(mask, older):
        yield mask
        older, newer = newer, mask
        mask = _step(spec, mask)


def reachable_sets(spec: WalkSpec, j: int, kmax: int) -> list[set[int]]:
    """Exact image sets: vertices reachable from j in exactly 0, 1, ..., kmax
    steps.  Not monotone in general.  A negative kmax raises
    IndexOutOfRangeError.

    Stepping stops once the sets repeat with period 2 (see ``_levels``);
    the later levels repeat the last two set objects.
    """
    _check_vertex(spec, j)
    if kmax < 0:
        raise IndexOutOfRangeError(f"level {kmax} is negative")
    start = np.zeros(spec.n, dtype=bool)
    start[j] = True
    sets = []
    for mask in _levels(spec, start):
        sets.append(set(np.flatnonzero(mask).tolist()))
        if len(sets) > kmax:
            return sets
    rest = kmax + 1 - len(sets)
    return sets + sets[-2:] * (rest // 2) + sets[-2:-1] * (rest % 2)


def parity_check(spec: WalkSpec, j: int = 0) -> ParityReport:
    """Odd/even reachability from vertex j, as one component search on the
    bipartite double cover, where vertex v + N is the odd copy of v.

    m = 1 when some vertex is reachable in both an odd and an even number of
    steps (with a witness); otherwise m = 2 with the even/odd partition.
    """
    _check_vertex(spec, j)
    n = spec.n
    nbrs = [spec.neighbors(v) for v in range(n)]
    cover = [[u + n for u in nb] for nb in nbrs] + nbrs
    comp = next(c for c in connected_components(cover) if j in c)
    even = tuple(v for v in comp if v < n)
    odd = tuple(v - n for v in comp if v >= n)
    both = set(even) & set(odd)
    return ParityReport(m=1 if both else 2, witness=min(both, default=None), even=even, odd=odd)


def _covering_level(spec: WalkSpec, starts: list[int]) -> tuple[int, int] | None:
    """Least k at which some start reaches every vertex in exactly k steps,
    with the least such start; None when the walk is not coverable.

    All starts advance together as the rows of one boolean mask.  Once the
    masks repeat (see ``_levels``) they alternate between two states that
    have both been checked, and no later level can cover.  On a connected
    bipartite walk the exact-k sets settle on the alternating colour
    classes, so the repeat comes within diameter + 2 levels.
    """
    start = np.zeros((len(starts), spec.n), dtype=bool)
    start[np.arange(len(starts)), starts] = True
    for k, mask in enumerate(_levels(spec, start)):
        full = np.flatnonzero(mask.all(axis=1))
        if full.size:
            return k, starts[int(full[0])]
    # Parity is a property of the whole connected graph, so one check
    # answers for every start.
    if parity_check(spec, starts[0]).m == 1:
        where = f"vertex {starts[0]}" if len(starts) == 1 else "any vertex"
        raise CriterionConflictError(
            f"reachable sets from {where} repeat at level {k + 1} without covering, "
            "but the parity test reports a coverable walk"
        )
    return None


def k_of(spec: WalkSpec, j: int) -> int | None:
    """Least k with every vertex reachable from j in exactly k steps.

    Returns None when the exact-k reachable sets repeat without covering
    and the parity test confirms the walk is not coverable.  A coverable
    walk is connected and not bipartite, so its symmetric adjacency matrix
    is primitive, and the exponent of a primitive symmetric N x N matrix is
    at most 2N-2 (J.-Y. Shao, 1987): the search stops at a covering level
    of at most 2N-2.  Sets that repeat on a walk whose parity test says it
    is coverable raise CriterionConflictError, an internal assertion rather
    than an outcome.
    """
    _check_vertex(spec, j)
    found = _covering_level(spec, [j])
    return None if found is None else found[0]


def kappa(spec: WalkSpec) -> tuple[int, int] | None:
    """Minimum over vertices of k_of, with the achieving vertex.

    Ties go to the smallest vertex.  None when the walk is not coverable.
    """
    return _covering_level(spec, list(range(spec.n)))


def analyze(spec: WalkSpec) -> ControllabilityReport:
    """Full controllability report.

    Components come from the reduced connectivity graph; the predicted
    operator-algebra dimension is sum((d*v_j)^2) over component sizes v_j:
    the algebra splits into one full unitary block per component (every
    block's phase direction is independently reachable through per-vertex
    phase coins), so it is (dN)^2 exactly when there is a single component.
    The covering step count and the 2k+r transfer bound are filled in only
    for controllable walks.  Each criterion runs once, and the report
    carries all three verdicts side by side.
    """
    comps = connected_components(reduced_connectivity_graph(spec))
    kap = kappa(spec)
    par = parity_check(spec, 0)
    sizes = tuple(len(c) for c in comps)
    m = len(comps)
    controllable = m == 1
    predicted = sum((spec.d * v) ** 2 for v in sizes)
    kk = kv = bound = None
    if controllable and kap is not None:
        kk, kv = kap
        bound = 2 * kk + shift_order(spec)
    partitions_match = m != 2 or par.m != 2 or (
        {frozenset(c) for c in comps} == {frozenset(par.even), frozenset(par.odd)}
    )
    return ControllabilityReport(
        components=tuple(tuple(c) for c in comps),
        sizes=sizes,
        m=m,
        controllable=controllable,
        predicted_lie_dim=predicted,
        kappa=kk,
        kappa_vertex=kv,
        step_bound=bound,
        reach_controllable=kap is not None,
        parity_m=par.m,
        partitions_match=partitions_match,
    )
