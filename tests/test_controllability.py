"""The three controllability criteria and their cross-checks."""

import functools
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk as qw
from qwalk import controllability
from qwalk.lie_closure import DEFAULT_DIM_CAP

from sampling import random_spec


def components(adj):
    """Oracle: sorted components of an adjacency-set graph by breadth-first
    search, ordered by least vertex."""
    seen, comps = set(), []
    for start in range(len(adj)):
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        while queue:
            for u in adj[queue.popleft()]:
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def orbit_components(spec):
    """The orbit criterion's components, as ``analyze`` reports them."""
    return [list(c) for c in qw.analyze(spec).components]


def joint_orbit(spec, l, m):
    """Reference: all pairs (P_l^k j, P_m^k j) over j and k >= 0 (l, m are
    1-based), walking each orbit of the pair map (x, y) -> (P_l x, P_m y)
    from the diagonal pair (j, j) until it cycles back."""
    pl = spec.perms[l - 1].map.tolist()
    pm = spec.perms[m - 1].map.tolist()
    pairs = set()
    for j in range(spec.n):
        x = y = j
        while (x, y) not in pairs:
            pairs.add((x, y))
            x, y = pl[x], pm[y]
    return frozenset(pairs)


def brute_joint_orbit(spec, l, m):
    """Oracle: enumerate (P_l^k j, P_m^k j) for k below the shift order,
    stepping the powers one composition at a time."""
    pl, pm = np.arange(spec.n), np.arange(spec.n)
    pairs = set()
    for _ in range(qw.shift_order(spec)):
        pairs |= set(zip(pl.tolist(), pm.tolist()))
        pl, pm = spec.perms[l - 1].map[pl], spec.perms[m - 1].map[pm]
    return pairs


def all_pairs_components(spec, first=None):
    """Oracle: components of the graph joined by the joint orbits of every
    coin pair l < m, not only the pairs (1, m); with ``first=1``, of the
    pairs (1, m) alone."""
    orbits = [
        joint_orbit(spec, l, m)
        for l in range(1, (first or spec.d) + 1)
        for m in range(l + 1, spec.d + 1)
    ]
    adj = [set() for _ in range(spec.n)]
    for x, y in frozenset().union(*orbits):
        adj[x].add(y)
        adj[y].add(x)
    return components(adj)


def adjacency(spec):
    """The 0/1 adjacency matrix, read off the neighbour lists."""
    a = np.zeros((spec.n, spec.n), dtype=np.int64)
    for j in range(spec.n):
        a[j, spec.maps[:, j]] = 1
    return a


def covering(spec):
    """The packed covering search over every start: the least covering
    level and its least start, or None when no start covers."""
    level, start = controllability._covering_level(spec, list(range(spec.n)))
    return None if start is None else (level, start)


def boolean_power_kappa(spec):
    """Oracle: least (k, j) with column j of the boolean k-th power of the
    adjacency matrix all true, for k up to 3N."""
    a = adjacency(spec)
    power = np.eye(spec.n, dtype=np.int64)
    for k in range(3 * spec.n + 1):
        full = np.flatnonzero(power.all(axis=0))
        if full.size:
            return k, int(full[0])
        power = (power @ a > 0).astype(np.int64)
    return None


def stepped_covering_level(spec, starts):
    """Reference for the packed covering search: every start's exact-k
    reachable set as a row of one 0/1 (starts, n) mask, stepped by a product
    with the adjacency matrix until the masks repeat two levels back."""
    a = adjacency(spec)
    mask = np.zeros((len(starts), spec.n), dtype=np.int64)
    mask[np.arange(len(starts)), starts] = 1
    seen = []
    while len(seen) < 2 or not np.array_equal(mask, seen[-2]):
        full = np.flatnonzero(mask.all(axis=1))
        if full.size:
            return len(seen), starts[int(full[0])]
        seen.append(mask)
        mask = (mask @ a > 0).astype(np.int64)
    return None


def test_joint_orbit_equal_labels_is_diagonal(c5, fig):
    for spec in (c5, fig):
        for l in range(1, spec.d + 1):
            orbit = joint_orbit(spec, l, l)
            assert orbit == {(j, j) for j in range(spec.n)}
            assert isinstance(orbit, frozenset)


def test_joint_orbit_contains_diagonal(fig):
    for l in range(1, 4):
        for m in range(1, 4):
            assert {(j, j) for j in range(6)} <= joint_orbit(fig, l, m)


def _mixed_cycle_walk():
    """Cycles of lengths 3, 4 and 5 plus a perfect matching: N = 12, r = 60."""
    p1 = [1, 2, 0, 4, 5, 6, 3, 8, 9, 10, 11, 7]
    p2 = np.empty(12, dtype=np.int64)
    p2[p1] = np.arange(12)
    return qw.validate(12, [p1, p2, (np.arange(12) + 6) % 12])


def test_joint_orbit_matches_bruteforce(c5, fig):
    mixed = _mixed_cycle_walk()
    assert qw.shift_order(mixed) == 60 > mixed.n
    for spec in (c5, fig, qw.cycle_shift(4), mixed):
        for l in range(1, spec.d + 1):
            for m in range(1, spec.d + 1):
                assert joint_orbit(spec, l, m) == brute_joint_orbit(spec, l, m)


def test_joint_orbit_examples(c5, fig):
    # opposite cycle directions: pairs (j+k, j-k), so (2, 3) arises at k=2, j=0
    assert (2, 3) in joint_orbit(c5, 1, 2)
    # forward shift vs cross pairing at k=1, j=0: (1, 3)
    assert (1, 3) in joint_orbit(fig, 1, 3)


def test_reduced_graph_components_on_cycles(c4, c5):
    assert orbit_components(c5) == [[0, 1, 2, 3, 4]]
    assert orbit_components(c4) == [[0, 2], [1, 3]]


def test_first_coin_pairs_give_all_pairs_components():
    walks = [qw.figure1(), qw.torus(4, 4), qw.torus(3, 5), qw.cycle_exchange(8),
             _mixed_cycle_walk()]
    walks += [qw.complete(n) for n in range(3, 13)]
    for spec in walks:
        assert orbit_components(spec) == all_pairs_components(spec)


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_graphs_connected(n):
    assert len(orbit_components(qw.complete(n))) == 1


def test_analyze_odd_cycle(c5):
    r = qw.analyze(c5)
    assert r.m == 1 and r.controllable
    assert r.predicted_lie_dim == 100
    assert r.kappa == 4
    assert r.step_bound == 13  # 2*(n-1) + n
    assert r.verdicts_agree


def test_analyze_even_cycle(c4):
    r = qw.analyze(c4)
    assert r.m == 2 and not r.controllable
    assert r.components == ((0, 2), (1, 3))
    # one full unitary block per component: 16 + 16
    assert r.predicted_lie_dim == 32
    assert r.kappa is None and r.step_bound is None
    assert r.verdicts_agree


def test_reports_depend_only_on_graph(c4):
    assert qw.analyze(qw.cycle_exchange(4)) == qw.analyze(c4)
    assert qw.analyze(qw.cycle_exchange(6)) == qw.analyze(qw.cycle_shift(6))


def test_reachable_sets_table(fig):
    sets = qw.reachable_sets(fig, 0, 3)
    assert sets[0] == {0}
    assert sets[1] == {1, 3, 5}
    assert sets[2] == {0, 1, 2, 4, 5}
    assert sets[3] == {0, 1, 2, 3, 4, 5}


def test_reachable_sets_alternate_on_even_cycle(c4):
    sets = qw.reachable_sets(c4, 0, 8)
    for k, s in enumerate(sets):
        assert s != set(range(4))
        parity = {v % 2 for v in s}
        assert parity == {k % 2}


def test_reachable_sets_start(c5):
    assert qw.reachable_sets(c5, 3, 0) == [{3}]
    with pytest.raises(qw.IndexOutOfRangeError):
        qw.reachable_sets(c5, 7, 1)


def test_negative_level_is_refused(c5):
    with pytest.raises(qw.IndexOutOfRangeError, match="level -1"):
        qw.reachable_sets(c5, 0, -1)


@pytest.mark.parametrize("level", [sys.maxsize, 2**63, 10**20])
def test_level_past_the_largest_index_is_refused(c5, level):
    # islice cannot stop at such a level; the check comes before any step
    with pytest.raises(qw.IndexOutOfRangeError, match=f"level {level} "):
        qw.reachable_sets(c5, 0, level)
    target = qw.TargetSpread((0,), np.ones(1))
    with pytest.raises(qw.IndexOutOfRangeError):
        qw.spread_from_node(c5, 0, 0, target, -1)
    state = qw.basis_state(c5, 0, 0)
    with pytest.raises(qw.IndexOutOfRangeError):
        qw.reach_full_state(c5, 0, 0, state, -1)
    with pytest.raises(qw.IndexOutOfRangeError):
        qw.concentrate_to_node(c5, 0, state, -1)


def test_k_of_values(c4, c5, fig):
    assert qw.k_of(c5, 0) == 4
    assert qw.k_of(fig, 0) == 3
    assert qw.k_of(c4, 0) is None


def test_kappa(c5, fig):
    for spec, found in ((c5, (4, 0)), (fig, (3, 0)), (qw.cycle_shift(6), (None, None))):
        report = qw.analyze(spec)
        assert (report.kappa, report.kappa_vertex) == found
    assert covering(qw.cycle_shift(6)) is None


@pytest.mark.parametrize(
    "spec, diameter", [(qw.cycle_shift(100), 50), (qw.torus(20, 20), 20)], ids=["cycle100", "torus20"]
)
def test_non_coverable_search_stops_on_repeat(monkeypatch, spec, diameter):
    # a bipartite walk's exact-k sets alternate between the colour classes
    # once k reaches the diameter; the search must stop there, not at a cap
    calls = []
    step = controllability._step

    def counting_step(walk, mask):
        calls.append(None)
        return step(walk, mask)

    monkeypatch.setattr(controllability, "_step", counting_step)
    for search in (lambda: covering(spec), lambda: qw.k_of(spec, 0)):
        calls.clear()
        assert search() is None
        assert len(calls) <= diameter + 2


@pytest.mark.parametrize(
    "spec, diameter",
    [(qw.cycle_shift(5), 2), (qw.cycle_shift(6), 3), (qw.torus(3, 5), 3), (qw.torus(4, 4), 4)],
    ids=["cycle5", "cycle6", "torus3x5", "torus4x4"],
)
def test_reachable_sets_stop_stepping_on_repeat(monkeypatch, spec, diameter):
    # the sets settle at the covering level, or on a bipartite walk at the
    # diameter; from two levels later they alternate and are filled in, not
    # stepped, so a huge k costs nothing
    settle = qw.k_of(spec, 0) or diameter
    def stepped(kmax):
        mask = np.zeros(spec.n, dtype=bool)
        mask[0] = True
        sets = [{0}]
        for _ in range(kmax):
            mask = controllability._step(spec, mask)
            sets.append(set(np.flatnonzero(mask).tolist()))
        return sets

    for kmax in range(4 * spec.n):
        assert qw.reachable_sets(spec, 0, kmax) == stepped(kmax)
    calls = []
    step = controllability._step

    def counting_step(walk, mask):
        calls.append(None)
        return step(walk, mask)

    monkeypatch.setattr(controllability, "_step", counting_step)
    sets = qw.reachable_sets(spec, 0, 50_000)
    assert len(sets) == 50_001 and sets[-1] == sets[-3]
    assert len(calls) <= settle + 2


def test_repeat_with_coverable_parity_is_a_conflict(monkeypatch):
    c6 = qw.cycle_shift(6)
    fake = controllability.ParityReport(m=1, witness=0, even=(), odd=())
    monkeypatch.setattr(controllability, "parity_check", lambda spec, j=0: fake)
    with pytest.raises(qw.CriterionConflictError, match="vertex 0 repeat at level"):
        qw.k_of(c6, 0)


def test_analyze_runs_parity_once(monkeypatch):
    calls = []
    parity_check = controllability.parity_check

    def counting_parity_check(spec, j=0):
        calls.append(j)
        return parity_check(spec, j)

    monkeypatch.setattr(controllability, "parity_check", counting_parity_check)
    for n in (100, 101):  # bipartite, then not
        calls.clear()
        assert qw.analyze(qw.cycle_shift(n)).verdicts_agree
        assert calls == [0]


def test_parity_check(c4, c5, fig):
    odd = qw.parity_check(c5, 0)
    assert odd.m == 1 and odd.witness is not None
    even = qw.parity_check(c4, 0)
    assert even.m == 2
    assert even.even == (0, 2) and even.odd == (1, 3)
    assert qw.parity_check(fig, 0).m == 1


def test_verdicts_agree_on_builtins():
    gallery = [qw.cycle_shift(n) for n in range(3, 9)]
    gallery += [qw.cycle_exchange(n) for n in (4, 6, 8)]
    gallery += [qw.figure1(), qw.complete(4), qw.torus(3, 3)]
    for spec in gallery:
        rep = qw.analyze(spec)
        assert rep.verdicts_agree, spec
        assert rep.partitions_match
        assert rep.reach_controllable == rep.controllable == (rep.parity_m == 1)


def test_verdicts_agree_even_cycle_partitions():
    rep = qw.analyze(qw.cycle_shift(6))
    assert rep.verdicts_agree and rep.m == 2 and rep.parity_m == 2
    assert not rep.reach_controllable
    assert rep.partitions_match


def test_report_names_the_criterion_that_disagrees(monkeypatch):
    # a parity split that differs from the orbit components
    fake = controllability.ParityReport(m=2, witness=None, even=(0, 1, 2), odd=(3, 4, 5))
    monkeypatch.setattr(controllability, "parity_check", lambda spec, j=0: fake)
    rep = qw.analyze(qw.cycle_shift(6))
    assert (rep.m, rep.parity_m, rep.reach_controllable) == (2, 2, False)
    assert not rep.partitions_match and not rep.verdicts_agree
    monkeypatch.undo()
    # a reachability search that finds no covering level on a controllable walk
    monkeypatch.setattr(controllability, "_covering_level", lambda spec, starts: (1, None))
    rep = qw.analyze(qw.cycle_shift(5))
    assert (rep.m, rep.parity_m, rep.partitions_match) == (1, 1, True)
    assert not rep.reach_controllable and not rep.verdicts_agree
    assert rep.kappa is None and rep.step_bound is None


def _round_robin(n):
    """The round-robin 1-factorization of K_n (n even): n - 1 perfect
    matchings, round t pairing t with n - 1 and t + i with t - i mod n - 1."""
    perms = []
    for t in range(n - 1):
        images = np.empty(n, dtype=np.int64)
        pairs = [(t, n - 1)] + [((t + i) % (n - 1), (t - i) % (n - 1)) for i in range(1, n // 2)]
        for a, b in pairs:
            images[a], images[b] = b, a
        perms.append(images)
    return qw.validate(n, perms)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_complete_graph_verdict_ignores_its_decomposition(n):
    # the circulant j -> j + k and the round-robin matchings decompose the
    # same edge set of K_n; the shift orders differ, so step_bound does too
    circulant, matchings = qw.analyze(qw.complete(n)), qw.analyze(_round_robin(n))
    for field in ("components", "controllable", "kappa", "predicted_lie_dim"):
        assert getattr(matchings, field) == getattr(circulant, field), field
    assert matchings.verdicts_agree
    if n == 4:
        assert qw.verify_structure(_round_robin(4)).dim == 144


def _redecompose(spec, seed):
    """Another walk on spec's graph: d perfect matchings peeled one at a time
    off the bipartite double cover (v on the left joined to u on the right
    whenever a coin sends v to u), its edges inserted in a seeded shuffled
    order.  A d-regular bipartite graph has a perfect matching (Koenig), and
    taking one away leaves a (d - 1)-regular one."""
    nx = pytest.importorskip("networkx")
    n, left = spec.n, range(spec.n)
    edges = list(zip(np.tile(left, spec.d).tolist(), (spec.maps.ravel() + n).tolist()))
    cover = nx.Graph()
    cover.add_nodes_from(left)
    cover.add_edges_from(edges[i] for i in np.random.default_rng(seed).permutation(len(edges)))
    perms = []
    for _ in range(spec.d):
        match = nx.bipartite.hopcroft_karp_matching(cover, top_nodes=left)
        perms.append([match[v] - n for v in left])
        cover.remove_edges_from((v, match[v]) for v in left)
    return qw.validate(n, perms)


_GRAPHS = {
    "torus(5,7)": lambda: qw.torus(5, 7),
    "torus(4,6)": lambda: qw.torus(4, 6),
    "complete(9)": lambda: qw.complete(9),
    "figure1": qw.figure1,
    "cycle_exchange(8)": lambda: qw.cycle_exchange(8),
    "torus(3,3)": lambda: qw.torus(3, 3),
    **{f"random_spec({i})": lambda i=i: random_spec(np.random.default_rng(i))
       for i in (0, 3, 28, 40)},
}


@pytest.mark.parametrize("name", list(_GRAPHS))
def test_verdict_depends_only_on_the_graph(name):
    # a theorem of the paper: any other decomposition of the same edge set
    # into d permutations gets the same verdict, whatever its shift order
    spec = _GRAPHS[name]()
    report = qw.analyze(spec)
    small = spec.d * spec.n <= DEFAULT_DIM_CAP
    dim = qw.verify_structure(spec).dim if small else None
    for seed in (0, 1):
        other = _redecompose(spec, seed)
        assert np.array_equal(np.sort(other.maps, axis=0), np.sort(spec.maps, axis=0))
        again = qw.analyze(other)
        for field in ("components", "controllable", "kappa", "kappa_vertex", "predicted_lie_dim"):
            assert getattr(again, field) == getattr(report, field), (field, seed)
        assert again.verdicts_agree
        if small:
            assert qw.verify_structure(other).dim == dim


def test_product_of_controllable_walks_is_controllable():
    spec = qw.product_walk(qw.cycle_shift(3), qw.cycle_shift(3))
    assert qw.analyze(spec).controllable
    assert qw.analyze(qw.torus(3, 5)).controllable


@pytest.mark.parametrize("n", range(3, 9))
def test_degree_above_half_implies_controllable(n):
    # complete graphs have d = n-1 > n/2
    assert qw.analyze(qw.complete(n)).controllable


@st.composite
def _dense_circulants(draw):
    """(n, S) with 3 <= n <= 60 and offsets S = -S (mod n), 0 not in S and
    |S| > n/2: pairs {s, n - s}, and n/2 itself when n is even."""
    n = draw(st.integers(3, 60))
    mid = n % 2 == 0 and draw(st.booleans())
    need = (n - 2 * mid) // 4 + 1  # pairs k with 2k + mid > n/2
    if need > (n - 1) // 2:  # n = 4 without n/2
        mid, need = True, (n - 2) // 4 + 1
    pairs = draw(st.lists(st.integers(1, (n - 1) // 2), min_size=need, unique=True))
    return n, sorted({*pairs, *(n - s for s in pairs), *([n // 2] if mid else [])})


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(walk=_dense_circulants(), seed=st.integers(0, 2**32 - 1))
def test_degree_above_half_implies_controllable_on_circulants(walk, seed):
    # the paper's theorem on any walk of degree d > N/2, here a circulant
    # graph, relabelled and split into other coins than its offsets
    n, offsets = walk
    assert len(offsets) > n / 2
    idx = np.arange(n)
    sigma = np.random.default_rng(seed).permutation(n)
    spec = qw.validate(n, [sigma[(idx + s) % n][np.argsort(sigma)] for s in offsets])
    report = qw.analyze(_redecompose(spec, seed))
    assert report.controllable and report.verdicts_agree


def test_reachability_lemma_on_random_specs():
    rng = np.random.default_rng(21)
    for _ in range(15):
        spec = random_spec(rng)
        kmax = 2 * spec.n
        all_sets = [qw.reachable_sets(spec, j, kmax) for j in range(spec.n)]
        for j in range(spec.n):
            for k in range(kmax + 1):
                for l in all_sets[j][k]:
                    # symmetry: l reachable from j in k steps iff conversely
                    assert j in all_sets[l][k]
        # composition on a random triple of levels
        for _ in range(10):
            j = int(rng.integers(spec.n))
            k = int(rng.integers(kmax // 2 + 1))
            s = int(rng.integers(kmax // 2 + 1))
            for l in all_sets[j][k]:
                for i in all_sets[j][s]:
                    assert i in all_sets[l][k + s]


def test_random_specs_properties():
    rng = np.random.default_rng(31)
    for _ in range(40):
        spec = random_spec(rng)
        comps = orbit_components(spec)
        assert len(comps) in (1, 2)
        assert comps == all_pairs_components(spec)
        rep = qw.analyze(spec)
        assert rep.verdicts_agree
        assert covering(spec) == boolean_power_kappa(spec)
        if len(comps) == 2:
            par = qw.parity_check(spec, 0)
            assert {frozenset(c) for c in comps} == {
                frozenset(par.even),
                frozenset(par.odd),
            }


def _mixed_cycles(rng, lengths):
    """P1 with disjoint cycles of the given lengths, P2 = P1^-1 and P3 a
    random perfect matching that avoids the cycle edges and connects the
    graph; the shift order is the lcm of the lengths."""
    n = sum(lengths)
    p1 = np.concatenate([np.roll(np.arange(s, s + k), -1) for s, k in
                         zip(np.cumsum((0,) + lengths[:-1]), lengths)])
    p2 = np.argsort(p1)
    while True:
        pairs = rng.permutation(n).reshape(-1, 2)
        p3 = np.empty(n, dtype=np.int64)
        p3[pairs[:, 0]], p3[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        try:
            return qw.validate(n, [p1, p2, p3])
        except (qw.CoinCollisionError, qw.DisconnectedError):
            continue


@functools.cache
def _oracle_walks():
    rng = np.random.default_rng(1006)
    walks = [random_spec(rng) for _ in range(300)]
    walks += [_mixed_cycles(rng, lengths) for lengths in ((3, 4, 5, 7, 9), (3, 4, 5, 7, 11))]
    walks += [qw.complete(n) for n in range(4, 31)]
    walks += [qw.torus(a, b) for a in range(3, 8) for b in range(a, 8)] + [qw.torus(9, 11)]
    walks += [qw.cycle_exchange(n) for n in range(4, 21, 2)]
    return walks


def test_residue_partition_matches_all_pairs_orbits():
    for spec in _oracle_walks():
        # all d(d-1)/2 pairs cost d^2 N^2 steps, a second on the complete
        # graphs past N = 16; there the (1, m) orbits stand in, which join
        # the same components (test_first_coin_pairs_give_all_pairs_components)
        first = 1 if spec.d == spec.n - 1 > 15 else None
        assert orbit_components(spec) == all_pairs_components(spec, first), spec


def test_packed_covering_search_matches_boolean_stepping():
    for spec in _oracle_walks():
        assert covering(spec) == stepped_covering_level(spec, list(range(spec.n))), spec
        for j in (0, spec.n - 1):
            found = stepped_covering_level(spec, [j])
            assert qw.k_of(spec, j) == (None if found is None else found[0]), (spec, j)


def test_packed_covering_search_spans_several_words():
    # 66 starts fill two 64-bit words; relabelling this walk's one vertex
    # that covers at level 6 as vertex 65 moves the least covering start
    # into the second word
    spec = _mixed_cycles(np.random.default_rng(3), (3, 4, 5, 7, 9, 11, 13, 14))
    level, v = covering(spec)
    sigma = np.arange(66)
    sigma[[v, 65]] = 65, v
    moved = qw.validate(66, [sigma[p.map[sigma]] for p in spec.perms])
    for walk in (spec, moved):
        assert covering(walk) == stepped_covering_level(walk, list(range(66)))
    assert covering(moved) == (level, 65)


def _word_boundary_walk():
    """A 138-vertex mixed-cycle walk, its least covering level, and the
    vertices that cover there (six), all from the adjacency matrix."""
    spec = _mixed_cycles(np.random.default_rng(3), (3, 4, 5, 7, 9, 11, 13, 14, 15, 16, 17, 24))
    level, _ = stepped_covering_level(spec, list(range(spec.n)))
    power = np.linalg.matrix_power(adjacency(spec), level)
    return spec, level, np.flatnonzero(power.all(axis=0)).tolist()


@pytest.mark.parametrize("m", [63, 64, 65, 128, 129])
def test_words_major_covering_search_at_word_boundaries(m):
    # m starts fill ceil(m / 64) words; the walk is relabelled so that one
    # vertex covering at the least level becomes start m - 1, the last bit of
    # the last word, and the others covering there become no start at all
    spec, level, first = _word_boundary_walk()
    rest = [v for v in range(spec.n) if v not in first]
    order = np.array(rest[:m - 1] + first[:1] + rest[m - 1:] + first[1:])
    sigma = np.argsort(order)  # old label -> new label
    moved = qw.validate(spec.n, [sigma[p[order]] for p in spec.maps])
    starts = list(range(m))
    assert controllability._covering_level(moved, starts) == (level, m - 1)
    assert stepped_covering_level(moved, starts) == (level, m - 1)
    assert covering(moved) == stepped_covering_level(moved, list(range(spec.n)))


def test_step_gathers_coins_in_blocks_of_bounded_size():
    # _step gathers at most 2^20 mask entries at a time: complete(8)'s 7
    # coins go in one block, in blocks of 2, 2, 2 and 1, and one at a time
    spec = qw.complete(8)
    rng = np.random.default_rng(4)
    for words in (2, 2**16, 2**17 + 1):
        mask = rng.integers(2**64 - 1, size=(words, 8), dtype=np.uint64, endpoint=True)
        want = np.zeros_like(mask)
        for p in spec.maps:
            want |= mask[:, p]
        assert np.array_equal(controllability._step(spec, mask), want)


@pytest.mark.parametrize("n", [64, 65, 129])
def test_reachable_sets_match_adjacency_stepping(n):
    spec = qw.cycle_shift(n)
    a = adjacency(spec)
    for j in (0, n - 1):
        mask = np.zeros(n, dtype=np.int64)
        mask[j] = 1
        want = []
        for _ in range(n + 3):
            want.append(set(np.flatnonzero(mask).tolist()))
            mask = (mask @ a > 0).astype(np.int64)
        assert qw.reachable_sets(spec, j, n + 2) == want


@pytest.mark.parametrize(
    "spec, level", [(qw.cycle_shift(100), 51), (qw.torus(4, 6), 6)], ids=["cycle100", "torus4x6"]
)
def test_level_returned_when_no_start_covers(monkeypatch, spec, level):
    # the level at which the exact-k sets equal those two levels back:
    # diameter + 1 on these bipartite walks, for every start and for all
    assert controllability._covering_level(spec, list(range(spec.n))) == (level, None)
    assert controllability._covering_level(spec, [spec.n - 1]) == (level, None)
    fake = controllability.ParityReport(m=1, witness=0, even=(), odd=())
    monkeypatch.setattr(controllability, "parity_check", lambda spec, j=0: fake)
    with pytest.raises(qw.CriterionConflictError, match=f"vertex 0 repeat at level {level} "):
        qw.k_of(spec, 0)


def reference_validate_error(n, perms):
    """The pairwise checks ``validate`` made before its sort-based ones,
    for bijections of length n: the error text, or None for a valid spec."""
    maps = [np.asarray(p) for p in perms]
    for i, p in enumerate(maps):
        fixed = np.flatnonzero(p == np.arange(n))
        if fixed.size:
            return f"SelfLoopError: permutation {i} fixes vertex {int(fixed[0])}"
    for i in range(len(maps)):
        for k in range(i + 1, len(maps)):
            hit = np.flatnonzero(maps[i] == maps[k])
            if hit.size:
                j = int(hit[0])
                return (f"CoinCollisionError: permutations {i} and {k} both send "
                        f"vertex {j} to {int(maps[i][j])}")
    adjacency = np.zeros((n, n), dtype=np.int64)
    for p in maps:
        adjacency[p, np.arange(n)] += 1
    asym = np.argwhere(adjacency != adjacency.T)
    if asym.size:
        l, j = (int(v) for v in asym[0])
        return f"NotSymmetricError: transition {j} -> {l} has no reverse transition {l} -> {j}"
    comps = components([np.flatnonzero(row).tolist() for row in adjacency])
    if len(comps) > 1:
        return f"DisconnectedError: graph is disconnected; vertices {comps[0]} form a component"
    return None


def _corrupted_specs(rng):
    """(n, perms) pairs with self-loops, several collisions, asymmetric
    image sets or two components, from the oracle walks."""
    walks = _oracle_walks()[::3]
    for spec in walks:
        n, maps = spec.n, [p.map.copy() for p in spec.perms]
        loops = [m.copy() for m in maps]
        for _ in range(int(rng.integers(1, 4))):
            p, j = loops[int(rng.integers(spec.d))], int(rng.integers(n))
            k = int(np.flatnonzero(p == j)[0])
            p[k], p[j] = p[j], j
        yield n, loops
        # P_k = P_i tau, with tau fixing about half the vertices: collisions
        # at every fixed point, between two or three coin pairs
        clash = [m.copy() for m in maps]
        for _ in range(2):
            i, k = rng.choice(spec.d, 2, replace=False)
            tau = np.arange(n)
            moved = rng.choice(n, n // 2, replace=False)
            tau[moved] = rng.permutation(moved)
            clash[k] = clash[i][tau]
        yield n, clash
        # a last permutation that fixes nothing and collides with none of
        # the others; a dense walk may leave no room for one
        for _ in range(50):
            last = rng.permutation(n)
            if not any((last == m).any() for m in [np.arange(n)] + maps[:-1]):
                yield n, maps[:-1] + [last]
                break
        relabel = rng.permutation(2 * n)
        yield 2 * n, [relabel[np.concatenate([m, m + n])[np.argsort(relabel)]] for m in maps]


def test_validate_errors_match_pairwise_reference():
    rng = np.random.default_rng(2405)
    seen = set()
    for n, perms in _corrupted_specs(rng):
        try:
            qw.validate(n, perms)
            got = None
        except qw.SpecValidationError as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == reference_validate_error(n, perms)
        seen.add(None if got is None else got.split(":")[0])
    assert {"SelfLoopError", "CoinCollisionError", "NotSymmetricError", "DisconnectedError"} <= seen
