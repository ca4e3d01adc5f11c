"""The three controllability criteria and their cross-checks."""

import numpy as np
import pytest

import qwalk as qw
from qwalk import controllability
from qwalk.controllability import connected_components, reduced_connectivity_graph
from qwalk.sampling import random_spec


def brute_joint_orbit(spec, l, m):
    """Oracle: enumerate (P_l^k j, P_m^k j) with naive permutation powers."""
    r = qw.shift_order(spec)
    pairs = set()
    for k in range(r):
        pl = spec.perms[l - 1].power(k)
        pm = spec.perms[m - 1].power(k)
        for j in range(spec.n):
            pairs.add((pl(j), pm(j)))
    return pairs


def all_pairs_components(spec):
    """Oracle: components of the reduced graph built from every coin pair
    l < m, not only the pairs (1, m)."""
    adj = [set() for _ in range(spec.n)]
    for l in range(1, spec.d + 1):
        for m in range(l + 1, spec.d + 1):
            for x, y in qw.joint_orbit(spec, l, m):
                adj[x].add(y)
                adj[y].add(x)
    return connected_components(adj)


def boolean_power_kappa(spec):
    """Oracle: least (k, j) with column j of the boolean k-th power of the
    adjacency matrix all true, for k up to 3N."""
    a = spec.adjacency > 0
    power = np.eye(spec.n, dtype=bool)
    for k in range(3 * spec.n + 1):
        full = np.flatnonzero(power.all(axis=0))
        if full.size:
            return k, int(full[0])
        power = (power.astype(np.int64) @ a.astype(np.int64)) > 0
    return None


def test_joint_orbit_equal_labels_is_diagonal(c5, fig):
    for spec in (c5, fig):
        for l in range(1, spec.d + 1):
            orbit = qw.joint_orbit(spec, l, l)
            assert orbit == {(j, j) for j in range(spec.n)}
            assert isinstance(orbit, frozenset)


def test_joint_orbit_contains_diagonal(fig):
    for l in range(1, 4):
        for m in range(1, 4):
            assert {(j, j) for j in range(6)} <= qw.joint_orbit(fig, l, m)


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
                assert qw.joint_orbit(spec, l, m) == brute_joint_orbit(spec, l, m)


def test_joint_orbit_examples(c5, fig):
    # opposite cycle directions: pairs (j+k, j-k), so (2, 3) arises at k=2, j=0
    assert (2, 3) in qw.joint_orbit(c5, 1, 2)
    # forward shift vs cross pairing at k=1, j=0: (1, 3)
    assert (1, 3) in qw.joint_orbit(fig, 1, 3)


def test_joint_orbit_index_errors(c5):
    with pytest.raises(qw.IndexOutOfRangeError):
        qw.joint_orbit(c5, 0, 1)
    with pytest.raises(qw.IndexOutOfRangeError):
        qw.joint_orbit(c5, 1, 3)


def test_reduced_graph_components_on_cycles(c4, c5):
    assert connected_components(reduced_connectivity_graph(c5)) == [[0, 1, 2, 3, 4]]
    assert connected_components(reduced_connectivity_graph(c4)) == [[0, 2], [1, 3]]


def test_first_coin_pairs_give_all_pairs_components():
    walks = [qw.figure1(), qw.torus(4, 4), qw.torus(3, 5), qw.cycle_exchange(8),
             _mixed_cycle_walk()]
    walks += [qw.complete(n) for n in range(3, 13)]
    for spec in walks:
        assert connected_components(reduced_connectivity_graph(spec)) == all_pairs_components(spec)


def test_analyze_walks_d_minus_one_joint_orbits(monkeypatch):
    calls = []
    orbit = controllability.joint_orbit

    def counting_orbit(spec, l, m):
        calls.append((l, m))
        return orbit(spec, l, m)

    monkeypatch.setattr(controllability, "joint_orbit", counting_orbit)
    for spec in (qw.figure1(), qw.complete(8)):
        calls.clear()
        qw.analyze(spec)
        assert len(calls) == spec.d - 1


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_graphs_connected(n):
    comps = connected_components(reduced_connectivity_graph(qw.complete(n)))
    assert len(comps) == 1


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
    assert r.sizes == (2, 2)
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
    assert qw.kappa(c5) == (4, 0)
    assert qw.kappa(fig) == (3, 0)
    assert qw.kappa(qw.cycle_shift(6)) is None


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
    for search in (lambda: qw.kappa(spec), lambda: qw.k_of(spec, 0)):
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
    with pytest.raises(qw.CriterionConflictError, match="any vertex repeat at level"):
        qw.kappa(c6)
    with pytest.raises(qw.CriterionConflictError, match="vertex 0 repeat at level"):
        qw.k_of(c6, 0)


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
    monkeypatch.setattr(controllability, "kappa", lambda spec: None)
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


def test_product_of_controllable_walks_is_controllable():
    spec = qw.product_walk(qw.cycle_shift(3), qw.cycle_shift(3))
    assert qw.analyze(spec).controllable
    assert qw.analyze(qw.torus(3, 5)).controllable


@pytest.mark.parametrize("n", range(3, 9))
def test_degree_above_half_implies_controllable(n):
    # complete graphs have d = n-1 > n/2
    assert qw.analyze(qw.complete(n)).controllable


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
        comps = connected_components(reduced_connectivity_graph(spec))
        assert len(comps) in (1, 2)
        assert comps == all_pairs_components(spec)
        rep = qw.analyze(spec)
        assert rep.verdicts_agree
        assert qw.kappa(spec) == boolean_power_kappa(spec)
        if len(comps) == 2:
            par = qw.parity_check(spec, 0)
            assert {frozenset(c) for c in comps} == {
                frozenset(par.even),
                frozenset(par.odd),
            }
