"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its runtime (visible with
``pytest -s``); a failed assertion is the FAIL signal.  Expected values
marked as derived were computed with the stated independent oracles and
frozen here; see the test bodies for the oracles.
"""

import time

import numpy as np
import pytest

import qwalk as qw

from reference import coin_matrix, shift_matrix
from sampling import random_coin_op, random_spec, random_walk_state

SEED = 0


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def check(self, label):
        assert self.elapsed < self.limit, (
            f"{label} took {self.elapsed:.1f}s, limit {self.limit}s"
        )
        print(f"PASS {label} ({self.elapsed:.2f}s)")


def test_criterion_1_odd_cycle_five():
    with Timer(5.0) as t:
        c5 = qw.cycle_shift(5)
        report = qw.analyze(c5)
        assert report.m == 1 and report.controllable
        assert report.kappa == 4
        assert report.step_bound == 13 == 2 * (5 - 1) + 5
        closure = qw.verify_structure(c5)
        assert closure.dim == 100

        rng = np.random.default_rng(SEED)
        for _ in range(20):
            psi1 = random_walk_state(rng, c5)
            psi2 = random_walk_state(rng, c5)
            seq = qw.arbitrary_transfer(c5, psi1, psi2)
            assert len(seq) <= 10
            fid = qw.state_fidelity(psi2, qw.apply_sequence(psi1, seq, c5))
            assert fid >= 1 - 1e-9
    t.check("criterion 1: odd cycle N=5 analysis, closure and 20 transfers")


def test_criterion_2_even_cycle_four_both_variants():
    with Timer(5.0) as t:
        shift = qw.cycle_shift(4)
        exchange = qw.cycle_exchange(4)
        r_shift = qw.analyze(shift)
        r_exchange = qw.analyze(exchange)
        assert r_shift == r_exchange  # controllability depends on the graph only
        assert r_shift.m == 2
        assert r_shift.components == ((0, 2), (1, 3))

        # Lie dimension derived via the closure oracle. The frozen value is 32
        # = 16 + 16 (one full unitary block per component); the independent
        # combinatorial prediction and the numerical closure must agree on it.
        for spec in (shift, exchange):
            closure = qw.verify_structure(spec)
            assert closure.predicted == 32
            assert closure.dim == 32
            assert closure.match and closure.block_diagonal_ok

        rng = np.random.default_rng(SEED)
        psi1 = qw.basis_state(shift, 0, 0)
        psi2 = qw.basis_state(shift, 0, 1)  # crosses the even/odd partition
        for spec in (shift, exchange):
            with pytest.raises(qw.NotControllableError):
                qw.arbitrary_transfer(spec, psi1, psi2)
            with pytest.raises(qw.NotControllableError):
                qw.arbitrary_transfer(
                    spec, random_walk_state(rng, spec), random_walk_state(rng, spec)
                )
    t.check("criterion 2: even cycle N=4, both variants, identical reports")


def test_criterion_3_figure1_walk():
    with Timer(60.0) as t:
        fig = qw.figure1()
        sets = qw.reachable_sets(fig, 0, 3)
        assert sets[1] == {1, 3, 5}
        assert sets[2] == {0, 1, 2, 4, 5}
        assert sets[3] == {0, 1, 2, 3, 4, 5}

        target = qw.TargetSpread(tuple(range(6)), np.full(6, 1 / np.sqrt(6)))
        seq, _ = qw.spread_from_node(fig, 0, 0, target, 3)
        assert len(seq) == 3
        out = qw.apply_sequence(qw.basis_state(fig, 0, 0), seq, fig)
        probs = qw.position_probabilities(out)
        assert np.abs(probs - 1 / 6).max() <= 1e-9

        closure = qw.verify_structure(fig)
        assert closure.dim == 324 == 18 * 18
    t.check("criterion 3: figure1 reachability, uniform spread, closure 324")


def test_criterion_4_degree_above_half():
    with Timer(2.0) as t:
        for n in (*range(3, 9), 100):
            report = qw.analyze(qw.complete(n))
            assert report.controllable, f"complete({n})"
    t.check("criterion 4: complete graphs N=3..8 and N=100 all controllable")


def test_criterion_5_products():
    with Timer(10.0) as t:
        assert qw.analyze(qw.torus(3, 3)).controllable
        assert qw.analyze(qw.torus(3, 5)).controllable
        t44 = qw.torus(4, 4)
        report = qw.analyze(t44)
        par = qw.parity_check(t44, 0)
        assert report.m == 2 == par.m  # bipartite product splits by parity
        assert {frozenset(c) for c in report.components} == {
            frozenset(par.even),
            frozenset(par.odd),
        }
        assert report.verdicts_agree
    t.check("criterion 5: torus products controllable / parity split agrees")


def _criterion_specs():
    rng = np.random.default_rng(SEED)
    return [random_spec(rng) for _ in range(200)]


def test_criterion_6_randomized_equivalence_suite():
    with Timer(120.0) as t:
        for spec in _criterion_specs():
            report = qw.analyze(spec)
            assert report.verdicts_agree, (spec.n, spec.d)
            assert report.m in (1, 2)
            if spec.d * spec.n <= 16:
                closure = qw.verify_structure(spec)
                assert closure.match, (spec.n, spec.d, closure.dim, closure.predicted)
    t.check("criterion 6: 200 random specs, criteria agree, closures match")


def test_criterion_7_reachability_lemma():
    with Timer(600.0) as t:
        rng = np.random.default_rng(SEED + 1)
        for spec in _criterion_specs():
            kmax = 2 * spec.n
            sets = [qw.reachable_sets(spec, j, kmax) for j in range(spec.n)]
            for j in range(spec.n):
                for k in range(kmax + 1):
                    for l in sets[j][k]:
                        assert j in sets[l][k]
            # composition, spot-checked on random level pairs
            j = int(rng.integers(spec.n))
            for _ in range(5):
                k = int(rng.integers(spec.n))
                s = int(rng.integers(spec.n))
                for l in sets[j][k]:
                    for i in sets[j][s]:
                        assert i in sets[l][k + s]
    t.check("criterion 7: reachability symmetry and composition on all specs")


def test_criterion_8_simulation_exactness():
    with Timer(60.0) as t:
        rng = np.random.default_rng(SEED)
        checked = 0
        while checked < 50:
            spec = random_spec(rng)
            if spec.d * spec.n > 24:
                continue
            state = random_walk_state(rng, spec)
            coin = random_coin_op(rng, spec)
            fast = qw.step(state, coin, spec)
            dense = shift_matrix(spec) @ coin_matrix(coin) @ state.amps
            assert np.abs(fast.amps - dense).max() < 1e-12
            checked += 1
    t.check("criterion 8: step equals dense matrix product on 50 instances")


def test_criterion_9_large_shift_order():
    # P1 has cycles of lengths 3, 4, 5, 7, 9, 11 and 13 on consecutive
    # blocks, so the shift order is their lcm while N stays 52.
    lengths = (3, 4, 5, 7, 9, 11, 13)
    p1, start = [], 0
    for length in lengths:
        p1 += [start + (i + 1) % length for i in range(length)]
        start += length
    n = start
    p2 = np.empty(n, dtype=np.int64)
    p2[p1] = np.arange(n)
    p3 = (np.arange(n) + n // 2) % n
    with Timer(2.0) as t:
        spec = qw.validate(n, [p1, p2, p3])
        assert qw.shift_order(spec) == 180180
        report = qw.analyze(spec)
        assert report.controllable
        assert (report.kappa, report.kappa_vertex) == (7, 2)
        assert report.step_bound == 180194 == 2 * 7 + 180180
        assert report.verdicts_agree

        rng = np.random.default_rng(SEED)
        psi1 = random_walk_state(rng, spec)
        psi2 = random_walk_state(rng, spec)
        seq = qw.arbitrary_transfer(spec, psi1, psi2)
        assert len(seq) <= 2 * 7 + 1
        assert qw.state_fidelity(psi2, qw.apply_sequence(psi1, seq, spec)) >= 1 - 1e-9
        # psi2 is not on the level-0 set, and refusing it must not cost
        # time in the shift order
        with pytest.raises(qw.UnreachableError):
            qw.reach_full_state(spec, 0, 0, psi2, 0)
    t.check("criterion 9: N=52 walk with shift order 180180 analyzed, one transfer")


@pytest.mark.parametrize(
    "build, kappa",
    [(lambda: qw.complete(200), 2), (lambda: qw.torus(31, 33), 31), (lambda: qw.cycle_shift(1001), 1000)],
    ids=["complete200", "torus31x33", "cycle1001"],
)
def test_ladder_walks_analyzed_in_seconds(build, kappa):
    # the orbit criterion and the covering search cost O(dN) array work per
    # level here; the pair walks and N x N masks they replace took 2.5-5 s
    spec = build()
    with Timer(5.0) as t:
        report = qw.analyze(spec)
    assert report.controllable and report.verdicts_agree
    assert report.kappa == kappa
    t.check(f"ladder: analyze on N={spec.n}, d={spec.d}")


def test_ladder_validate_complete_1000_in_seconds():
    idx = np.arange(1000)
    perms = [(idx + k) % 1000 for k in range(1, 1000)]
    with Timer(5.0) as t:
        spec = qw.validate(1000, perms)
    assert sorted(spec.maps[:, 0].tolist()) == list(range(1, 1000))
    t.check("ladder: validate complete(1000)")
