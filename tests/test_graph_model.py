"""Walk validation, permutation algebra, named walks and products."""

import numpy as np
import pytest

import qwalk as qw
from qwalk.graph_model import Permutation
from qwalk.sampling import random_spec


def test_figure1_is_valid(fig):
    assert fig.n == 6 and fig.d == 3
    assert fig.adjacency.sum(axis=0).tolist() == [3] * 6
    assert fig.adjacency.sum(axis=1).tolist() == [3] * 6


def test_cycle5_is_valid(c5):
    assert c5.d == 2
    # ring adjacency: each vertex joined to its two neighbours
    for j in range(5):
        assert sorted(c5.neighbors(j)) == sorted({(j + 1) % 5, (j - 1) % 5})


def test_identity_permutation_rejected_as_self_loop():
    with pytest.raises(qw.SelfLoopError, match="fixes vertex 0"):
        qw.validate(4, [[0, 1, 2, 3], [1, 2, 3, 0]])


def test_not_bijection():
    with pytest.raises(qw.NotBijectionError):
        qw.validate(4, [[1, 1, 2, 3], [1, 2, 3, 0]])
    with pytest.raises(qw.NotBijectionError):
        Permutation([0, 1, 5])


def test_coin_collision_names_vertices():
    with pytest.raises(qw.CoinCollisionError, match="0 and 1 both send vertex 0"):
        qw.validate(4, [[1, 2, 3, 0], [1, 0, 3, 2]])


def test_not_symmetric():
    # a 4-cycle one way plus the double-step involution: edge sums are not symmetric
    with pytest.raises(qw.NotSymmetricError):
        qw.validate(4, [[1, 2, 3, 0], [2, 3, 0, 1]])


def test_disconnected_two_triangles():
    p = [1, 2, 0, 4, 5, 3]
    q = [2, 0, 1, 5, 3, 4]
    with pytest.raises(qw.DisconnectedError):
        qw.validate(6, [p, q])


def test_validate_length_and_count_errors():
    with pytest.raises(qw.LengthMismatchError):
        qw.validate(4, [[1, 0, 3, 2], [1, 0, 2]])
    with pytest.raises(qw.SpecValidationError):
        qw.validate(4, [[1, 0, 3, 2]])
    with pytest.raises(qw.SpecValidationError):
        qw.validate(2, [[1, 0], [1, 0]])


def test_compose_with_inverse_is_identity():
    p = Permutation([1, 2, 0])
    assert p.compose(p.inverse()) == Permutation.identity(3)
    assert p.inverse().compose(p) == Permutation.identity(3)


def test_inverse_shift_composition_is_double_step(c5):
    # applying the forward shift then the inverse of the backward shift
    # advances two positions: one full 5-cycle
    sp, sm = c5.perms
    q = sm.inverse().compose(sp)
    assert q == sp.compose(sp)
    assert q.cycles() == [(0, 2, 4, 1, 3)]
    assert q.order() == 5


def test_cross_pairing_has_order_two(fig):
    assert fig.perms[2].order() == 2
    assert fig.perms[2].cycles() == [(0, 3), (1, 5), (2, 4)]


def test_power_and_order():
    p = Permutation([1, 2, 3, 4, 0])
    assert p.power(5) == Permutation.identity(5)
    assert p.power(-1) == p.inverse()
    assert p.power(0) == Permutation.identity(5)
    assert p.power(7) == p.compose(p)
    assert p.order() == 5


def test_cycles_cover_fixed_points():
    p = Permutation([0, 2, 1])
    assert p.cycles() == [(0,), (1, 2)]
    assert p.cycle_notation() == "(1 2)"
    assert Permutation.identity(3).cycle_notation() == "()"


def test_compose_length_mismatch():
    with pytest.raises(qw.LengthMismatchError):
        Permutation([1, 0]).compose(Permutation([1, 2, 0]))


def test_cycle_notation_parser():
    p = Permutation.from_cycles("(0 1 2 3 4 5)", 6)
    assert p.map.tolist() == [1, 2, 3, 4, 5, 0]
    q = Permutation.from_cycles("(0 3)(1 5)(2 4)", 6)
    assert q.map.tolist() == [3, 5, 4, 0, 2, 1]
    assert Permutation.from_cycles(q.cycle_notation(), 6) == q
    with pytest.raises(qw.NotBijectionError):
        Permutation.from_cycles("(0 1)(1 2)", 4)
    with pytest.raises(qw.SpecValidationError):
        Permutation.from_cycles("0 1 2", 3)


def test_spec_accepts_cycle_strings():
    spec = qw.validate(6, ["(0 1 2 3 4 5)", "(0 5 4 3 2 1)", "(0 3)(1 5)(2 4)"])
    assert all(p == q for p, q in zip(spec.perms, qw.figure1().perms))


def test_product_walk_torus():
    t = qw.torus(3, 3)
    assert t.n == 9 and t.d == 4
    # first lifted permutation acts on the first factor only: (1,2) -> (2,2)
    assert t.perms[0](1 * 3 + 2) == 2 * 3 + 2


def test_product_walk_5x3_validates():
    t = qw.product_walk(qw.cycle_shift(5), qw.cycle_shift(3))
    assert t.n == 15 and t.d == 4
    assert t.adjacency.sum(axis=0).tolist() == [4] * 15


def test_cycle_exchange_maps():
    x = qw.cycle_exchange(4)
    assert x.perms[0].map.tolist() == [1, 0, 3, 2]
    assert x.perms[1].map.tolist() == [3, 2, 1, 0]


def test_cycle_exchange_odd_parity_error():
    with pytest.raises(qw.ParityError, match="even"):
        qw.cycle_exchange(5)


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_adjacency_is_all_ones_off_diagonal(n):
    spec = qw.complete(n)
    expected = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    assert np.array_equal(spec.adjacency, expected)


def test_row_and_column_sums_equal_degree_and_dn_even():
    gallery = [qw.cycle_shift(n) for n in range(3, 9)]
    gallery += [qw.cycle_exchange(n) for n in (4, 6, 8)]
    gallery += [qw.figure1(), qw.complete(5), qw.torus(3, 4)]
    for spec in gallery:
        assert spec.adjacency.sum(axis=0).tolist() == [spec.d] * spec.n
        assert spec.adjacency.sum(axis=1).tolist() == [spec.d] * spec.n
        assert (spec.d * spec.n) % 2 == 0


def test_product_of_random_specs_validates():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_spec(rng)
        b = random_spec(rng)
        prod = qw.product_walk(a, b)  # validate() runs inside
        assert prod.d == a.d + b.d
        assert prod.n == a.n * b.n


def test_degree2_random_specs_fall_into_the_two_families():
    rng = np.random.default_rng(5)
    for _ in range(25):
        spec = random_spec(rng, d=2) if rng.integers(2) else random_spec(rng)
        if spec.d != 2:
            continue
        lengths = [{len(c) for c in p.cycles()} for p in spec.perms]
        if lengths == [{spec.n}, {spec.n}]:  # one n-cycle and its inverse
            assert spec.perms[1] == spec.perms[0].inverse()
        else:  # two fixed-point-free involutions
            assert lengths == [{2}, {2}]


def test_immutability():
    spec = qw.cycle_shift(4)
    with pytest.raises(ValueError):
        spec.adjacency[0, 0] = 5
    with pytest.raises(ValueError):
        spec.perms[0].map[0] = 2
