"""Walk validation, permutation algebra, named walks and products."""

import math

import numpy as np
import pytest

import qwalk as qw
from qwalk.graph_model import Permutation, cycle_table

from sampling import random_spec


def cycles(p):
    """p's cycles read off the package's cycle table, fixed points as
    singletons: each from its least vertex, sorted by that vertex."""
    root, pos, _ = cycle_table(p.map[None])
    by_cycle = np.lexsort((pos, root))
    cuts = np.flatnonzero(np.diff(root[by_cycle])) + 1
    return [tuple(c.tolist()) for c in np.split(by_cycle, cuts)]


def order(p):
    return math.lcm(*(len(c) for c in cycles(p)))


def identity(n):
    return Permutation(np.arange(n))


def inverse(p):
    return Permutation(np.argsort(p.map))


def compose(p, q):
    """Right-to-left composition: compose(p, q)(j) == p(q(j))."""
    return Permutation(p.map[q.map])


def power(p, k):
    """k-th power by repeated composition; negative exponents allowed."""
    result = identity(p.n)
    for _ in range(k % order(p)):
        result = compose(p, result)
    return result


def cycle_notation(p):
    """Display form; fixed points omitted, identity prints ``()``."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles(p) if len(c) > 1) or "()"


def adjacency(spec):
    """N x N counts of the coins joining each vertex to each other, read off
    the neighbour lists: entry (j, u) counts u among the neighbours of j."""
    a = np.zeros((spec.n, spec.n), dtype=np.int64)
    for j in range(spec.n):
        np.add.at(a[j], spec.maps[:, j], 1)
    return a


def test_figure1_is_valid(fig):
    assert fig.n == 6 and fig.d == 3
    assert adjacency(fig).sum(axis=0).tolist() == [3] * 6
    assert adjacency(fig).sum(axis=1).tolist() == [3] * 6


def test_cycle5_is_valid(c5):
    assert c5.d == 2
    # ring adjacency: each vertex joined to its two neighbours
    for j in range(5):
        assert sorted(c5.maps[:, j].tolist()) == sorted({(j + 1) % 5, (j - 1) % 5})


def test_identity_permutation_rejected_as_self_loop():
    with pytest.raises(qw.SelfLoopError, match="fixes vertex 0"):
        qw.validate(4, [[0, 1, 2, 3], [1, 2, 3, 0]])


def test_not_bijection():
    with pytest.raises(qw.NotBijectionError):
        qw.validate(4, [[1, 1, 2, 3], [1, 2, 3, 0]])
    with pytest.raises(qw.NotBijectionError):
        Permutation([0, 1, 5])


def test_bool_images_are_not_integers():
    # numpy reads a list holding a bool as an int array, [1, 2, 0] here
    with pytest.raises(qw.NotBijectionError, match=r"images must be integers: \[True, 2, 0\]"):
        qw.validate(3, [[True, 2, 0], [2, 0, 1]])
    with pytest.raises(qw.NotBijectionError, match="images must be integers"):
        Permutation((1, np.False_, 2))


@pytest.mark.parametrize("image", [1e308, -1e308, 2.0 ** 63, -(2.0 ** 63)])
def test_images_past_int64_are_not_integers(image):
    # int64 cannot hold them: a cast would warn and give -2**63
    with pytest.raises(qw.NotBijectionError, match=r"images must be integers: \[1.0, 2.0, 3.0, 4.0, "):
        qw.validate(5, [[1, 2, 3, 4, image], [4, 0, 1, 2, 3]])
    with pytest.raises(qw.NotBijectionError, match="images out of range 0..4"):
        qw.validate(5, [[1, 2, 3, 4, 2.0 ** 62], [4, 0, 1, 2, 3]])


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


def test_validate_vertex_count_is_an_integer():
    perms = [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]
    for n in (5, 5.0, np.int64(5), np.float64(5.0)):
        spec = qw.validate(n, perms)
        assert type(spec.n) is int and spec.n == 5
    for n in (5.5, "5", True, None, float("nan"), [5]):
        with pytest.raises(qw.SpecValidationError, match="vertex count must be an integer"):
            qw.validate(n, perms)


def test_compose_with_inverse_is_identity():
    p = Permutation([1, 2, 0])
    assert compose(p, inverse(p)) == identity(3)
    assert compose(inverse(p), p) == identity(3)


def test_inverse_shift_composition_is_double_step(c5):
    # applying the forward shift then the inverse of the backward shift
    # advances two positions: one full 5-cycle
    sp, sm = c5.perms
    q = compose(inverse(sm), sp)
    assert q == compose(sp, sp)
    assert cycles(q) == [(0, 2, 4, 1, 3)]
    assert order(q) == 5


def test_cross_pairing_has_order_two(fig):
    assert order(fig.perms[2]) == 2
    assert cycles(fig.perms[2]) == [(0, 3), (1, 5), (2, 4)]


def test_power_and_order():
    p = Permutation([1, 2, 3, 4, 0])
    assert power(p, 5) == identity(5)
    assert power(p, -1) == inverse(p)
    assert power(p, 0) == identity(5)
    assert power(p, 7) == compose(p, p)
    assert order(p) == 5


def test_cycles_cover_fixed_points():
    p = Permutation([0, 2, 1])
    assert cycles(p) == [(0,), (1, 2)]
    assert cycle_notation(p) == "(1 2)"
    assert cycle_notation(identity(3)) == "()"


def test_string_entries_are_not_image_arrays():
    # a string, cycle notation included, fails the integer rule before any
    # n-length array is built, whatever n is
    with pytest.raises(qw.NotBijectionError, match=r"^images must be integers: \(0 1 2 3 4\)$"):
        qw.validate(5, ["(0 1 2 3 4)", [4, 0, 1, 2, 3]])
    with pytest.raises(qw.NotBijectionError, match=r"^images must be integers: \(0 1\)$"):
        qw.validate(10 ** 12, ["(0 1)", "(1 2)"])


def test_product_walk_torus():
    t = qw.torus(3, 3)
    assert t.n == 9 and t.d == 4
    # first lifted permutation acts on the first factor only: (1,2) -> (2,2)
    assert t.maps[0, 1 * 3 + 2] == 2 * 3 + 2


def test_product_walk_5x3_validates():
    t = qw.product_walk(qw.cycle_shift(5), qw.cycle_shift(3))
    assert t.n == 15 and t.d == 4
    assert adjacency(t).sum(axis=0).tolist() == [4] * 15


def test_cycle_exchange_maps():
    x = qw.cycle_exchange(4)
    assert x.perms[0].map.tolist() == [1, 0, 3, 2]
    assert x.perms[1].map.tolist() == [3, 2, 1, 0]


def test_cycle_exchange_odd_parity_error():
    with pytest.raises(qw.ParityError, match="even"):
        qw.cycle_exchange(5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: qw.cycle_shift(float("nan")), qw.SpecValidationError, "n must be an integer >= 1, got nan"),
    (lambda: qw.cycle_shift(1e308), qw.SpecValidationError, "n 1e+308 is not below 2**63"),
    (lambda: qw.cycle_shift(None), qw.SpecValidationError, "n must be an integer >= 1, got None"),
    (lambda: qw.complete(1.5), qw.SpecValidationError, "n must be an integer >= 1, got 1.5"),
    (lambda: qw.cycle_exchange(6.5), qw.SpecValidationError, "n must be an integer >= 1, got 6.5"),
    (lambda: qw.torus(3, 2**63), qw.SpecValidationError, f"n2 {2**63} is not below 2**63"),
    (lambda: qw.CoinOp.from_blocks(-1, 5, [], []), qw.DimensionMismatchError,
     "coin d must be an integer >= 1, got -1"),
    (lambda: qw.CoinOp.from_blocks(2, -1, [], []), qw.DimensionMismatchError,
     "coin n must be an integer >= 1, got -1"),
    (lambda: qw.CoinOp.from_blocks(2.5, 5, [], []), qw.DimensionMismatchError,
     "coin d must be an integer >= 1, got 2.5"),
], ids=["nan", "1e308", "None", "complete-1.5", "exchange-6.5", "torus-2**63",
        "from_blocks-d", "from_blocks-n", "from_blocks-2.5"])
def test_bad_sizes_raise_named_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_integral_float_sizes_build_the_same_walk():
    for build, size in ((qw.cycle_shift, 5), (qw.cycle_exchange, 6), (qw.complete, 5)):
        assert np.array_equal(build(float(size)).maps, build(size).maps)
    assert qw.CoinOp.from_blocks(2.0, 5.0, [], []).blocks.shape == (5, 2, 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_adjacency_is_all_ones_off_diagonal(n):
    spec = qw.complete(n)
    expected = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    assert np.array_equal(adjacency(spec), expected)


def test_row_and_column_sums_equal_degree_and_dn_even():
    gallery = [qw.cycle_shift(n) for n in range(3, 9)]
    gallery += [qw.cycle_exchange(n) for n in (4, 6, 8)]
    gallery += [qw.figure1(), qw.complete(5), qw.torus(3, 4)]
    for spec in gallery:
        assert adjacency(spec).sum(axis=0).tolist() == [spec.d] * spec.n
        assert adjacency(spec).sum(axis=1).tolist() == [spec.d] * spec.n
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
        lengths = [{len(c) for c in cycles(p)} for p in spec.perms]
        if lengths == [{spec.n}, {spec.n}]:  # one n-cycle and its inverse
            assert spec.perms[1] == inverse(spec.perms[0])
        else:  # two fixed-point-free involutions
            assert lengths == [{2}, {2}]


def test_immutability():
    spec = qw.cycle_shift(4)
    with pytest.raises(ValueError):
        spec.maps[0, 0] = 2
    with pytest.raises(ValueError):
        spec.perms[0].map[0] = 2
