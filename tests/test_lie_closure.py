"""Generator construction and bracket-closure dimension checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwalk as qw
from qwalk.lie_closure import (
    DEFAULT_TOL,
    _ZERO_NORM,
    GeneratorBasis,
    _closure,
    _meets,
    _SpanBuilder,
    _vectorize,
)

from sampling import drawn_walk, random_spec
from test_controllability import _redecompose, joint_orbit

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def pairwise_generator_basis(spec):
    """Reference: the generators built one dense matrix at a time, the
    admissible position pairs ((l, r), (m, s)), l != m, read off the
    (l, m) joint orbit."""
    d, n = spec.d, spec.n
    side = d * n
    orbits = {
        (l, m): joint_orbit(spec, l, m)
        for l in range(1, d + 1)
        for m in range(l + 1, d + 1)
    }
    mats = []
    for a in range(side):
        g = np.zeros((side, side), dtype=np.complex128)
        g[a, a] = 1j
        mats.append(g)
    for a in range(side):
        l, r = divmod(a, n)
        for b in range(a + 1, side):
            m, s = divmod(b, n)
            if l == m:
                continue
            if (r, s) not in orbits[(l + 1, m + 1)]:
                continue
            real = np.zeros((side, side), dtype=np.complex128)
            real[a, b] = 1.0
            real[b, a] = -1.0
            imag = np.zeros((side, side), dtype=np.complex128)
            imag[a, b] = 1j
            imag[b, a] = 1j
            mats.extend([real, imag])
    return GeneratorBasis(mats=mats)


def _devectorize(vec, side, iu):
    """The skew-Hermitian matrix of real coordinates, the inverse of
    ``_vectorize``."""
    k = iu[0].size
    mat = np.zeros((side, side), dtype=np.complex128)
    mat[iu] = vec[side:side + k] + 1j * vec[side + k:]
    mat -= mat.conj().T
    mat[np.arange(side), np.arange(side)] = 1j * vec[:side]
    return mat


def reference_closure(basis, tol=1e-9):
    """Sequential closure without the batched filter, the skip test or block
    offers: every bracket is offered, and the span is grown one stacked row
    at a time.  [F, B] is formed as P^H - P with P = B F over the columns S
    that F touches, the product the filter forms, so that dense elements
    round alike; for elementary matrices every product is exact anyway.
    A generator is zero below _ZERO_NORM times the basis' largest entry."""
    side, iu = basis.side, np.triu_indices(basis.side, 1)
    rows, mats = np.zeros((0, side * side)), []

    def offer(mat, floor=_ZERO_NORM):
        nonlocal rows
        vec = _vectorize(mat, iu)
        pre = float(np.linalg.norm(vec))
        if pre < floor:
            return False
        for _ in range(2):
            vec = vec - rows.T @ (rows @ vec)
        residual = float(np.linalg.norm(vec))
        threshold = tol * pre
        if threshold / 10.0 <= residual <= threshold * 10.0:
            raise qw.ToleranceDegenerateError(
                f"residual {residual:.3e} within a factor 10 of threshold "
                f"{threshold:.3e}; rank decision ambiguous"
            )
        if residual <= threshold:
            return False
        rows = np.vstack([rows, vec / residual])
        mats.append(_devectorize(vec / residual, side, iu))
        return True

    peak = max(float(np.abs(_vectorize(mat, iu)).max()) for mat in basis.mats)
    for mat in basis.mats:
        offer(mat, _ZERO_NORM * (peak or 1.0))
    frontier = list(range(len(mats)))
    iterations = 0
    while frontier and len(mats) < side * side:
        iterations += 1
        new = []
        for f in frontier:
            if len(mats) >= side * side:
                break
            s = np.flatnonzero(mats[f].any(axis=0))
            for b in range(len(mats)):
                p = np.zeros((side, side), dtype=np.complex128)
                p[:, s] = mats[b][:, s] @ mats[f][np.ix_(s, s)]
                if b != f and offer(p.conj().T - p):
                    new.append(len(mats) - 1)
                if len(mats) >= side * side:
                    break
        frontier = new
    return len(mats), iterations, mats


def span_mats(span):
    """The span's rows as their ``(dim, side, side)`` matrices."""
    return span._columns(np.arange(span.dim), np.arange(span.side), span.side)


def dense_inside(span, f):
    """The filter before the support table: every bracket is formed, 64
    basis elements per product, and projected against every row."""
    basis, side = span_mats(span), span.side
    iu = np.triu_indices(side, 1)
    rows = _vectorize(basis, iu)
    marks = []
    for start in range(0, span.dim, 64):
        block = basis[start:start + 64]
        prods = (block.reshape(-1, side) @ basis[f]).reshape(block.shape)
        vecs = _vectorize(prods.conj().transpose(0, 2, 1) - prods, iu)
        pre = np.linalg.norm(vecs, axis=1)
        mark = pre < _ZERO_NORM
        live = vecs[~mark]
        residual = np.linalg.norm(live - (live @ rows.T) @ rows, axis=1)
        mark[~mark] = residual < span.tol * pre[~mark] / 100.0
        marks.append(mark)
    return np.concatenate(marks)


def filter_against_dense(monkeypatch, basis):
    """Run the closure, checking every ``outside`` call against
    ``dense_inside`` and the brackets it returns against the dense
    products; return the brackets formed and the dense count."""
    counts = {"formed": 0, "dense": 0}
    outside, brackets = _SpanBuilder.outside, _SpanBuilder.brackets

    def checked(self, f):
        bs, keys, vecs = outside(self, f)
        marks = np.ones(self.dim, dtype=bool)
        marks[bs] = False
        np.testing.assert_array_equal(marks, dense_inside(self, f))
        mats = span_mats(self)
        fm, bms = mats[f], mats[bs]
        wide = np.zeros((bs.size, self.side ** 2))
        wide[:, keys] = vecs
        np.testing.assert_allclose(wide, _vectorize(fm @ bms - bms @ fm, np.triu_indices(self.side, 1)),
                                   rtol=0, atol=1e-14)
        counts["dense"] += self.dim
        return bs, keys, vecs

    def counted(self, f, among):
        counts["formed"] += among.size
        return brackets(self, f, among)

    monkeypatch.setattr(_SpanBuilder, "outside", checked)
    monkeypatch.setattr(_SpanBuilder, "brackets", counted)
    _closure(basis, 1e-9)
    return counts["formed"], counts["dense"]


def closure_dim_of_mats(mats, tol=1e-9):
    return _closure(GeneratorBasis(mats=mats), tol)[0]


def test_two_spin_generators_close_to_dimension_three():
    # frozen by hand: [iX, iY] = -2 iZ, then the span closes
    assert closure_dim_of_mats([1j * SX, 1j * SY]) == 3


def test_spin_plus_identity_closes_to_four():
    assert closure_dim_of_mats([1j * SX, 1j * SY, 1j * np.eye(2)]) == 4


def test_diagonal_generators_are_abelian(c5):
    side = 10
    mats = []
    for a in range(side):
        g = np.zeros((side, side), dtype=complex)
        g[a, a] = 1j
        mats.append(g)
    result = qw.lie_closure_dim(GeneratorBasis(mats=mats))
    assert result.dim == side
    assert result.iterations <= 1


def test_generator_basis_layout(fig):
    gb = qw.generator_basis(fig)
    side = 18
    # diagonal generators first, one per position
    for a in range(side):
        assert np.argwhere(gb.mats[a]).tolist() == [[a, a]]
        assert gb.mats[a][a, a] == 1j
    # then two generators on each admissible position pair, every generator
    # skew-Hermitian
    admissible = []
    for a in range(side):
        la, ra = divmod(a, 6)
        for b in range(a + 1, side):
            mb, sb = divmod(b, 6)
            if la == mb:
                continue
            if (ra, sb) in joint_orbit(fig, la + 1, mb + 1):
                admissible.append([[a, b], [b, a]])
    supports = [np.argwhere(mat).tolist() for mat in gb.mats[side:]]
    assert supports == [pair for pair in admissible for _ in range(2)]
    for mat in gb.mats:
        assert np.abs(mat + mat.conj().T).max() < 1e-12


def _generator_specs():
    rng = np.random.default_rng(11)
    draws = (spec for spec in iter(lambda: random_spec(rng), None) if spec.d * spec.n <= 24)
    families = {
        "figure1": qw.figure1(),
        "cycle_shift(5)": qw.cycle_shift(5),
        "cycle_shift(7)": qw.cycle_shift(7),
        "cycle_shift(8)": qw.cycle_shift(8),
        "cycle_exchange(6)": qw.cycle_exchange(6),
        "cycle_exchange(8)": qw.cycle_exchange(8),
        "complete(4)": qw.complete(4),
    }
    return [pytest.param(spec, id=name) for name, spec in families.items()] + [
        pytest.param(next(draws), id=f"random{i}") for i in range(12)
    ]


@pytest.mark.parametrize("spec", _generator_specs())
def test_generator_stack_equals_pairwise_reference(spec):
    gb, ref = qw.generator_basis(spec), pairwise_generator_basis(spec)
    assert gb.side == ref.side
    stack = np.asarray(gb.mats)
    assert stack.dtype == np.complex128
    assert stack.tobytes() == np.stack(ref.mats).tobytes()


def test_no_generators_within_a_coin_block(c5):
    gb = qw.generator_basis(c5)
    for mat in gb.mats:
        for a, b in np.argwhere(mat):
            if a != b:
                assert a // c5.n != b // c5.n  # different coin blocks


def test_brackets_stay_skew_hermitian(c4):
    gb = qw.generator_basis(c4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = rng.integers(len(gb.mats), size=2)
        b = gb.mats[i] @ gb.mats[j] - gb.mats[j] @ gb.mats[i]
        assert np.abs(b + b.conj().T).max() < 1e-12


@pytest.mark.parametrize(
    "factory,expected",
    [
        (lambda: qw.cycle_shift(3), 36),
        (lambda: qw.cycle_shift(4), 32),
        (lambda: qw.cycle_shift(5), 100),
        (lambda: qw.cycle_exchange(4), 32),
    ],
)
def test_closure_dimensions(factory, expected):
    spec = factory()
    result = qw.lie_closure_dim(qw.generator_basis(spec))
    assert result.dim == expected


def test_uncontrollable_dim_is_sum_of_full_blocks():
    # one full unitary block per component
    for spec in (qw.cycle_shift(4), qw.cycle_shift(6), qw.cycle_exchange(6)):
        report = qw.analyze(spec)
        result = qw.verify_structure(spec)
        assert result.dim == sum((spec.d * len(c)) ** 2 for c in report.components)
        assert result.match and result.block_diagonal_ok


def test_dim_full_iff_single_component():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(12):
        spec = random_spec(rng)
        side = spec.d * spec.n
        if side > 16:
            continue
        report = qw.analyze(spec)
        result = qw.verify_structure(spec)
        assert (result.dim == side * side) == (report.m == 1)
        seen.add(report.m)
    assert seen == {1, 2}


def test_closure_invariant_under_order_and_scaling(c4):
    gb = qw.generator_basis(c4)
    base = qw.lie_closure_dim(gb).dim
    rng = np.random.default_rng(8)
    order = rng.permutation(len(gb.mats))
    shuffled = GeneratorBasis(
        mats=[gb.mats[i] * float(rng.uniform(0.1, 10.0)) for i in order],
    )
    assert qw.lie_closure_dim(shuffled).dim == base


def test_closure_is_deterministic(c4):
    a = qw.lie_closure_dim(qw.generator_basis(c4))
    b = qw.lie_closure_dim(qw.generator_basis(c4))
    assert (a.dim, a.iterations) == (b.dim, b.iterations)


def test_verify_structure_block_diagonality(c4):
    result = qw.verify_structure(c4)
    assert result.dim == result.predicted == 32
    assert result.block_diagonal_ok


def test_cap_exceeded():
    with pytest.raises(qw.CapExceededError):
        qw.verify_structure(qw.torus(3, 3))
    with pytest.raises(qw.CapExceededError):
        qw.verify_structure(qw.torus(3, 5))


def test_empty_basis_rejected():
    with pytest.raises(ValueError):
        qw.lie_closure_dim(GeneratorBasis(mats=[]))


def test_basis_side_is_read_off_the_matrices(c5):
    assert qw.generator_basis(c5).side == 10
    assert GeneratorBasis(mats=[1j * SX]).side == 2
    assert qw.lie_closure_dim(GeneratorBasis(mats=np.zeros((1, 2, 2)))).dim == 0


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, 1.0, float("inf"), 1e3, None, "0.1"])
def test_tolerance_outside_unit_interval_raises(c5, tol):
    with pytest.raises(qw.ToleranceDegenerateError, match="not in"):
        qw.lie_closure_dim(qw.generator_basis(c5), tol=tol)


def test_ambiguous_rank_decision_raises():
    # second generator sits right at the rank threshold: residual within a
    # factor 10 of tol * prenorm must abort instead of guessing
    near = 1j * SX + 1e-9 * 1j * SY
    basis = GeneratorBasis(mats=[1j * SX, near])
    with pytest.raises(qw.ToleranceDegenerateError):
        qw.lie_closure_dim(basis, tol=1e-9)
    # a clearly separated tolerance resolves it (and the pair then brackets
    # up to the full three-dimensional algebra)
    assert qw.lie_closure_dim(basis, tol=1e-12).dim == 3


def _filter_specs():
    rng = np.random.default_rng(5)
    draws = (spec for spec in iter(lambda: random_spec(rng), None) if spec.d * spec.n <= 16)
    return [qw.figure1()] + [next(draws) for _ in range(8)]


def _small_random_spec(seed):
    """The first ``random_spec`` draw with dN <= 12 from ``seed``."""
    rng = np.random.default_rng(seed)
    return next(spec for spec in iter(lambda: random_spec(rng), None) if spec.d * spec.n <= 12)


def _assert_closure_equals_reference(spec):
    """Two input forms, one closure: generator_basis's coordinates, and the
    same generators densified and passed back in as a (count, side, side)
    stack, make the same rank decisions and the same rows, bit for bit, as
    each other and as the sequential reference."""
    basis = qw.generator_basis(spec)
    dim, iterations, span = _closure(basis, 1e-9)
    again = _closure(GeneratorBasis(mats=np.asarray(basis.mats)), 1e-9)
    ref_dim, ref_iterations, ref_mats = reference_closure(basis)
    assert (dim, iterations) == again[:2] == (ref_dim, ref_iterations)
    end = span.ptr[dim]
    assert span.ptr[:dim + 1].tobytes() == again[2].ptr[:dim + 1].tobytes()
    assert span.key[:end].tobytes() == again[2].key[:end].tobytes()
    assert span.val[:end].tobytes() == again[2].val[:end].tobytes()
    assert np.array_equal(span_mats(span), np.stack(ref_mats))


@pytest.mark.parametrize(
    "spec",
    _filter_specs() + [qw.cycle_shift(n) for n in (5, 7, 8)]
    + [qw.cycle_exchange(6), qw.cycle_exchange(8), qw.complete(4)],
    ids=["figure1"]
    + [f"random{i}" for i in range(8)]
    + ["cycle_shift5", "cycle_shift7", "cycle_shift8", "cycle_exchange6", "cycle_exchange8", "complete4"],
)
def test_filtered_closure_equals_sequential_reference(spec):
    _assert_closure_equals_reference(spec)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(spec=st.integers(0, 2**32 - 1).map(_small_random_spec))
def test_filtered_closure_equals_sequential_reference_on_drawn_seeds(spec):
    _assert_closure_equals_reference(spec)


def test_filter_leaves_only_accepted_brackets_to_offer(monkeypatch, fig):
    # every vector that reaches the span, in a block or one at a time; the
    # single offers a block makes are counted with the block
    counts = {"block": 0, "single": 0}
    offer, offer_block = _SpanBuilder.offer, _SpanBuilder.offer_block

    def single(self, vec, *floor):
        counts["single"] += 1
        return offer(self, vec, *floor)

    def block(self, keys, vecs, *floor):
        counts["block"] += len(vecs)
        before = counts["single"]
        offer_block(self, keys, vecs, *floor)
        counts["single"] = before

    monkeypatch.setattr(_SpanBuilder, "offer", single)
    monkeypatch.setattr(_SpanBuilder, "offer_block", block)
    basis = qw.generator_basis(fig)
    dim, _, _ = _closure(basis, 1e-9)
    # the unfiltered loop makes about 38,000 offers here to accept 324 rows
    assert counts["block"] > 0
    assert counts["block"] + counts["single"] - len(basis.mats) <= 2 * dim


def test_filter_does_not_mark_a_bracket_in_the_degenerate_band():
    # span {iX, iY, i(Z + tol I)}: [iX, iY] = -2iZ has residual ~ tol * prenorm
    tol = 1e-9
    span = _SpanBuilder(2, tol)
    for mat in (1j * SX, 1j * SY, 1j * (SZ + tol * np.eye(2))):
        assert span.offer(_vectorize(mat, np.triu_indices(2, 1)))
    bs, keys, vecs = span.outside(0)
    assert 1 in bs
    vec = np.zeros(4)
    vec[keys] = vecs[bs.tolist().index(1)]
    with pytest.raises(qw.ToleranceDegenerateError):
        span.offer(vec)


def _random_skew_hermitian(rng, side):
    a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return a - a.conj().T


def _support_specs():
    rng = np.random.default_rng(23)
    draws = (spec for spec in iter(lambda: random_spec(rng), None) if spec.d * spec.n <= 16)
    families = {
        "cycle_shift(5)": qw.cycle_shift(5),
        "cycle_shift(7)": qw.cycle_shift(7),
        "cycle_exchange(6)": qw.cycle_exchange(6),
        "cycle_exchange(8)": qw.cycle_exchange(8),
        "cycle_shift(8)": qw.cycle_shift(8),
        "complete(4)": qw.complete(4),
        "figure1": qw.figure1(),
    }
    return [pytest.param(spec, id=name) for name, spec in families.items()] + [
        pytest.param(next(draws), id=f"random{i}") for i in range(6)
    ]


@pytest.mark.parametrize("spec", _support_specs())
def test_saturated_elements_have_no_bracket_outside_the_span(monkeypatch, spec):
    saturated, skipped = _SpanBuilder.saturated, []

    def checked(self, fs):
        marks = saturated(self, fs)
        for f in fs[marks]:
            assert self.outside(f)[0].size == 0
        skipped.append(int(marks.sum()))
        return marks

    monkeypatch.setattr(_SpanBuilder, "saturated", checked)
    _closure(qw.generator_basis(spec), 1e-9)
    assert sum(skipped) > 0


@pytest.mark.parametrize("spec", _support_specs())
def test_support_filter_marks_equal_dense_filter(monkeypatch, spec):
    formed, dense = filter_against_dense(monkeypatch, qw.generator_basis(spec))
    assert formed < dense


def test_dense_generators_fall_back_to_the_full_filter(monkeypatch):
    # random skew-Hermitian generators have no structural zeros: every
    # bracket is formed, and the marks still equal the dense filter's
    rng = np.random.default_rng(4)
    basis = GeneratorBasis(mats=[_random_skew_hermitian(rng, 4) for _ in range(3)])
    formed, dense = filter_against_dense(monkeypatch, basis)
    assert formed == dense > 0
    assert _closure(basis, 1e-9)[0] == 16


def test_support_filter_forms_a_quarter_of_the_dense_brackets(monkeypatch, fig):
    formed, dense = filter_against_dense(monkeypatch, qw.generator_basis(fig))
    # about 21 % here: most brackets pair elements on disjoint index sets
    assert formed <= dense / 4


def _mixed_basis(seed):
    """Side 2-6: some iE_aa and E_ab - E_ba generators beside one or two
    random skew-Hermitian elements, about half of them masked to a random
    symmetric pattern, in a random order.  One draw in four is instead one
    random element per part of a random partition of the indices, a block
    of vectors on disjoint coordinates."""
    rng = np.random.default_rng(seed)
    side = int(rng.integers(2, 7))
    if rng.random() < 0.25:
        cuts = np.sort(rng.choice(np.arange(1, side), size=int(rng.integers(0, side)), replace=False))
        ons = [np.isin(np.arange(side), part) for part in np.split(rng.permutation(side), cuts)]
        return GeneratorBasis(mats=[_random_skew_hermitian(rng, side) * np.outer(on, on) for on in ons])
    mats = []
    for a in rng.choice(side, size=int(rng.integers(0, side + 1)), replace=False):
        g = np.zeros((side, side), dtype=complex)
        g[a, a] = 1j
        mats.append(g)
    a, b = np.triu_indices(side, 1)
    for p in rng.choice(a.size, size=int(rng.integers(0, a.size + 1)), replace=False):
        g = np.zeros((side, side), dtype=complex)
        g[a[p], b[p]], g[b[p], a[p]] = 1.0, -1.0
        mats.append(g)
    for _ in range(int(rng.integers(1, 3))):
        h = _random_skew_hermitian(rng, side)
        if rng.random() < 0.5:
            mask = rng.random((side, side)) < 0.4
            h = h * (mask | mask.T)
        mats.append(h)
    return GeneratorBasis(mats=[mats[i] for i in rng.permutation(len(mats))])


def _closure_outcome(closure, basis, tol):
    try:
        dim, iterations, rows = closure(basis, tol)
    except qw.ToleranceDegenerateError as exc:
        return str(exc)
    mats = span_mats(rows) if isinstance(rows, _SpanBuilder) else rows
    return dim, iterations, np.reshape(mats, (dim, basis.side, basis.side))


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
@pytest.mark.parametrize("seed", range(40))
def test_mixed_basis_closure_equals_reference(seed, tol):
    # at tol 1e-2, 12 of the 40 draws meet the degenerate band
    basis = _mixed_basis(seed)
    got = _closure_outcome(_closure, basis, tol)
    ref = _closure_outcome(reference_closure, basis, tol)
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref
    else:
        assert got[:2] == ref[:2]
        assert np.array_equal(got[2], ref[2])


def test_unit_rows_are_masked_and_dense_rows_projected_in_one_call(monkeypatch):
    # iE_00 and iE_11 are unit rows; the dense element's brackets with them
    # meet their held coordinates and the dense rows in the same call to
    # outside, which masks the first and projects against the second
    h = _random_skew_hermitian(np.random.default_rng(7), 3)
    basis = GeneratorBasis(mats=[_elementary(3, 0, 0, 1j), _elementary(3, 1, 1, 1j), h])
    outside, both = _SpanBuilder.outside, []

    def spied(self, f):
        keys, _ = self.brackets(f, np.arange(self.dim))
        dense = self.dense[:self.nd]
        both.append(self.held[keys].any() and (dense[:, keys] != 0).any())
        return outside(self, f)

    monkeypatch.setattr(_SpanBuilder, "outside", spied)
    got = _closure_outcome(_closure, basis, 1e-9)
    ref = _closure_outcome(reference_closure, basis, 1e-9)
    assert any(both)
    assert got[:2] == ref[:2] == (9, 1)
    assert np.array_equal(got[2], ref[2])


def _two_dense_blocks(side, seed):
    """Two random skew-Hermitian generators on each of the diagonal blocks
    of sides side // 2 and side - side // 2: their algebra is
    u(side // 2) + u(side - side // 2), far below side^2, so most brackets
    of its dense rows already lie in the span."""
    rng, cut = np.random.default_rng(seed), side // 2
    mats = []
    for lo, hi in ((0, cut), (cut, side)):
        for _ in range(2):
            g = np.zeros((side, side), dtype=complex)
            g[lo:hi, lo:hi] = _random_skew_hermitian(rng, hi - lo)
            mats.append(g)
    return GeneratorBasis(mats=mats)


@pytest.mark.parametrize("side", [8, 9, 10])
def test_dense_rows_drop_brackets_as_the_reference_does(monkeypatch, side):
    # every row is dense, so each outside call projects onto the span's
    # rows; the brackets it drops are nonzero ones already inside the span
    basis = _two_dense_blocks(side, side)
    got = _closure_outcome(_closure, basis, 1e-9)
    ref = _closure_outcome(reference_closure, basis, 1e-9)
    assert got[:2] == ref[:2]
    assert got[0] == (side // 2) ** 2 + (side - side // 2) ** 2
    assert np.array_equal(got[2], ref[2])
    outside, dropped = _SpanBuilder.outside, []

    def spied(self, f):
        bs, keys, vecs = outside(self, f)
        assert not self.unit[:self.dim].any()
        _, formed = self.brackets(f, np.arange(self.dim))
        dropped.append(int((np.linalg.norm(formed, axis=1) >= _ZERO_NORM).sum()) - bs.size)
        return bs, keys, vecs

    monkeypatch.setattr(_SpanBuilder, "outside", spied)
    filter_against_dense(monkeypatch, basis)  # marks equal dense_inside's at each call
    assert sum(dropped) > 0


@pytest.mark.parametrize("side", range(1, 65))
def test_count_products_equal_boolean_products(side):
    # tables drawn at several densities, all-false and all-true among them,
    # and fronts of no rows to three times side
    rng = np.random.default_rng(side)
    for rows in (0, 1, side, 3 * side):
        for fill in (0.0, 0.1, 0.5, 1.0):
            a, b = rng.random((rows, side)) < fill, rng.random((side, side)) < fill
            assert np.array_equal(_meets(a, b), a @ b)
            assert np.array_equal(_meets(a.T, a), a.T @ a)
            for row in b[:3]:
                assert np.array_equal(_meets(a, row), a @ row)


def test_disjoint_block_raises_at_the_first_vector_in_the_band():
    with pytest.raises(
        qw.ToleranceDegenerateError,
        match=r"^residual 1\.000e\+00 within a factor 10 of threshold 5\.000e-01; ",
    ):
        qw.lie_closure_dim(qw.generator_basis(qw.cycle_shift(5)), tol=0.5)
    # below the floor, a zero generator is passed over; the next one raises
    # with its own norm, before the larger one after it
    mats = np.zeros((3, 2, 2), dtype=complex)
    mats[1, 0, 0], mats[2, 1, 1] = 0.5j, 1j
    with pytest.raises(qw.ToleranceDegenerateError, match=r"^residual 5\.000e-01 within .* 2\.500e-01;"):
        qw.lie_closure_dim(GeneratorBasis(mats=mats), tol=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generators_must_be_finite(bad):
    g = 1j * SX
    g[0, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        qw.lie_closure_dim(GeneratorBasis(mats=[1j * SY, g]))


def test_closure_does_not_depend_on_the_basis_scale():
    # the zero floor is relative to the largest entry, and the generators
    # are offered scaled to a peak in [1, 2): a disjoint block and a pair
    # that shares a coordinate both close to su(2) at every scale
    for e in range(-300, 301):
        s = 10.0 ** e
        for mats in ([s * 1j * SX, s * 1j * SY], [s * 1j * SX, s * 1j * (SX + SY)]):
            assert qw.lie_closure_dim(GeneratorBasis(mats=mats)).dim == 3, e


def test_generator_norms_must_not_overflow():
    # 1e200 squared overflows; the generators are scaled to a peak in
    # [1, 2) before any norm is taken, so both close to su(2)
    for s in (1e150, 1e200):
        assert qw.lie_closure_dim(GeneratorBasis(mats=[s * 1j * SX, s * 1j * SY])).dim == 3


@pytest.mark.parametrize(
    "spec",
    [qw.cycle_shift(13), qw.cycle_shift(14), qw.cycle_exchange(14)],
    ids=["cycle_shift13", "cycle_shift14", "cycle_exchange14"],
)
def test_closure_above_the_cap_matches_the_prediction(spec):
    # dN = 26 and 28, above DEFAULT_DIM_CAP: dims 676, 392 and 392
    assert qw.lie_closure_dim(qw.generator_basis(spec)).dim == qw.analyze(spec).predicted_lie_dim


def _elementary(side, a, b, value):
    g = np.zeros((side, side), dtype=complex)
    g[a, b] = value
    g[b, a] = -np.conj(value)
    return g


def test_saturation_is_tested_again_after_the_span_grows():
    # iE_00 starts saturated: the only rows touching 0 hold both
    # coordinates of (0, 2).  Bracketing E_02 - E_20 first brings in
    # E_01 - E_10, so at iE_00's turn [iE_00, E_01 - E_10] is new
    pairs = [(0, 2, 1.0), (0, 0, 1j), (1, 2, 1.0), (1, 1, 1j), (0, 2, 1j)]
    basis = GeneratorBasis(mats=[_elementary(3, a, b, v) for a, b, v in pairs])
    got, ref = _closure(basis, 1e-9), reference_closure(basis)
    assert got[:2] == ref[:2] == (9, 1)
    assert np.array_equal(span_mats(got[2]), np.stack(ref[2]))


def test_bracket_blocks_reach_offer_block_over_their_live_coordinates(monkeypatch, fig):
    # the generators are offered as their coordinates, 64 at a time; each
    # block of brackets only over the ascending coordinates its brackets reach
    offer_block, blocks = _SpanBuilder.offer_block, []

    def spied(self, keys, vecs, *floor):
        blocks.append((keys, vecs.shape[1], self.side ** 2))
        return offer_block(self, keys, vecs, *floor)

    monkeypatch.setattr(_SpanBuilder, "offer_block", spied)
    basis = qw.generator_basis(fig)
    _closure(basis, 1e-9)
    seeds = -(-len(basis.mats) // 64)
    assert np.array_equal(np.concatenate([keys for keys, _, _ in blocks[:seeds]]), basis.mats.keys)
    assert len(blocks) > seeds
    for keys, width, full in blocks[seeds:]:
        assert width == keys.size < full
        assert np.all(np.diff(keys) > 0)


def test_integer_generators_are_read_as_complex():
    # E_01 - E_10 and E_02 - E_20 as an int64 stack close to so(3)
    mats = np.array([[[0, 1, 0], [-1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]])
    assert qw.lie_closure_dim(GeneratorBasis(mats=mats)).dim == 3


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_generators_must_be_skew_hermitian(scale):
    # a Hermitian part above 1e-14 times the largest entry is refused at
    # every scale, one below it is read as rounding
    with pytest.raises(ValueError, match="^generator 0 is not skew-Hermitian"):
        qw.lie_closure_dim(GeneratorBasis(mats=[scale * SX, scale * SY]))
    with pytest.raises(ValueError, match="^generator 1 is not skew-Hermitian"):
        qw.lie_closure_dim(GeneratorBasis(mats=[scale * 1j * SX, scale * (1j * SY + 1e-12 * SZ)]))
    near = [scale * 1j * SX, scale * (1j * SY + 1e-16 * SX)]
    assert qw.lie_closure_dim(GeneratorBasis(mats=near)).dim == 3


@pytest.mark.parametrize("mats", [np.zeros((2, 2, 3)), np.array([1j, 2j]), np.zeros((1, 2))])
def test_generators_must_be_square(mats):
    with pytest.raises(ValueError, match="^generator 0 is not a square matrix"):
        qw.lie_closure_dim(GeneratorBasis(mats=mats))


def test_generators_of_two_shapes_are_named():
    ragged = [[1j, 0], [0]]
    for mats, message in [
        ([1j * np.eye(2), 1j * np.eye(2), 1j * np.eye(3)],
         r"generator 2 has shape \(3, 3\), generator 0 has \(2, 2\)"),
        ([ragged], "generator 0 is ragged"),
        ([1j * np.eye(2), ragged], "generator 1 is ragged"),
    ]:
        basis = GeneratorBasis(mats=mats)
        for call in (lambda: basis.side, lambda: qw.lie_closure_dim(basis)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()


def test_closure_peak_memory_follows_the_rows():
    # the span keeps each row as its coordinates; its largest tables and
    # temporaries hold one entry per row and index (touch, the support
    # products of saturated and outside, the column slabs of brackets), 12
    # to 22 bytes per row and index here.  A dense row store alone would be
    # 16 side^4 bytes: 27 times the peak on torus(3,3), 80 times on torus(3,5)
    for spec in (qw.torus(3, 3), qw.torus(3, 5)):
        basis = qw.generator_basis(spec)
        tracemalloc.start()
        try:
            dim = _closure(basis, 1e-9)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * dim * basis.side


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(spec=st.integers(0, 2**32 - 1).map(drawn_walk), seed=st.integers(0, 2**32 - 1))
def test_algebra_matches_the_prediction_on_drawn_walks(spec, seed):
    # the closure, the block check and the prediction agree, and another
    # split of the same graph into coins closes to the same dimension
    report = qw.verify_structure(spec)
    assert report.match and report.block_diagonal_ok
    assert report.dim == qw.analyze(spec).predicted_lie_dim
    assert qw.verify_structure(_redecompose(spec, seed)).dim == report.dim


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(spec=st.integers(0, 2**32 - 1).map(lambda seed: drawn_walk(seed, 24, 36)))
def test_uncapped_closure_matches_the_prediction_past_the_cap(spec):
    # past verify_structure's cap, 24 < dN <= 36, the closure is uncapped;
    # its rows are single coordinates of value +-1, so no rank decision comes
    # near the tolerance, and verify_structure needs no other one
    assert 24 < spec.d * spec.n <= 36
    dim, _, span = _closure(qw.generator_basis(spec), DEFAULT_TOL)
    assert dim == qw.analyze(spec).predicted_lie_dim
    assert span.nd == 0
    assert np.array_equal(span.ptr[:dim + 1], np.arange(dim + 1))
    assert np.array_equal(np.abs(span.val[:dim]), np.ones(dim))
