"""Numerical generation of the walk's dynamical operator algebra.

The admissible generators are elementary skew-Hermitian matrices supported
on the Ad_S-closure of the per-vertex coin support, read off the shift
alone; repeatedly bracketing them and tracking the real span yields the
algebra's dimension, which the structure report predicts from the orbit
criterion's components alone.  Skew-Hermitian matrices of side s are
vectorized into R^(s^2): imaginary diagonal, then real and imaginary parts
of the upper triangle.  The generators and the span's rows are kept as
their nonzero coordinates there, so the closure's memory follows its rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .controllability import analyze
from .errors import CapExceededError, ToleranceDegenerateError
from .graph_model import WalkSpec
from .walk_core import _complex

DEFAULT_TOL = 1e-9
DEFAULT_DIM_CAP = 24
_ZERO_NORM = 1e-14


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Skew-Hermitian generators: ``mats`` is a ``(count, side, side)``
    stack, any sequence of side x side matrices, or the coordinate stack
    that ``generator_basis`` builds."""

    mats: np.ndarray | list | _UnitGenerators

    @property
    def side(self) -> int:
        if isinstance(self.mats, _UnitGenerators):
            return self.mats.side
        return _complex(self.mats, "generator", ValueError, copy=False).shape[-1]


class _UnitGenerators:
    """Generators that are each 1.0 at one real coordinate, ``keys[i]``:
    the coordinate form of a ``(count, side, side)`` stack, whose
    matrices indexing and ``np.asarray`` build."""

    def __init__(self, side: int, keys: np.ndarray):
        self.side, self.keys = side, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i) -> np.ndarray:
        keys = self.keys[i]
        c = np.ravel(keys)
        mats = np.zeros((c.size, self.side, self.side), dtype=np.complex128)
        _scatter(mats, np.arange(c.size), c, 1.0, *_layout(self.side), np.arange(self.side))
        return mats.reshape(np.shape(keys) + mats.shape[1:])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self[:].astype(dtype or np.complex128, copy=False)


def _layout(side: int):
    """``(ends, part)`` of the real coordinates: coordinate c is the
    imaginary (``part`` 1) or real (0) part of entry ``ends[:, c]`` =
    (a, b), a <= b, and of entry (b, a) times ``2 * part - 1``."""
    pos, iu = np.arange(side), np.triu_indices(side, 1)
    k = iu[0].size
    return np.concatenate([[pos, pos], iu, iu], axis=1), np.repeat([1, 0, 1], [side, k, k])


def _scatter(out, i, c, v, ends, part, at) -> None:
    """Write the coordinates ``c``, values ``v``, of the matrices ``out[i]``
    into the two entries each sets, (a, b) and (b, a) times
    ``2 * part - 1``, column j kept at ``at[j]``."""
    (a, b), p = ends[:, c], part[c]
    flat = out.view(np.float64)
    flat[i, a, 2 * at[b] + p] = v
    flat[i, b, 2 * at[a] + p] = v * (2.0 * p - 1.0)


@dataclass(frozen=True)
class LieClosureResult:
    """Closure dimension beside the structure prediction.

    ``off_block`` is set only when the block check fails: the largest
    off-block magnitude and the position pair (a, b) where it sits.
    """

    dim: int
    predicted: int | None
    match: bool | None
    iterations: int
    block_diagonal_ok: bool | None = None
    off_block: tuple[float, int, int] | None = None


def generator_basis(spec: WalkSpec) -> GeneratorBasis:
    """Build the elementary generating set from the shift alone.

    The coin algebra, u(d) at each vertex, is supported on the position
    pairs of one vertex; Ad_S carries a pair (a, b) to (S a, S b), and the
    support grows by it until nothing new enters, within the longest cycle
    of that pair map.  The generators are one iE_aa per position, then for
    each admissible pair a < b, in row-major order, E_ab - E_ba and
    i(E_ab + E_ba), each kept as its one coordinate (``_UnitGenerators``).
    """
    side = spec.d * spec.n
    flat = (spec.maps + spec.n * np.arange(spec.d)[:, None]).ravel()  # S's image of each position
    pos = np.arange(side)
    support = pos[:, None] % spec.n == pos % spec.n
    size = 0
    while size < support.sum():
        size = support.sum()
        support[np.ix_(flat, flat)] |= support
    a, b = np.nonzero(np.triu(support, 1))
    real = side + a * (2 * side - a - 1) // 2 + b - a - 1  # (a, b)'s place in np.triu_indices
    pairs = np.stack([real, real + (side * side - side) // 2], axis=1)
    return GeneratorBasis(mats=_UnitGenerators(side, np.concatenate([pos, pairs.ravel()])))


def _vectorize(mat: np.ndarray, iu) -> np.ndarray:
    """Real coordinates of a skew-Hermitian matrix, or of each in a stack."""
    upper = mat[..., iu[0], iu[1]]
    return np.concatenate(
        [np.diagonal(mat, axis1=-2, axis2=-1).imag, upper.real, upper.imag], axis=-1
    )


def _meets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of boolean tables, as a float32 BLAS product of their 0/1
    values thresholded at 0, far faster than numpy's boolean matmul.  Each
    entry counts shared indices, at most side or the rows of one block, far
    below 2**24, so every count is exact."""
    return a.astype(np.float32) @ b.astype(np.float32) > 0


def _grow(arr: np.ndarray, size: int) -> np.ndarray:
    """``arr``, or a zero-padded copy of at least twice its length, so that
    it holds ``size`` rows."""
    if size <= len(arr):
        return arr
    out = np.zeros((max(size, 2 * len(arr)),) + arr.shape[1:], dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


class _SpanBuilder:
    """Orthonormal real basis of the running span, with rank guards; it
    takes real coordinates and forms brackets only in ``brackets``.

    Each row is kept once, as its nonzero coordinates in CSR form: row i
    is ``val[ptr[i]:ptr[i + 1]]`` at the coordinates
    ``key[ptr[i]:ptr[i + 1]]``.  A row with more than one coordinate also
    keeps a dense copy, in row order in the first ``nd`` rows of
    ``dense``, for the projections of ``offer`` and ``outside``; no row of
    a generator basis has one.  ``_columns`` writes rows' matrix entries
    from their coordinates (``_scatter``).  ``touch`` holds the index set
    each row's matrix touches.  Two side x side tables serve ``saturated``:
    ``cotouch[i, j]`` is set once some row touches both i and j, and
    ``open[i, j]`` while pair (i, j) has a coordinate (it or its
    ``partner``) that no unit row holds, a unit row being one with a single
    nonzero coordinate; ``unit`` flags those rows and ``held`` marks their
    coordinates.  A unit row is exactly +-1 at the coordinate it holds, so
    ``outside`` masks held coordinates instead of projecting onto unit
    rows.  The support tables are multiplied as exact counts (``_meets``).
    """

    def __init__(self, side: int, tol: float):
        full, pos = side * side, np.arange(side)
        self.side, self.full, self.tol = side, full, tol
        self.ends, self.part = _layout(side)
        k = (full - side) // 2
        self.partner = np.concatenate([pos, side + k + np.arange(k), side + np.arange(k)])
        self.ptr = np.zeros(full + 1, dtype=np.int64)
        self.key = np.zeros(full, dtype=np.int64)
        self.val = np.zeros(full)
        self.dense = np.zeros((0, full))
        self.touch = np.zeros((full, side), dtype=bool)
        self.held = np.zeros(full, dtype=bool)
        self.unit = np.zeros(full, dtype=bool)
        self.cotouch = np.zeros((side, side), dtype=bool)
        self.open = np.ones((side, side), dtype=bool)
        self.dim = self.nd = 0

    def offer(self, vec: np.ndarray, floor: float = _ZERO_NORM) -> bool:
        """Project real coordinates against the span; extend the basis when
        the residual clears the tolerance.  A vector with norm below
        ``floor`` is zero.  Two projection passes keep the basis
        orthonormal; residuals within a factor 10 of the threshold abort.
        The rows are spread to side^2 coordinates for the projection."""
        pre = float(np.linalg.norm(vec))
        if pre < floor:
            return False
        unit = self.unit[:self.dim]
        rows = np.zeros((self.dim, self.full))
        rows[~unit] = self.dense[:self.nd]
        at = self.ptr[np.flatnonzero(unit)]
        rows[unit, self.key[at]] = self.val[at]
        for _ in range(2):
            vec = vec - rows.T @ (rows @ vec)
        residual = float(np.linalg.norm(vec))
        if not self._clears(residual, pre):
            return False
        self._append(np.arange(vec.size), vec[None] / residual)
        return True

    def offer_block(self, keys: np.ndarray, vecs: np.ndarray, floor: float = _ZERO_NORM) -> None:
        """Offer the rows of ``vecs``, values over the coordinates ``keys``,
        in order, as ``offer`` would, until the span is full.

        When every row and every vector has one nonzero coordinate, and no
        coordinate is nonzero in two of the vectors, or in one of them and
        ``held``, every projection term in ``offer`` is an exact zero: each
        residual is the vector's own norm, and the whole block is accepted
        in one pass, after the norm and band check of ``offer`` on all of
        them at once.  Any other block goes through ``offer`` one vector at
        a time, spread to side^2 coordinates.
        """
        nonzero = vecs != 0
        shared = (nonzero.sum(axis=0) + self.held[keys]).max(initial=0) > 1
        if shared or nonzero.sum(axis=1).max(initial=0) > 1 or not self.unit[:self.dim].all():
            for vec in self._wide(keys, vecs):
                if self.dim == self.full:
                    break
                self.offer(vec, floor)
            return
        # a row with one nonzero coordinate x has norm sqrt(fl(x*x)) == |x|,
        # exactly, where x*x neither under- nor overflows (it underflows
        # only below 1.5e-154, under every floor: generators are scaled to
        # a peak in [1, 2)); max and -min give |x| without an |vecs| temporary
        pres = np.maximum(vecs.max(axis=1, initial=0.0), -vecs.min(axis=1, initial=0.0))
        threshold, kept = self.tol * pres, pres >= floor
        for i in np.flatnonzero(kept & (threshold / 10.0 <= pres) & (pres <= threshold * 10.0))[:1]:
            self._clears(float(pres[i]), float(pres[i]))  # raises for the first vector in the band
        keep = np.flatnonzero(kept & (pres > threshold))
        for at in range(0, len(keep), 32):  # bounds the temporaries
            part = keep[at:at + 32]
            self._append(keys, vecs[part] / pres[part, None])

    def _wide(self, keys: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """The rows of ``vecs`` spread from ``keys`` to all side^2 coordinates."""
        wide = np.zeros((len(vecs), self.full))
        wide[:, keys] = vecs
        return wide

    def _clears(self, residual: float, pre: float) -> bool:
        """Whether a residual clears ``tol * pre``; one within a factor 10
        of that threshold raises ToleranceDegenerateError."""
        threshold = self.tol * pre
        if threshold / 10.0 <= residual <= threshold * 10.0:
            raise ToleranceDegenerateError(
                f"residual {residual:.3e} within a factor 10 of threshold "
                f"{threshold:.3e}; rank decision ambiguous"
            )
        return residual > threshold

    def _append(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Add unit-norm rows, ``vals`` over the coordinates
        ``keys``, to the basis, keeping each nonzero coordinate, and update
        the tables."""
        start, self.dim = self.dim, self.dim + len(vals)
        r, j = np.nonzero(vals)
        row, c, v = start + r, keys[j], vals[r, j]
        count = np.bincount(r, minlength=len(vals))
        lo, self.ptr[start + 1:self.dim + 1] = self.ptr[start], self.ptr[start] + np.cumsum(count)
        self.key, self.val = _grow(self.key, lo + c.size), _grow(self.val, lo + c.size)
        self.key[lo:lo + c.size], self.val[lo:lo + c.size] = c, v
        self.unit[start:self.dim] = unit = count == 1
        if not unit.all():
            many = self.nd + np.cumsum(~unit) - 1  # each row's place in dense
            self.nd = int(many[-1]) + 1
            self.dense = _grow(self.dense, self.nd)
            wide = ~unit[r]
            self.dense[many[r[wide]], c[wide]] = v[wide]
        self.touch[row[:, None], self.ends[:, c].T] = True
        touch = self.touch[start:self.dim]
        self.cotouch |= _meets(touch.T, touch)
        held = c[unit[r]]
        if held.size:
            self.held[held] = True
            a, b = self.ends[:, held]
            self.open[a, b] = self.open[b, a] = ~self.held[self.partner[held]]

    def _columns(self, rows: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
        """Columns of the element of each row in ``rows``, as one complex
        ``(len(rows), side, width)`` array: column j at ``at[j]``, where a
        place past the columns kept is a spare that the caller drops."""
        e = self.ptr[rows]
        count = self.ptr[rows + 1] - e
        i = np.repeat(np.arange(rows.size), count)
        e = np.arange(i.size) + (e - (np.cumsum(count) - count))[i]
        out = np.zeros((rows.size, self.side, width), dtype=np.complex128)
        _scatter(out, i, self.key[e], self.val[e], self.ends, self.part, at)
        return out

    def saturated(self, fs: np.ndarray) -> np.ndarray:
        """For each basis index in ``fs``, whether every bracket [F, B] of
        its element F with a basis element B already lies in the span.

        With S the index set F touches, a B that meets S touches only
        indices that some row shares with S, the set R, and [F, B] is zero
        outside the pairs S x R.  If none of them is open, unit rows hold
        every coordinate a bracket can reach.
        """
        touch = self.touch[fs]
        return ~(_meets(touch, self.open) & _meets(touch, self.cotouch)).any(axis=1)

    def brackets(self, f: int, among: np.ndarray):
        """``(keys, vecs)``: the coordinates where [F, B] can be nonzero, F
        being row f's element, and its values there, one row of ``vecs``
        per row b in ``among``.

        For skew-Hermitian F and B, [F, B] = P^H - P with P = B F.  With S
        the index set F touches, P is zero outside the columns S, which are
        B[:, S] F[S, S], so only a coordinate (i, j) with i or j in S can be
        nonzero.  Both parts it reads, P_ji and P_ij, are gathered straight
        from the float view of P, a zero column standing in for the columns
        outside S: Re P_ji - Re P_ij and -Im P_ji - Im P_ij above the
        diagonal, -Im P_ii - Im P_ii on it, the same operations as
        ``_vectorize(P^H - P)``, since -x - x is -2x exactly.
        """
        side, touch = self.side, self.touch[f]
        cols = np.flatnonzero(touch)
        width = cols.size + 1
        at = np.full(side, cols.size)  # where column j of P is kept
        at[cols] = np.arange(cols.size)
        slabs = self._columns(np.append(among, f), at, width)[..., :-1]  # each B[:, S], then F's
        prods = np.zeros((among.size, side, width), dtype=np.complex128)
        prods[..., :-1] = (
            slabs[:-1].reshape(-1, cols.size) @ slabs[-1, cols]
        ).reshape(among.size, side, cols.size)
        a, b = self.ends
        keys = np.flatnonzero(touch[a] | touch[b])
        a, b, part = a[keys], b[keys], self.part[keys]
        flat = prods.reshape(among.size, -1).view(np.float64)
        low = flat[:, 2 * (b * width + at[a]) + part]  # P_ba
        high = flat[:, 2 * (a * width + at[b]) + part]  # P_ab
        return keys, (1 - 2 * part) * low - high

    def outside(self, f: int):
        """``(bs, keys, vecs)``: each b, ascending, whose bracket [F, B]
        the span may not hold, and those brackets' values over their live
        coordinates ``keys``, ascending, one row each.

        Left out are brackets with norm below ``_ZERO_NORM``, [F, F] among
        them, or residual below a hundredth of ``tol * prenorm``: a full
        decade under the degenerate band, so the rounding of this one-pass
        projection cannot hide a bracket that ``offer`` would accept or
        refuse as ambiguous.

        When B and F touch disjoint index sets, B F and F B are exactly
        zero, so the bracket is left out without being formed.  The others
        have their held coordinates zeroed, which is what projecting onto
        a unit row +-e_c does, exactly.  Only when the span has rows that
        are not unit rows are the masked brackets spread to side^2
        coordinates and projected onto those rows' dense copies, one pass
        of ``offer``'s projection.  On elementary generators every row is a
        unit row, the residual is the norm of the masked brackets, and it
        has the bits of the full projection.
        """
        dim = self.dim
        among = np.flatnonzero(_meets(self.touch[:dim], self.touch[f]))
        keys, vecs = self.brackets(f, among)
        pre = np.sqrt((vecs * vecs).sum(axis=1))  # np.linalg.norm's sum, bit for bit
        nonzero = pre >= _ZERO_NORM
        among, vecs, pre = among[nonzero], vecs[nonzero], pre[nonzero]
        live = (vecs != 0).any(axis=0)
        keys, vecs = keys[live], vecs[:, live]
        masked = np.where(self.held[keys], 0.0, vecs)
        if self.nd:
            rows = self.dense[:self.nd]
            masked = self._wide(keys, masked)
            masked -= (masked @ rows.T) @ rows
        out = ~(np.sqrt((masked * masked).sum(axis=1)) < self.tol * pre / 100.0)
        return among[out], keys, vecs[out]


def lie_closure_dim(basis: GeneratorBasis, tol: float = DEFAULT_TOL) -> LieClosureResult:
    """Dimension of the smallest bracket-closed real span of the generators.

    Deterministic: generators seed the span in their given order, then each
    round brackets the newest elements against the whole basis oldest-first
    until nothing new appears.  Stops early at the full dimension
    (side^2), beyond which the span cannot grow.
    """
    dim, iterations, _ = _closure(basis, tol)
    return LieClosureResult(dim=dim, predicted=None, match=None, iterations=iterations)


def _seed(basis: GeneratorBasis, tol: float) -> _SpanBuilder:
    """A span holding the generators, offered in their given order.

    ``_UnitGenerators`` are offered as coordinates, 64 at a time.  Any
    other basis is read as one complex ``(count, side, side)`` stack; one
    that is empty, not square or not finite, or whose Hermitian part exceeds
    ``_ZERO_NORM`` times the largest entry, raises ValueError.  It is
    vectorized in one call and offered as one block, scaled by the power
    of two that brings its peak into [1, 2): generators keep their
    accepted rows' bits, no squared norm under- or overflows, and one is
    zero below ``_ZERO_NORM`` times the peak, whatever the scale; an
    all-zero basis spans nothing.  The generators are released on return.
    """
    if isinstance(basis.mats, _UnitGenerators):
        span, keys = _SpanBuilder(basis.mats.side, tol), basis.mats.keys
        for at in range(0, keys.size, 64):  # bounds the identity block
            span.offer_block(keys[at:at + 64], np.eye(keys[at:at + 64].size))
        return span
    mats = _complex(basis.mats, "generator", ValueError, copy=False)
    if not mats.size:
        raise ValueError("empty generator basis")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"generator 0 is not a square matrix: shape {mats.shape[1:]}")
    side = mats.shape[1]
    iu = np.triu_indices(side, 1)
    vecs = _vectorize(mats, iu)
    peak = float(np.maximum(vecs.max(initial=0.0), -vecs.min(initial=0.0)))
    if not np.isfinite(peak):
        raise ValueError("generator basis has entries that are not finite")
    herm = np.maximum(  # the largest entry of each generator's Hermitian part, doubled
        np.abs(np.diagonal(mats, axis1=1, axis2=2).real).max(axis=1),
        np.abs(mats[:, iu[1], iu[0]] + mats[:, iu[0], iu[1]].conj()).max(axis=1, initial=0.0))
    bad = np.flatnonzero(~(herm <= _ZERO_NORM * peak))
    if bad.size:
        raise ValueError(f"generator {bad[0]} is not skew-Hermitian: its Hermitian part reaches "
                         f"{herm[bad[0]]:.3e} against a largest coordinate of {abs(peak):.3e}")
    shift = 1 - int(np.frexp(peak)[1])  # 2**shift brings the peak into [1, 2), exactly
    vecs, peak = np.ldexp(vecs, shift, out=vecs), float(np.ldexp(peak, shift))
    span = _SpanBuilder(side, tol)
    span.offer_block(np.arange(side * side), vecs, _ZERO_NORM * (peak or 1.0))
    return span


def _closure(basis: GeneratorBasis, tol: float):
    """Return ``(dim, iterations, span)`` of the bracket closure, the
    span's rows, as coordinates, being the orthonormal basis in acceptance
    order.

    The generators seed the span (``_seed``).  A frontier element F whose
    brackets all lie on coordinates that unit rows hold
    (``_SpanBuilder.saturated``) is passed over: its brackets are in the
    span.  The test runs over the rest of the frontier at once, again only
    after the span grows.  Any other F is bracketed once, as coordinates,
    against the basis it is about to loop over by the filter
    ``_SpanBuilder.outside``, and the brackets it returns are offered in
    basis order as one block.  Rows added later can only shrink a residual,
    so a bracket it leaves out would have been rejected anyway: the
    accepted rows, ``dim`` and ``iterations`` are those of offering every
    bracket.  A tolerance that is not a real number in (0, 1), NaN and
    infinity included, raises ToleranceDegenerateError.
    """
    if not (isinstance(tol, numbers.Real) and 0 < tol < 1):
        raise ToleranceDegenerateError(f"closure tolerance {tol!r} is not in (0, 1)")
    span = _seed(basis, tol)
    full = span.full
    frontier = np.arange(span.dim)
    iterations = 0
    while frontier.size and span.dim < full:
        iterations += 1
        start = span.dim
        todo = frontier
        while todo.size and span.dim < full:
            dim = span.dim
            for k in np.flatnonzero(~span.saturated(todo)):
                span.offer_block(*span.outside(todo[k])[1:])
                if span.dim > dim:
                    break
            else:
                break  # the span did not grow: the rest is done
            todo = todo[k + 1:]
        frontier = np.arange(start, span.dim)
    return span.dim, iterations, span


def verify_structure(spec: WalkSpec) -> LieClosureResult:
    """Compute the closure dimension and compare it with the prediction.

    Walks with d*n above DEFAULT_DIM_CAP are refused.  The closure runs at
    DEFAULT_TOL: a walk's closure keeps rows of one coordinate, each +-1,
    so no rank decision comes near the tolerance.  Also checks the
    block structure: every closure element must vanish (magnitude below
    1e-9) between basis positions whose vertices lie in different
    components of the orbit criterion (``analyze(spec).components``);
    where one does not, ``off_block`` names the largest such entry.  Only
    the rows with a coordinate whose ends straddle two components are
    rebuilt as matrices for it.
    """
    side = spec.d * spec.n
    if side > DEFAULT_DIM_CAP:
        raise CapExceededError(f"d*n = {side} exceeds cap {DEFAULT_DIM_CAP}")
    report = analyze(spec)
    dim, iterations, span = _closure(generator_basis(spec), DEFAULT_TOL)

    comp_of = np.empty(spec.n, dtype=np.int64)
    for ci, comp in enumerate(report.components):
        comp_of[list(comp)] = ci
    block_of = comp_of[np.arange(side) % spec.n]
    off_block = block_of[:, None] != block_of[None, :]
    a, b = span.ends[:, span.key[:span.ptr[dim]]]
    across = np.zeros(dim, dtype=bool)
    across[np.repeat(np.arange(dim), np.diff(span.ptr[:dim + 1]))[off_block[a, b]]] = True
    off = np.abs(span._columns(np.flatnonzero(across), np.arange(side), side)[:, off_block])
    worst = float(off.max(initial=0.0))
    block_ok = worst < 1e-9
    where = None
    if not block_ok:
        a, b = np.nonzero(off_block)
        k = int(off.argmax()) % a.size
        where = (worst, int(a[k]), int(b[k]))

    return LieClosureResult(
        dim=dim,
        predicted=report.predicted_lie_dim,
        match=dim == report.predicted_lie_dim,
        iterations=iterations,
        block_diagonal_ok=block_ok,
        off_block=where,
    )
