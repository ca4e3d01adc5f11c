"""Numerical generation of the walk's dynamical operator algebra.

The admissible generators are elementary skew-Hermitian matrices supported
on the Ad_S-closure of the per-vertex coin support, read off the shift
alone; repeatedly bracketing them and tracking the real span yields the
algebra's dimension, which the structure report predicts from the orbit
criterion's components alone.  Skew-Hermitian matrices of side s are
vectorized into R^(s^2): imaginary diagonal, then real and imaginary parts
of the upper triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllability import analyze
from .errors import CapExceededError, ToleranceDegenerateError
from .graph_model import WalkSpec

DEFAULT_TOL = 1e-9
DEFAULT_DIM_CAP = 24
_ZERO_NORM = 1e-14


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """Elementary skew-Hermitian generators on the admissible support:
    ``mats`` is a ``(count, side, side)`` stack, or any sequence of
    side x side matrices."""

    mats: np.ndarray | list

    @property
    def side(self) -> int:
        return np.shape(self.mats)[-1]


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
    i(E_ab + E_ba), as one ``(count, side, side)`` stack.
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
    real = side + 2 * np.arange(a.size)
    mats = np.zeros((side + 2 * a.size, side, side), dtype=np.complex128)
    mats[pos, pos, pos] = 1j
    mats[real, a, b] = 1.0
    mats[real, b, a] = -1.0
    mats[real + 1, a, b] = 1j
    mats[real + 1, b, a] = 1j
    return GeneratorBasis(mats=mats)


def _vectorize(mat: np.ndarray, iu) -> np.ndarray:
    """Real coordinates of a skew-Hermitian matrix, or of each in a stack."""
    upper = mat[..., iu[0], iu[1]]
    return np.concatenate(
        [np.diagonal(mat, axis1=-2, axis2=-1).imag, upper.real, upper.imag], axis=-1
    )


def _devectorize(vec: np.ndarray, side: int, iu) -> np.ndarray:
    k = iu[0].size
    upper = np.zeros((side, side), dtype=np.complex128)
    upper[iu] = vec[side:side + k] + 1j * vec[side + k:]
    mat = upper - upper.conj().T
    mat[np.diag_indices(side)] = 1j * vec[:side]
    return mat


class _SpanBuilder:
    """Orthonormal real basis of the running span, with rank guards; it
    takes real coordinates and forms brackets only in ``brackets``.

    ``rows`` and ``mats`` are preallocated for side^2 rows and filled up to
    ``dim``; ``np.zeros`` leaves unused pages untouched, so a small span
    costs only what it fills.  Beside them, ``touch`` holds the index set
    each row's matrix touches (its nonzero rows, which are its nonzero
    columns) and ``coords`` its nonzero coordinates.
    """

    def __init__(self, side: int, tol: float):
        full = side * side
        self.side = side
        self.tol = tol
        self.iu = np.triu_indices(side, 1)
        self.rows = np.zeros((full, full))
        self.mats = np.zeros((full, side, side), dtype=np.complex128)
        self.touch = np.zeros((full, side), dtype=bool)
        self.coords = np.zeros((full, full), dtype=bool)
        self.dim = 0

    def offer(self, vec: np.ndarray) -> bool:
        """Project real coordinates against the span; extend the basis when
        the residual clears the tolerance.  Two projection passes keep the
        basis orthonormal; residuals within a factor 10 of the threshold abort."""
        pre = float(np.linalg.norm(vec))
        if pre < _ZERO_NORM:
            return False
        rows = self.rows[:self.dim]
        for _ in range(2):
            vec = vec - rows.T @ (rows @ vec)
        residual = float(np.linalg.norm(vec))
        threshold = self.tol * pre
        if threshold / 10.0 <= residual <= threshold * 10.0:
            raise ToleranceDegenerateError(
                f"residual {residual:.3e} within a factor 10 of threshold "
                f"{threshold:.3e}; rank decision ambiguous"
            )
        if residual <= threshold:
            return False
        row = vec / residual
        self.rows[self.dim] = row
        self.mats[self.dim] = _devectorize(row, self.side, self.iu)
        self.touch[self.dim] = self.mats[self.dim].any(axis=0)
        self.coords[self.dim] = row != 0
        self.dim += 1
        return True

    def brackets(self, f: int, among: np.ndarray):
        """``(keys, vecs)``: the coordinates where [mats[f], mats[b]] can be
        nonzero, and its values there, one row of ``vecs`` per b in ``among``.

        For skew-Hermitian F and B, [F, B] = P^H - P with P = B F.  With S
        the index set F touches, P is zero outside the columns S, which are
        B[:, S] F[S, S], so only a coordinate (i, j) with i or j in S can be
        nonzero.  Each is gathered straight from P, a zero column standing
        in for the columns outside S: -2 Im P_ii on the diagonal,
        Re P_ji - Re P_ij and -Im P_ji - Im P_ij above it, the same
        operations as ``_vectorize(P^H - P)``.
        """
        side, touch = self.side, self.touch[f]
        cols = np.flatnonzero(touch)
        width = cols.size + 1
        at = np.full(side, cols.size)  # where column j of P is kept
        at[cols] = np.arange(cols.size)
        prods = np.zeros((among.size, side, width), dtype=np.complex128)
        prods[..., :-1] = (
            self.mats[among][..., cols].reshape(-1, cols.size) @ self.mats[f][np.ix_(cols, cols)]
        ).reshape(among.size, side, cols.size)
        prods = prods.reshape(among.size, -1)
        upper = np.flatnonzero(touch[self.iu[0]] | touch[self.iu[1]])
        i, j = self.iu[0][upper], self.iu[1][upper]
        low, high = prods[:, j * width + at[i]], prods[:, i * width + at[j]]
        keys = np.concatenate([cols, side + upper, side + self.iu[0].size + upper])
        diag = prods[:, cols * width + at[cols]]
        vecs = np.concatenate(
            [-2 * diag.imag, low.real - high.real, -low.imag - high.imag], axis=1
        )
        return keys, vecs

    def outside(self, f: int):
        """``(bs, vecs)``: each b, ascending, whose bracket [mats[f], mats[b]]
        the span may not hold, and that bracket's coordinates, one row each.

        Left out are brackets with norm below ``_ZERO_NORM``, [F, F] among
        them, or residual below a hundredth of ``tol * prenorm``: a full
        decade under the degenerate band, so the rounding of this one-pass
        projection cannot hide a bracket that ``offer`` would accept or
        refuse as ambiguous.

        When B and F touch disjoint index sets, B F and F B are exactly
        zero, so the bracket is left out without being formed.  The others
        are projected only against the rows sharing a coordinate with them,
        over the coordinates of both; every term left out is an exact zero.
        A basis without structural zeros meets everywhere, and this is the
        full computation.  Only the kept brackets are spread to side^2.
        """
        dim = self.dim
        among = np.flatnonzero(self.touch[:dim] @ self.touch[f])
        keys, vecs = self.brackets(f, among)
        pre = np.linalg.norm(vecs, axis=1)
        nonzero = pre >= _ZERO_NORM
        among, vecs, pre = among[nonzero], vecs[nonzero], pre[nonzero]
        live = (vecs != 0).any(axis=0)
        keys, vecs = keys[live], vecs[:, live]
        near = np.flatnonzero(self.coords[:dim, keys].any(axis=1))
        union = self.coords[near].any(axis=0)
        union[keys] = True
        spread = np.zeros((among.size, int(union.sum())))
        spread[:, (np.cumsum(union) - 1)[keys]] = vecs
        rows = self.rows[near][:, union]
        residual = np.linalg.norm(spread - (spread @ rows.T) @ rows, axis=1)
        out = ~(residual < self.tol * pre / 100.0)
        vecs_out = np.zeros((int(out.sum()), self.side * self.side))
        vecs_out[:, keys] = vecs[out]
        return among[out], vecs_out


def lie_closure_dim(basis: GeneratorBasis, tol: float = DEFAULT_TOL) -> LieClosureResult:
    """Dimension of the smallest bracket-closed real span of the generators.

    Deterministic: generators seed the span in their given order, then each
    round brackets the newest elements against the whole basis oldest-first
    until nothing new appears.  Stops early at the full dimension
    (side^2), beyond which the span cannot grow.
    """
    dim, iterations, _ = _closure(basis, tol)
    return LieClosureResult(dim=dim, predicted=None, match=None, iterations=iterations)


def _closure(basis: GeneratorBasis, tol: float):
    """Return ``(dim, iterations, mats)`` of the bracket closure, ``mats``
    being the ``(dim, side, side)`` orthonormal basis in acceptance order.

    The generators are vectorized in one call and offered in order.  Each
    frontier element F is bracketed once, as coordinates, against the basis
    it is about to loop over by the filter ``_SpanBuilder.outside``, and the
    brackets it returns are offered in basis order.  Rows added later can
    only shrink a residual, so a bracket it leaves out would have been
    rejected anyway: the accepted rows, ``dim`` and ``iterations`` are those
    of offering every bracket.  A tolerance that is not a number in (0, 1),
    NaN and infinity included, raises ToleranceDegenerateError.
    """
    if not 0 < tol < 1:
        raise ToleranceDegenerateError(f"closure tolerance {tol!r} is not in (0, 1)")
    if len(basis.mats) == 0:
        raise ValueError("empty generator basis")
    full = basis.side ** 2
    span = _SpanBuilder(basis.side, tol)
    for vec in _vectorize(np.asarray(basis.mats), span.iu):
        span.offer(vec)
    frontier = list(range(span.dim))
    iterations = 0
    while frontier and span.dim < full:
        iterations += 1
        new: list[int] = []
        for f in frontier:
            if span.dim >= full:
                break
            for vec in span.outside(f)[1]:
                if span.offer(vec):
                    new.append(span.dim - 1)
                if span.dim >= full:
                    break
        frontier = new
    return span.dim, iterations, span.mats[:span.dim]


def verify_structure(spec: WalkSpec, tol: float = DEFAULT_TOL) -> LieClosureResult:
    """Compute the closure dimension and compare it with the prediction.

    Walks with d*n above DEFAULT_DIM_CAP are refused.  Also checks the
    block structure: every closure element must vanish (magnitude below
    1e-9) between basis positions whose vertices lie in different
    components of the orbit criterion (``analyze(spec).components``);
    where one does not, ``off_block`` names the largest such entry.
    """
    side = spec.d * spec.n
    if side > DEFAULT_DIM_CAP:
        raise CapExceededError(f"d*n = {side} exceeds cap {DEFAULT_DIM_CAP}")
    report = analyze(spec)
    dim, iterations, mats = _closure(generator_basis(spec), tol)

    comp_of = np.empty(spec.n, dtype=np.int64)
    for ci, comp in enumerate(report.components):
        comp_of[list(comp)] = ci
    block_of = comp_of[np.arange(side) % spec.n]
    off_block = block_of[:, None] != block_of[None, :]
    off = np.abs(mats[:, off_block])
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
