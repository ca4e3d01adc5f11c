"""Walk specifications: permutation sets compatible with a connected regular graph.

A walk on ``N`` vertices of degree ``d`` is defined by ``d`` permutations
``P_1 .. P_d`` of ``{0, ..., N-1}``.  Vertices are 0-based everywhere.  A
validated walk stores only its images, one (d, N) array; ``Permutation``
objects and cycle notation such as ``"(0 1 2)(3 4)"`` are input sugar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoinCollisionError,
    DisconnectedError,
    LengthMismatchError,
    NotBijectionError,
    NotSymmetricError,
    ParityError,
    SelfLoopError,
    SpecValidationError,
)

_CYCLE_RE = re.compile(r"\(([\d,\s]*)\)")


def _integer(value):
    """The integer test of the index rule: an int, a numpy integer or a float
    with an integral value, as an int; None for a bool or anything else.  A
    numpy array passes by its dtype and values below 2**63, as an int64 copy."""
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iu" or value.dtype.kind == "f" and np.all(
            (np.abs(value) < 2.0 ** 63) & (value == np.trunc(value)))
        return value.astype(np.int64) if ok else None
    ok = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
          or isinstance(value, (float, np.floating)) and float(value).is_integer())
    return int(value) if ok else None


def _as_array(values) -> np.ndarray:
    """``values`` as an array for ``_integer``: an object array, which it
    refuses, for a list or tuple holding a bool, which numpy reads as 0 or 1.
    The entry types are tested at C speed, since a spec has d*N images."""
    bools = isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values))
    return np.asarray(values, dtype=object if bools else None)


class Permutation:
    """A bijection on ``{0, ..., n-1}`` in one-line notation, the input form
    of a walk's permutations: ``p.map[j]`` is the image of vertex ``j``.
    Instances are immutable."""

    __slots__ = ("map",)

    def __init__(self, images):
        try:
            raw = _as_array(images)
        except ValueError:  # ragged nesting
            raise NotBijectionError("images are not a flat array of integers") from None
        arr = _integer(raw)
        if arr is None:
            raise NotBijectionError(f"images must be integers: {raw.tolist()}")
        if arr.ndim != 1 or arr.size == 0:
            raise NotBijectionError("need a non-empty one-dimensional image array")
        n = arr.size
        if arr.min() < 0 or arr.max() >= n:
            raise NotBijectionError(f"images out of range 0..{n - 1}: {arr.tolist()}")
        seen = np.zeros(n, dtype=bool)
        seen[arr] = True
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise NotBijectionError(f"vertex {missing} has no preimage; not a bijection")
        arr.setflags(write=False)
        self.map = arr

    @property
    def n(self) -> int:
        return int(self.map.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.map, other.map)

    def __hash__(self):
        return hash(self.map.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.map.tolist()})"


def _cycle_images(text: str, n: int) -> dict:
    """The image of each vertex that cycle notation names."""
    stripped = text.replace(" ", "").replace(",", "")
    if stripped and _CYCLE_RE.sub("", text).strip():
        raise SpecValidationError(f"unparsable cycle notation: {text!r}")
    images = {}
    for group in _CYCLE_RE.findall(text):
        toks = [tok.lstrip("0") or "0" for tok in re.split(r"[,\s]+", group.strip()) if tok]
        try:
            elems = [int(tok) for tok in toks]
        except ValueError:  # past int()'s digit limit, which bounds n read from JSON too
            raise NotBijectionError(f"vertex {max(toks, key=len)} out of range 0..{n - 1}") from None
        for v, w in zip(elems, elems[1:] + elems[:1]):
            if v < 0 or v >= n:
                raise NotBijectionError(f"vertex {v} out of range 0..{n - 1}")
            if v in images:
                raise NotBijectionError(f"vertex {v} appears in two cycles")
            images[v] = w
    return images


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A validated walk: the vertex count and the images of its permutations
    as one read-only (d, N) array, ``maps[c, v] = P_c v``."""

    n: int
    maps: np.ndarray

    @property
    def d(self) -> int:
        return self.maps.shape[0]

    @property
    def perms(self) -> tuple[Permutation, ...]:
        """The rows of ``maps`` as Permutations, built on each access."""
        return tuple(Permutation(row) for row in self.maps)

    def __repr__(self) -> str:
        return f"WalkSpec(n={self.n}, d={self.d})"


def _as_map(raw, n: int, index: int):
    """Entry ``index`` as an image array.  Cycle notation that fixes a
    vertex, as no walk does, gives the least vertex it fixes instead, and
    no n-length array: n may be far too large for one."""
    if isinstance(raw, str):
        images = _cycle_images(raw, n)
        fixed = next((v for v in range(n) if images.get(v, v) == v), None)
        if fixed is not None:
            return fixed
        raw = [images[v] for v in range(n)]
    p = raw if isinstance(raw, Permutation) else Permutation(raw)
    if p.n != n:
        raise LengthMismatchError(f"permutation {index} has length {p.n}, expected {n}")
    return p.map


def cycle_table(maps: np.ndarray):
    """Cycles of a (k, N) permutation stack, as three flat arrays over the
    entries ``row * N + vertex``: the entry of the cycle's least vertex, the
    steps on from it, and the cycle length.  Pointer doubling takes
    ceil(log2 N) rounds, whatever the cycle lengths."""
    k, n = maps.shape
    jump = (maps + n * np.arange(k)[:, None]).ravel()
    low = np.arange(k * n)
    ahead = np.zeros(k * n, dtype=np.int64)  # steps on to low
    for r in range((n - 1).bit_length()):
        cand = low[jump]
        better = cand < low
        low = np.where(better, cand, low)
        ahead = np.where(better, ahead[jump] + (1 << r), ahead)
        jump = jump[jump]
    size = np.bincount(low, minlength=k * n)[low]
    return low, (size - ahead) % size, size


def component_labels(count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least node of each node's component in the graph on
    ``range(count)`` with edges ``u[i] - v[i]``.  Each round hooks every
    root an edge joins to a smaller root onto the least such root, then
    jumps pointers until every node points at its root."""
    label = np.arange(count)
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            return label
        u, v, lu, lv = u[cross], v[cross], lu[cross], lv[cross]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while ((up := label[label]) != label).any():
            label = up


def validate(n: int, perms) -> WalkSpec:
    """Check a raw permutation set and build the WalkSpec.

    Requirements, in the order they are checked: every entry is a bijection
    of the right length; no permutation fixes a vertex; no two permutations
    agree anywhere; the summed permutation matrices form a symmetric 0/1
    adjacency matrix; the graph is connected.  Errors name the offending
    vertex / permutation indices.  ``n`` must pass ``_integer``.
    """
    if _integer(n) is None:
        raise SpecValidationError(f"vertex count must be an integer, got {n!r}")
    n = _integer(n)
    if n < 3:
        raise SpecValidationError(f"need at least 3 vertices, got {n}")
    rows = [_as_map(raw, n, i) for i, raw in enumerate(perms)]
    d = len(rows)
    if d < 2:
        raise SpecValidationError(f"need at least 2 permutations, got {d}")
    if any(isinstance(row, int) for row in rows):  # name the first entry with a fixed point
        for i, row in enumerate(rows):
            fixed = row if isinstance(row, int) else np.flatnonzero(row == np.arange(n))
            if np.size(fixed):
                raise SelfLoopError(f"permutation {i} fixes vertex {int(np.min(fixed))}")

    maps = np.stack(rows)
    maps.setflags(write=False)
    idx = np.arange(n)
    if (maps == idx).any():
        i, j = np.argwhere(maps == idx)[0].tolist()
        raise SelfLoopError(f"permutation {i} fixes vertex {j}")

    # Transition v -> P_c v has code P_c v * n + v: codes repeat where coins
    # collide, and distinct codes equal their reverses iff the walk is symmetric.
    codes, reverse = (maps * n + idx).ravel(), (idx * n + maps).ravel()
    ordered = np.sort(codes)
    if (ordered[1:] == ordered[:-1]).any():
        # a stable column sort keeps a column's least colliding pair adjacent
        order = np.argsort(maps, axis=0, kind="stable")
        r, col = np.nonzero(np.diff(np.take_along_axis(maps, order, axis=0), axis=0) == 0)
        first, later = order[r, col], order[r + 1, col]
        at = np.lexsort((col, later, first))[0]
        i, k, j = int(first[at]), int(later[at]), int(col[at])
        raise CoinCollisionError(f"permutations {i} and {k} both send vertex {j} to {maps[i, j]}")
    if not np.array_equal(ordered, np.sort(reverse)):
        l, j = divmod(int(np.setxor1d(codes, reverse)[0]), n)
        raise NotSymmetricError(f"transition {j} -> {l} has no reverse transition {l} -> {j}")

    label = component_labels(n, np.arange(d * n) % n, maps.ravel())
    if label.any():
        comp = np.flatnonzero(label == 0).tolist()
        raise DisconnectedError(f"graph is disconnected; vertices {comp} form a component")
    return WalkSpec(n=n, maps=maps)


def product_walk(a: WalkSpec, b: WalkSpec) -> WalkSpec:
    """Product of two walks on the cartesian product graph.

    Vertex ``(j, k)`` is flattened row-major to ``j * b.n + k``.  The first
    factor's permutations act on ``j``, then the second factor's act on
    ``k``; the result has degree ``a.d + b.d``.
    """
    n2 = b.n
    row = np.repeat(np.arange(a.n), n2)
    col = np.tile(np.arange(n2), a.n)
    return validate(a.n * n2, [*a.maps[:, row] * n2 + col, *row * n2 + b.maps[:, col]])


def cycle_shift(n: int) -> WalkSpec:
    """Degree-2 walk on the n-cycle: one step clockwise, one counterclockwise."""
    idx = np.arange(n)
    return validate(n, [(idx + 1) % n, (idx - 1) % n])


def cycle_exchange(n: int) -> WalkSpec:
    """Degree-2 walk on the n-cycle built from two interleaved pairings.

    The first permutation swaps (0 1)(2 3)...; the second swaps
    (1 2)(3 4)...(n-1 0).  Only possible when n is even.
    """
    if n % 2:
        raise ParityError(f"cycle_exchange needs an even vertex count, got {n}")
    up = np.arange(n) ^ 1
    down = np.array([(j + 1) % n if j % 2 else (j - 1) % n for j in range(n)])
    return validate(n, [up, down])


def complete(n: int) -> WalkSpec:
    """Walk on the complete graph via the circulant decomposition j -> j+k."""
    idx = np.arange(n)
    return validate(n, [(idx + k) % n for k in range(1, n)])


def figure1() -> WalkSpec:
    """Six-vertex, degree-3 walk: the two cycle directions plus a cross pairing."""
    return validate(6, [[1, 2, 3, 4, 5, 0], [5, 0, 1, 2, 3, 4], [3, 5, 4, 0, 2, 1]])


def torus(n1: int, n2: int) -> WalkSpec:
    """Degree-4 walk on the n1 x n2 periodic lattice (product of two cycles)."""
    return product_walk(cycle_shift(n1), cycle_shift(n2))

