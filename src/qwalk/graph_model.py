"""Walk specifications: permutation sets compatible with a connected regular graph.

A walk on ``N`` vertices of degree ``d`` is defined by ``d`` permutations
``P_1 .. P_d`` of ``{0, ..., N-1}``.  Vertices are 0-based everywhere.  The
canonical permutation representation is one-line notation (index -> image);
cycle notation such as ``"(0 1 2)(3 4)"`` is accepted as input sugar.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
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


class Permutation:
    """A bijection on ``{0, ..., n-1}`` stored in one-line notation.

    ``p.map[j]`` is the image of vertex ``j``; lookups are O(1).  Instances
    are immutable.
    """

    __slots__ = ("map",)

    def __init__(self, images):
        try:
            raw = np.asarray(images)
        except ValueError:  # ragged nesting
            raise NotBijectionError("images are not a flat array of integers") from None
        if raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raw = raw.astype(np.int64)
        if raw.dtype.kind not in "iu":
            raise NotBijectionError(f"images must be integers: {raw.tolist()}")
        arr = raw.astype(np.int64)
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

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @classmethod
    def from_cycles(cls, text: str, n: int) -> "Permutation":
        """Parse cycle notation, e.g. ``"(0 1 2)(3 4)"``; separators are
        spaces or commas. Vertices not mentioned are fixed points."""
        stripped = text.replace(" ", "").replace(",", "")
        if stripped and _CYCLE_RE.sub("", text).strip():
            raise SpecValidationError(f"unparsable cycle notation: {text!r}")
        images = np.arange(n)
        touched = set()
        for group in _CYCLE_RE.findall(text):
            elems = [int(tok) for tok in re.split(r"[,\s]+", group.strip()) if tok]
            if not elems:
                continue
            for v in elems:
                if v < 0 or v >= n:
                    raise NotBijectionError(f"vertex {v} out of range 0..{n - 1}")
                if v in touched:
                    raise NotBijectionError(f"vertex {v} appears in two cycles")
                touched.add(v)
            for a, b in zip(elems, elems[1:] + elems[:1]):
                images[a] = b
        return cls(images)

    @property
    def n(self) -> int:
        return int(self.map.size)

    def __call__(self, j: int) -> int:
        return int(self.map[j])

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.map, other.map)

    def __hash__(self):
        return hash(self.map.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.map.tolist()})"

    def compose(self, other: "Permutation") -> "Permutation":
        """Right-to-left composition: ``p.compose(q)`` applies ``q`` first,
        i.e. ``p.compose(q)(j) == p(q(j))``."""
        if self.n != other.n:
            raise LengthMismatchError(f"sizes differ: {self.n} vs {other.n}")
        return Permutation(self.map[other.map])

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.map] = np.arange(self.n)
        return Permutation(inv)

    def power(self, k: int) -> "Permutation":
        """k-th power; negative exponents allowed."""
        k %= self.order()
        result = np.arange(self.n)
        square = self.map
        while k:
            if k & 1:
                result = square[result]
            square = square[square]
            k >>= 1
        return Permutation(result)

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles covering every vertex, fixed points as singletons.

        Each cycle starts at its smallest element; cycles are sorted by that
        element.
        """
        seen = np.zeros(self.n, dtype=bool)
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = int(self.map[start])
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = int(self.map[v])
            out.append(tuple(cyc))
        return out

    def cycle_notation(self) -> str:
        """Display form; fixed points omitted, identity prints ``()``."""
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) or "()"


@dataclass(frozen=True, eq=False)
class WalkSpec:
    """A validated walk: vertex count, defining permutations, adjacency."""

    n: int
    perms: tuple[Permutation, ...]
    adjacency: np.ndarray

    @property
    def d(self) -> int:
        return len(self.perms)

    def neighbors(self, j: int) -> list[int]:
        return np.flatnonzero(self.adjacency[j]).tolist()

    def __repr__(self) -> str:
        return f"WalkSpec(n={self.n}, d={self.d})"


def _as_permutation(raw, n: int, index: int) -> Permutation:
    if isinstance(raw, Permutation):
        p = raw
    elif isinstance(raw, str):
        p = Permutation.from_cycles(raw, n)
    else:
        p = Permutation(raw)
    if p.n != n:
        raise LengthMismatchError(f"permutation {index} has length {p.n}, expected {n}")
    return p


def connected_components(adj: Sequence[Iterable[int]]) -> list[list[int]]:
    """Sorted components of an adjacency-set graph, ordered by least vertex."""
    n = len(adj)
    unseen = set(range(n))
    comps = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        unseen -= comp
        comps.append(sorted(comp))
    return comps


def validate(n: int, perms) -> WalkSpec:
    """Check a raw permutation set and build the WalkSpec.

    Requirements, in the order they are checked: every entry is a bijection
    of the right length; no permutation fixes a vertex; no two permutations
    agree anywhere; the summed permutation matrices form a symmetric 0/1
    adjacency matrix; the graph is connected.  Errors name the offending
    vertex / permutation indices.
    """
    if n < 3:
        raise SpecValidationError(f"need at least 3 vertices, got {n}")
    ps = [_as_permutation(raw, n, i) for i, raw in enumerate(perms)]
    d = len(ps)
    if d < 2:
        raise SpecValidationError(f"need at least 2 permutations, got {d}")

    idx = np.arange(n)
    for i, p in enumerate(ps):
        fixed = np.flatnonzero(p.map == idx)
        if fixed.size:
            raise SelfLoopError(f"permutation {i} fixes vertex {int(fixed[0])}")

    for i in range(d):
        for k in range(i + 1, d):
            hit = np.flatnonzero(ps[i].map == ps[k].map)
            if hit.size:
                j = int(hit[0])
                raise CoinCollisionError(
                    f"permutations {i} and {k} both send vertex {j} to {ps[i](j)}"
                )

    # Entries stay 0/1: an entry of 2 needs two permutations sending one
    # vertex to the same image, which the collision check has rejected.
    adjacency = np.zeros((n, n), dtype=np.int64)
    for p in ps:
        adjacency[p.map, idx] += 1

    asym = np.argwhere(adjacency != adjacency.T)
    if asym.size:
        l, j = (int(v) for v in asym[0])
        raise NotSymmetricError(
            f"transition {j} -> {l} has no reverse transition {l} -> {j}"
        )

    comps = connected_components([np.flatnonzero(row).tolist() for row in adjacency])
    if len(comps) > 1:
        raise DisconnectedError(
            f"graph is disconnected; vertices {comps[0]} form a component"
        )

    adjacency.setflags(write=False)
    return WalkSpec(n=n, perms=tuple(ps), adjacency=adjacency)


def product_walk(a: WalkSpec, b: WalkSpec) -> WalkSpec:
    """Product of two walks on the cartesian product graph.

    Vertex ``(j, k)`` is flattened row-major to ``j * b.n + k``.  The first
    factor's permutations act on ``j``, then the second factor's act on
    ``k``; the result has degree ``a.d + b.d``.
    """
    n2 = b.n
    row = np.repeat(np.arange(a.n), n2)
    col = np.tile(np.arange(n2), a.n)
    lifted = [p.map[row] * n2 + col for p in a.perms]
    lifted += [row * n2 + q.map[col] for q in b.perms]
    return validate(a.n * n2, lifted)


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

