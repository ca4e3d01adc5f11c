"""Seeded random walks, states and coins for the property suites.

Random permutation sets are built constructively (relabeled full cycles,
edge-disjoint perfect pairings, and mixes of the two) because the symmetry
constraint makes rejection sampling of raw permutations hopeless.  Every
construction is validated before being returned.
"""

from __future__ import annotations

import numpy as np

from qwalk.errors import DisconnectedError, QwalkError
from qwalk.graph_model import WalkSpec, validate
from qwalk.walk_core import CoinOp, WalkState

_MAX_TRIES = 500


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a complex Gaussian, phase-fixed)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state_vector(rng: np.random.Generator, size: int) -> np.ndarray:
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def random_walk_state(rng: np.random.Generator, spec: WalkSpec) -> WalkState:
    return WalkState(spec.d, spec.n, random_state_vector(rng, spec.d * spec.n))


def random_coin_op(rng: np.random.Generator, spec: WalkSpec) -> CoinOp:
    return CoinOp(np.stack([random_unitary(rng, spec.d) for _ in range(spec.n)]))


def _random_full_cycle(rng: np.random.Generator, n: int) -> np.ndarray:
    order = rng.permutation(n)
    images = np.empty(n, dtype=np.int64)
    images[order] = order[np.r_[1:n, 0]]
    return images


def _random_matching(rng: np.random.Generator, n: int, used: set) -> np.ndarray | None:
    """Fixed-point-free pairing edge-disjoint from `used`, or None."""
    for _ in range(_MAX_TRIES):
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[i + 1])) for i in range(0, n, 2)]
        if all(frozenset(e) not in used for e in edges):
            images = np.empty(n, dtype=np.int64)
            for a, b in edges:
                images[a], images[b] = b, a
            return images
    return None


def _edges_of(images: np.ndarray) -> set:
    return {frozenset((j, int(images[j]))) for j in range(images.size)}


def random_spec(
    rng: np.random.Generator, n: int | None = None, d: int | None = None
) -> WalkSpec:
    """A random valid walk with 3 <= n <= 8 and d in {2, 3}.

    Odd n forces d = 2 (the handshake constraint requires d*n even); the
    degree-2 family is then a relabeled full cycle.  Even n mixes cycle
    pairs, pairings-only walks and cycle+pairing walks of degree 3.
    """
    if n is None:
        n = int(rng.integers(3, 9))
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n % 2:
        if d not in (None, 2):
            raise ValueError(f"odd n = {n} requires d = 2")
        d = 2
    elif d is None:
        d = int(rng.choice([2, 2, 3]))

    for _ in range(_MAX_TRIES):
        kind = int(rng.integers(0, 2))
        perms, used = [], set()
        if n % 2 or (kind == 0 and d in (2, 3)):
            cyc = _random_full_cycle(rng, n)
            perms, used = [cyc, np.argsort(cyc)], _edges_of(cyc)
        while len(perms) < d:
            m = _random_matching(rng, n, used)
            if m is None:
                perms = []
                break
            used |= _edges_of(m)
            perms.append(m)
        if not perms:
            continue
        try:
            return validate(n, perms)
        except DisconnectedError:
            continue  # pairing union split into several cycles; resample
    raise RuntimeError(f"could not sample a valid walk with n={n}, d={d}")


def drawn_walk(seed, low=0, high=24):
    """A relabelled walk with low < dN <= high outside ``random_spec``'s
    families: a connected circulant (offsets S = -S, 0 not in S) on 3 to
    high / 2 vertices, or disjoint cycles of two lengths, at least 3 each,
    their inverse and a perfect matching joining them; at the default
    bounds, cycles of 3 + 3, 3 + 5 or 4 + 4."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, high // 2 + 1))
    if rng.random() < 0.3:
        choices = [(m, (a, m - a)) for m in range(6, high // 3 + 1, 2) if 3 * m > low
                   for a in range(3, m // 2 + 1)]
        n, lengths = choices[rng.integers(len(choices))]
        p1 = np.concatenate([np.roll(c, -1) for c in np.split(np.arange(n), lengths[:1])])
        while True:
            pairs = rng.permutation(n).reshape(-1, 2)
            p3 = np.empty(n, dtype=np.int64)
            p3[pairs[:, 0]], p3[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
            try:
                maps = validate(n, [p1, np.argsort(p1), p3]).maps
                break
            except QwalkError:
                continue
    else:
        while True:
            mid = n % 2 == 0 and 3 * n <= high and rng.random() < 0.5
            least = max(1, (low // n + 2 - mid) // 2)  # offset pairs for dN > low
            most = min((high // n - mid) // 2, (n - 1) // 2)
            if least > most:
                n = int(rng.integers(3, high // 2 + 1))
                continue
            size = int(rng.integers(least, most + 1))
            pairs = rng.choice(np.arange(1, (n + 1) // 2), size=size, replace=False)
            offsets = [*pairs, *(n - pairs), *([n // 2] if mid else [])]
            if np.gcd.reduce([n, *offsets]) == 1:
                break
        maps = (np.arange(n) + np.array(offsets)[:, None]) % n
    sigma = rng.permutation(n)
    return validate(n, [sigma[m][np.argsort(sigma)] for m in maps])
