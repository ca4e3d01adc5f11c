"""Constructive state transfer: coin sequences that spread, reach and gather.

All constructions are recursive over reachability levels and deterministic:
ties in the choice of a predecessor break toward the smallest vertex, then
the smallest coin value.  Vertices untouched by a partial coin step get the
identity block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllability import analyze, reachable_sets
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotControllableError,
    NotUnitError,
    UnreachableError,
)
from .graph_model import WalkSpec
from .walk_core import NORM_TOL, CoinOp, WalkState, step

ZERO_COEFF = 1e-14


@dataclass(frozen=True, eq=False)
class ControlSequence:
    """Ordered coin operations plus the construction phase of each step.

    ``bound`` is the paper's 2k + r step bound of the walk, set on the
    sequences ``arbitrary_transfer`` returns.
    """

    ops: tuple
    meta: tuple
    bound: int | None = None

    def __post_init__(self):
        ops = tuple(self.ops)
        meta = tuple(self.meta)
        if len(ops) != len(meta):
            raise ValueError("ops and meta must have equal length")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "meta", meta)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class TargetSpread:
    """A node-probability target: distinct vertices with unit-norm complex
    coefficients."""

    nodes: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        nodes = tuple(int(v) for v in self.nodes)
        coeffs = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if len(nodes) != coeffs.size:
            raise ValueError("one coefficient per node required")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"target nodes must be distinct: {nodes}")
        norm = float(np.linalg.norm(coeffs))
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN
            raise NotUnitError(f"coefficient norm {norm!r} is not 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)


def _coin_vector(d: int, c0) -> np.ndarray:
    if isinstance(c0, (int, np.integer)):
        if not 0 <= c0 < d:
            raise IndexOutOfRangeError(f"coin value {c0} out of range 0..{d - 1}")
        vec = np.zeros(d, dtype=np.complex128)
        vec[c0] = 1.0
        return vec
    vec = np.asarray(c0, dtype=np.complex128).reshape(-1)
    if vec.size != d:
        raise DimensionMismatchError(f"coin state has size {vec.size}, expected {d}")
    if not abs(float(np.linalg.norm(vec)) - 1.0) <= NORM_TOL:
        raise NotUnitError("coin state is not a unit vector")
    return vec


def _reflector_to_e1(x: np.ndarray) -> np.ndarray:
    """Unitary sending x (unit norm) exactly to the first basis vector.

    Sign-stabilized Householder reflection with the residual phase folded
    into a diagonal factor; never degenerate.
    """
    d = x.size
    phase = np.exp(1j * np.angle(x[0])) if abs(x[0]) > 0 else 1.0
    w = x.astype(np.complex128).copy()
    w[0] += phase
    u = np.eye(d, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / np.vdot(w, w).real
    u[0, :] *= -np.conj(phase)
    return u


def unitary_completion(src, dst) -> np.ndarray:
    """A d x d unitary Q with Q @ src = dst, for unit vectors src and dst.

    Composes two Householder-style reflections through the first basis
    vector (src -> e1, then e1 -> dst).
    """
    src = np.asarray(src, dtype=np.complex128).reshape(-1)
    dst = np.asarray(dst, dtype=np.complex128).reshape(-1)
    if src.size != dst.size:
        raise DimensionMismatchError(f"sizes differ: {src.size} vs {dst.size}")
    for name, vec in (("src", src), ("dst", dst)):
        if not abs(float(np.linalg.norm(vec)) - 1.0) <= NORM_TOL:
            raise NotUnitError(f"{name} is not a unit vector")
    return _reflector_to_e1(dst).conj().T @ _reflector_to_e1(src)


def _strip_zeros(nodes, coeffs):
    kept = [(v, a) for v, a in zip(nodes, coeffs) if abs(a) > ZERO_COEFF]
    if not kept:
        raise ValueError("target has no nonzero coefficients")
    return tuple(v for v, _ in kept), np.array([a for _, a in kept], dtype=np.complex128)


def _spread(spec, j, c0vec, nodes, coeffs, k, nsets, inv_maps):
    """Recursive core of spread_from_node; returns (ops, coin states)."""
    d, n = spec.d, spec.n
    if k == 0:
        assert tuple(nodes) == (j,)  # guaranteed by the reachability check
        phase = complex(coeffs[0])
        return [], {j: np.conj(phase) * c0vec}
    prev = nsets[k - 1]
    groups: dict[int, list] = {}
    for v, a in zip(nodes, coeffs):
        for w, coin in sorted((int(inv_maps[c][v]), c) for c in range(d)):
            if w in prev:
                groups.setdefault(w, []).append((v, a, coin))
                break
        else:  # impossible: v in nsets[k] means it has a predecessor
            raise UnreachableError(f"no predecessor for vertex {v} at level {k}")
    zs = sorted(groups)
    gammas = np.array(
        [np.sqrt(sum(abs(a) ** 2 for _, a, _ in groups[z])) for z in zs]
    )
    ops, deltas = _spread(spec, j, c0vec, tuple(zs), gammas, k - 1, nsets, inv_maps)
    blocks = {}
    coin_states = {}
    for z, gamma in zip(zs, gammas):
        dst = np.zeros(d, dtype=np.complex128)
        for v, a, coin in groups[z]:
            dst[coin] += a / gamma
            evec = np.zeros(d, dtype=np.complex128)
            evec[coin] = 1.0
            coin_states[v] = evec
        blocks[z] = unitary_completion(deltas[z], dst)
    ops.append(CoinOp.from_blocks(d, n, blocks))
    return ops, coin_states


def spread_from_node(spec: WalkSpec, j: int, c0, target: TargetSpread, k: int):
    """Steer |c0> at node j to the target node distribution in exactly k steps.

    Returns (sequence, coin states): the achieved state is
    sum_h alpha_h |chi_h> (x) |v_h> with chi_h the returned per-node coin
    state (a coin basis vector chosen by the construction; per-node coin
    states cannot be prescribed here, use reach_full_state for that).
    """
    if not 0 <= j < spec.n:
        raise IndexOutOfRangeError(f"vertex {j} out of range 0..{spec.n - 1}")
    c0vec = _coin_vector(spec.d, c0)
    nodes, coeffs = _strip_zeros(target.nodes, target.coeffs)
    nsets = reachable_sets(spec, j, k)
    missing = [v for v in nodes if v not in nsets[k]]
    if missing:
        raise UnreachableError(
            f"nodes {missing} are not reachable from {j} in exactly {k} steps"
        )
    inv_maps = [p.inverse().map for p in spec.perms]
    ops, states = _spread(spec, j, c0vec, nodes, coeffs, k, nsets, inv_maps)
    return ControlSequence(tuple(ops), ("spread",) * len(ops)), states


def reach_full_state(spec: WalkSpec, j: int, c0, target: WalkState, k: int) -> ControlSequence:
    """Steer |c0> at node j to an arbitrary state in k + 1 steps.

    Spread to the per-node weights of S^-1 target (S the bare shift) in k
    steps, then mix each node's coin into its column of S^-1 target in one
    more step, whose shift lands it on the target.  S^-1 target must lie on
    the level-k reachable set of j, as it does at a covering level; where
    it does not, the spread raises UnreachableError naming the nodes.  A
    target that needs t more bare shifts is reached by the call at level
    k + t - 1 in k + t steps: S^-1 target = S^(t-1) (S^-t target), and
    each step carries the level-i reachable set into level i + 1.
    """
    if target.d != spec.d or target.n != spec.n:
        raise DimensionMismatchError("target does not match the walk dimensions")
    coins = np.arange(spec.d)[:, None]
    maps = np.stack([p.map for p in spec.perms])
    pre = target.table()[coins, maps]  # (S^-1 x)[c, v] = x[c, P_c v]
    norms = np.linalg.norm(pre, axis=0)
    nodes = tuple(int(v) for v in np.flatnonzero(norms > ZERO_COEFF))
    betas = norms[list(nodes)]
    seq, coin_states = spread_from_node(
        spec, j, c0, TargetSpread(nodes, betas), k
    )
    mix_blocks = {
        v: unitary_completion(coin_states[v], pre[:, v] / beta)
        for v, beta in zip(nodes, betas)
    }
    mix = CoinOp.from_blocks(spec.d, spec.n, mix_blocks)
    return ControlSequence(seq.ops + (mix,), seq.meta + ("mix",))


def concentrate_to_node(spec: WalkSpec, j: int, state: WalkState, k: int):
    """Steer a state supported on the level-k reachable set of j onto node j.

    At each level every support node's coin vector is rotated onto the coin
    value whose permutation moves it one level closer to j.  Returns
    (sequence of length <= k, final coin vector at j).
    """
    if not 0 <= j < spec.n:
        raise IndexOutOfRangeError(f"vertex {j} out of range 0..{spec.n - 1}")
    if state.d != spec.d or state.n != spec.n:
        raise DimensionMismatchError("state does not match the walk dimensions")
    nsets = reachable_sets(spec, j, k)
    support = {
        int(v)
        for v in np.flatnonzero(np.linalg.norm(state.table(), axis=0) > ZERO_COEFF)
    }
    missing = sorted(support - nsets[k])
    if missing:
        raise UnreachableError(
            f"nodes {missing} are not reachable from {j} in exactly {k} steps"
        )
    ops = []
    current = state
    for level in range(k, 0, -1):
        table = current.table()
        support = {
            int(v) for v in np.flatnonzero(np.linalg.norm(table, axis=0) > ZERO_COEFF)
        }
        if support == {j}:
            break
        prev = nsets[level - 1]
        blocks = {}
        for v in sorted(support):
            col = table[:, v]
            gamma = float(np.linalg.norm(col))
            for w, coin in sorted((int(p.map[v]), c) for c, p in enumerate(spec.perms)):
                if w in prev:
                    break
            else:  # impossible for v in nsets[level]
                raise UnreachableError(f"no step from {v} toward {j} at level {level}")
            evec = np.zeros(spec.d, dtype=np.complex128)
            evec[coin] = 1.0
            blocks[v] = unitary_completion(col / gamma, evec)
        op = CoinOp.from_blocks(spec.d, spec.n, blocks)
        ops.append(op)
        current = step(current, op, spec)
    final_coin = current.table()[:, j].copy()
    return ControlSequence(tuple(ops), ("concentrate",) * len(ops)), final_coin


def arbitrary_transfer(spec: WalkSpec, psi1: WalkState, psi2: WalkState) -> ControlSequence:
    """Coin sequence steering psi1 to psi2, at most 2k + 1 steps long, where
    k is the walk's best covering step count (the paper's bound is 2k + r,
    r the shift order).

    Concentrates psi1 onto the vertex achieving k, then reaches psi2 from
    there in k + 1 steps, since every vertex is reachable at level k; the
    spread accepts whatever coin state the gather phase left, since its
    first coin operation is free.  The sequence carries the walk's 2k + r
    bound as ``bound``.
    """
    report = analyze(spec)
    if not report.controllable:
        raise NotControllableError(
            f"walk is not controllable; vertex partition {report.components}",
            partition=report.components,
        )
    kk, jstar = report.kappa, report.kappa_vertex
    seq1, gamma = concentrate_to_node(spec, jstar, psi1, kk)
    seq2 = reach_full_state(spec, jstar, gamma, psi2, kk)
    return ControlSequence(seq1.ops + seq2.ops, seq1.meta + seq2.meta, report.step_bound)
