"""Constructive state transfer: coin sequences that spread, reach and gather.

All constructions go level by level over the exact reachable sets and are
deterministic: each vertex steps to or from its least (vertex, coin) pair
in the neighbouring level, the smallest vertex first, then the smallest coin
value.  Each level's coin blocks come from one batched completion, and
vertices untouched by a partial coin step get the identity block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllability import analyze, reachable_masks
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotControllableError,
    NotUnitError,
    UnreachableError,
)
from .graph_model import WalkSpec, _integer
from .walk_core import (
    NORM_TOL, WalkState, _check_dims, _coin_ops, _index, _indices, _step_table, _unit_norm)

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
    """A node-probability target: distinct vertices (each passes ``_integer``;
    ``spread_from_node`` checks the range) with unit-norm complex coefficients."""

    nodes: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        nodes = tuple(_integer(v) for v in self.nodes)
        if None in nodes:
            bad = [v for v, i in zip(self.nodes, nodes) if i is None]
            raise IndexOutOfRangeError(f"target nodes {bad} are not vertex indices")
        coeffs = np.array(self.coeffs, dtype=np.complex128).reshape(-1)  # a copy
        if len(nodes) != coeffs.size:
            raise ValueError("one coefficient per node required")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"target nodes must be distinct: {nodes}")
        _unit_norm(coeffs, "coefficient")
        coeffs.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)


def _coin_vector(d: int, c0) -> np.ndarray:
    if np.ndim(c0) == 0:  # a coin value
        return np.eye(d, dtype=np.complex128)[_index(c0, d, "coin value")]
    vec = np.asarray(c0, dtype=np.complex128).reshape(-1)
    if vec.size != d:
        raise DimensionMismatchError(f"coin state has size {vec.size}, expected {d}")
    _unit_norm(vec, "coin state")
    return vec


def _reflectors(x: np.ndarray) -> np.ndarray:
    """Per row x (unit norm, else NotUnitError) of a (B, d) array, a unitary
    sending x exactly to the first basis vector; (B, d, d).

    Sign-stabilized Householder reflection with the residual phase folded
    into a diagonal factor; never degenerate.  Every row gets the arithmetic
    of a one-row call: its denominator is the ``vdot`` BLAS dot of the row,
    through ``_row_dots``.  A sum along an axis can differ from it in the
    last ulp, and such noise, passed on to a later level's x[0] == 0, turns
    on the phase branch and changes the blocks built from it by up to 2.
    So ``_reflectors(np.eye(d))[c]`` is the reflector of coin basis vector c.
    """
    if not np.all(np.abs(np.linalg.norm(x, axis=1) - 1.0) <= NORM_TOL):  # also rejects NaN
        raise NotUnitError("a completion's row is not a unit vector")
    d = x.shape[1]
    lead = x[:, 0]
    phase = np.ones(len(x), dtype=np.complex128)
    turned = lead != 0
    phase[turned] = np.exp(1j * np.angle(lead[turned]))
    w = x.astype(np.complex128, order="C")  # unit-stride rows, as vdot copies them
    w[:, 0] += phase
    norms = _row_dots(w.conj(), w).real
    outer = w[:, :, None] * w.conj()[:, None, :]
    u = np.eye(d, dtype=np.complex128) - 2.0 * outer / norms[:, None, None]
    u[:, 0, :] *= -np.conj(phase)[:, None]
    return u


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row pair of the (B, d) arrays a and b, with the bits of a one-row
    ``ndarray.dot``: matmul's vector @ vector loop calls the same BLAS dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _completions(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per row pair of the (B, d) arrays src and dst (unit rows), a d x d
    unitary Q with Q @ src = dst; (B, d, d).  Either side may instead be the
    (B, d, d) ``_reflectors`` of its rows.

    Composes two Householder-style reflections through the first basis
    vector (src -> e1, then e1 -> dst).
    """
    src, dst = (x if x.ndim == 3 else _reflectors(x) for x in (src, dst))
    return dst.conj().transpose(0, 2, 1) @ src


def _least_steps(ends: np.ndarray, members: np.ndarray):
    """For each column of ends, the (d, B) vertices that each coin's step
    leads to, the least (vertex, coin) whose vertex lies in the boolean
    mask members.  Returns (coins, vertices); -1 where no vertex does."""
    d = len(ends)
    key = np.where(members[ends], ends * d + np.arange(d)[:, None], members.size * d)
    coins = key.argmin(axis=0)
    cols = np.arange(ends.shape[1])
    return coins, np.where(members[ends[coins, cols]], ends[coins, cols], -1)


def _spread(spec, j, c0, nodes, coeffs, k, final=None):
    """Core of spread_from_node; returns (ops, coin states of nodes).

    Walks down the levels grouping each level's nodes under their least
    (predecessor, coin), whose weight is the group's norm; a level's sources,
    the coin basis vectors of the level below, are then known, and one
    completion batch and one check build every step, then ``final``'s: a
    step turning each node's coin state into its row.  The weights keep the
    scalar arithmetic of a per-node sum: libm's pow for the squares, in node
    order (the array square x * x differs from pow in the last ulp), and
    a / gamma stays a complex division at the top level and a real one below.
    """
    d, n = spec.d, spec.n
    c0vec = _coin_vector(d, c0)
    inv = np.argsort(spec.maps, axis=1)
    top = nodes = np.asarray(nodes, dtype=np.intp)
    masks = reachable_masks(spec, j, k, top.tolist())
    levels = [] if final is None else [(None, top, final)]
    for level in range(len(masks) - 1, 0, -1):
        coins, preds = _least_steps(inv[:, nodes], masks[level - 1])
        if (preds < 0).any():  # impossible: nodes in the level mask have predecessors
            v = int(nodes[np.argmax(preds < 0)])
            raise UnreachableError(f"no predecessor for vertex {v} at level {level}")
        zs, group = np.unique(preds, return_inverse=True)
        weights = np.bincount(group, weights=[abs(a) ** 2 for a in coeffs], minlength=len(zs))
        gammas = np.sqrt(weights)
        dst = np.zeros((len(zs), d), dtype=np.complex128)
        dst[group, coins] += coeffs / gammas[group]
        levels.insert(0, (coins, zs, dst))
        nodes, coeffs = zs, gammas
    row = np.conj(complex(coeffs[0])) * c0vec  # level 0's coin state, of two unit factors
    norm = np.linalg.norm(row)  # within NORM_TOL of 1 each, so the product may miss it
    if not abs(norm - 1.0) <= NORM_TOL:
        row /= norm
    if not levels:
        return [], row[None]
    coins, zs, dst = zip(*levels)
    basis = _reflectors(np.eye(d))
    src = np.concatenate([_reflectors(row[None]), *(basis[c] for c in coins[:-1])])
    ops = _coin_ops(d, n, zs, _completions(src, np.concatenate(dst)))
    return ops, np.eye(d, dtype=np.complex128)[coins[-1]] if final is None else final


def spread_from_node(spec: WalkSpec, j: int, c0, target: TargetSpread, k: int):
    """Steer |c0> at node j to the target node distribution in exactly k steps.

    Returns (sequence, coin states): the achieved state is
    sum_h alpha_h |chi_h> (x) |v_h> with chi_h the returned per-node coin
    state (a coin basis vector chosen by the construction; per-node coin
    states cannot be prescribed here, use reach_full_state for that).
    """
    _indices(target.nodes, spec.n, "target nodes")
    kept = np.abs(target.coeffs) > ZERO_COEFF  # never empty: unit norm
    nodes, coeffs = tuple(np.array(target.nodes)[kept].tolist()), target.coeffs[kept]
    ops, states = _spread(spec, j, c0, nodes, coeffs, k)
    return ControlSequence(tuple(ops), ("spread",) * len(ops)), dict(zip(nodes, states))


def reach_full_state(spec: WalkSpec, j: int, c0, target: WalkState, k: int) -> ControlSequence:
    """Steer |c0> at node j to an arbitrary state in k + 1 steps.

    Spread to the per-node weights of S^-1 target (S the bare shift) in k
    steps, then mix each node's coin into its column of S^-1 target in a
    last step of the same batch, whose shift lands it on the target.  S^-1
    target must lie on the level-k reachable set of j, as at a covering
    level; where it does not, the spread raises UnreachableError naming the
    nodes.  A target that needs t more bare shifts is reached by the call at
    level k + t - 1 in k + t steps: S^-1 target = S^(t-1) (S^-t target), and
    each step carries the level-i reachable set into level i + 1.
    """
    _check_dims(spec, target=target)
    pre = np.take_along_axis(target.table(), spec.maps, 1)  # (S^-1 x)[c, v] = x[c, P_c v]
    norms = np.linalg.norm(pre, axis=0)
    nodes = np.flatnonzero(norms > ZERO_COEFF)
    betas = norms[nodes].astype(np.complex128)  # a / gamma at the top level divides complex
    ops, _ = _spread(spec, j, c0, nodes, betas, k, (pre[:, nodes] / betas).T)
    return ControlSequence(tuple(ops), ("spread",) * (len(ops) - 1) + ("mix",))


def concentrate_to_node(spec: WalkSpec, j: int, state: WalkState, k: int):
    """Steer a state supported on the level-k reachable set of j onto node j.

    At each level every support node's coin vector is rotated onto the coin
    value whose permutation moves it one level closer to j, the least
    (next vertex, coin) first.  Returns (sequence of length <= k, final
    coin vector at j).
    """
    j = _index(j, spec.n, "vertex")
    _check_dims(spec, state=state)
    k = _index(k, None, "level")
    support = np.flatnonzero(np.linalg.norm(state.table(), axis=0) > ZERO_COEFF)
    masks = reachable_masks(spec, j, k, support.tolist())
    basis = _reflectors(np.eye(spec.d))
    ops = []
    table = state.table()
    for level in range(k, 0, -1):
        support = np.flatnonzero(np.linalg.norm(table, axis=0) > ZERO_COEFF)
        if support.tolist() == [j]:
            break
        coins, nexts = _least_steps(spec.maps[:, support], masks[level - 1])
        if (nexts < 0).any():  # impossible for support in the level mask
            v = int(support[np.argmax(nexts < 0)])
            raise UnreachableError(f"no step from {v} toward {j} at level {level}")
        # each column over its np.linalg.norm; a norm along an axis differs in the last ulp
        src = np.ascontiguousarray(table[:, support].T)
        src /= np.sqrt(_row_dots(src.real, src.real) + _row_dots(src.imag, src.imag))[:, None]
        [op] = _coin_ops(spec.d, spec.n, [support], _completions(src, basis[coins]))
        ops.append(op)
        table = _step_table(table, op.blocks, spec.maps)
    final_coin = table[:, j].copy()
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
