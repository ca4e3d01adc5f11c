"""Exact dense linear algebra for the walk: states, coins, shift, steps.

Basis convention, used everywhere in the package: the product basis vector
with coin value ``k`` (0-based) at vertex ``j`` sits at flat index
``k * N + j``.  Equivalently, a state's amplitudes reshape to a ``(d, N)``
array whose column ``j`` is the coin vector at vertex ``j``.  One step of
the walk applies a per-vertex coin unitary and then the coin-conditioned
vertex permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, NotUnitError
from .graph_model import WalkSpec, _as_array, _integer, _size, cycle_table

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10


def _index(value, size: int | None, name: str) -> int:
    """The one rule for a vertex, coin-value or level argument: one number
    that passes ``_integer``, a 0-d array included, in 0..size-1, or at
    least 0 when ``size`` is None (a level); it is returned as an int.  A
    list, tuple or array of rank 1 or more is refused.  Failures raise
    IndexOutOfRangeError naming the argument."""
    array = isinstance(value, np.ndarray)
    v = None if array and value.ndim else _integer(value[()] if array else value)
    if v is None:
        raise IndexOutOfRangeError(f"{name} {value!r} is not an integer")
    if v < 0 or size is not None and v >= size:
        where = "is negative" if size is None else f"out of range 0..{size - 1}"
        raise IndexOutOfRangeError(f"{name} {v} {where}")
    return v


def _indices(values, size: int, name: str) -> np.ndarray:
    """The one rule for a list of vertices: a flat list, tuple or array,
    tested at once by the dtype and values of its ``_as_array``, each entry
    in 0..size-1; it is returned as int64.  Ragged or nested input, or one
    number, is refused.  Failures raise IndexOutOfRangeError naming the
    argument."""
    try:
        raw = _as_array(values)
    except ValueError:  # ragged nesting
        raw = None
    if raw is None or raw.ndim != 1:
        raise IndexOutOfRangeError(f"{name} {values!r} are not a flat list of integers")
    arr = _integer(raw)
    if arr is None:
        raise IndexOutOfRangeError(f"{name} {raw.tolist()} are not integers")
    bad = arr[(arr < 0) | (arr >= size)]
    if bad.size:
        raise IndexOutOfRangeError(f"{name} {bad.tolist()} out of range 0..{size - 1}")
    return arr


def _complex(values, name: str, error=DimensionMismatchError, copy: bool = True) -> np.ndarray:
    """The one rule for a complex-array argument: ``values`` as a complex128
    array, a new one unless ``copy`` is false.  Ragged input, or input
    holding anything but numbers, raises ``error``: "{name} i is ragged" or
    "{name} i has shape ..." for the first entry i that is ragged or not
    shaped as entry 0."""
    try:
        return (np.array if copy else np.asarray)(values, dtype=np.complex128)
    except (ValueError, TypeError, OverflowError):
        pass
    for i, item in enumerate(values if isinstance(values, (list, tuple)) else ()):
        try:
            shape = np.shape(item)
        except ValueError:
            raise error(f"{name} {i} is ragged") from None
        if shape != np.shape(values[0]):
            raise error(f"{name} {i} has shape {shape}, {name} 0 has {np.shape(values[0])}")
    raise error(f"not every {name} holds only numbers that fit a complex128")


@dataclass(frozen=True, eq=False)
class WalkState:
    """Unit complex amplitude vector over the d*N product basis; d and n
    pass ``_size``."""

    d: int
    n: int
    amps: np.ndarray

    def __post_init__(self):
        for name in ("d", "n"):
            size = _size(getattr(self, name), f"state {name}", DimensionMismatchError)
            object.__setattr__(self, name, size)
        amps = _complex(self.amps, "amps entry").reshape(-1)  # the caller's stays writable
        if amps.size != self.d * self.n:
            raise DimensionMismatchError(
                f"state has {amps.size} amplitudes, expected d*n = {self.d * self.n}"
            )
        _unit_norm(amps, "state")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def table(self) -> np.ndarray:
        """Amplitudes as a (d, n) array; column j is the coin vector at j."""
        return self.amps.reshape(self.d, self.n)


def _unit_norm(x: np.ndarray, what: str) -> None:
    """The one unit-norm rule: norm 1 within NORM_TOL, or NotUnitError naming ``what``."""
    with np.errstate(over="ignore"):  # a square past the float range makes the norm inf
        norm = float(np.linalg.norm(x))
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN
        raise NotUnitError(f"{what} norm {norm!r} is not 1 within {NORM_TOL}")


@dataclass(frozen=True, eq=False)
class CoinOp:
    """One d x d unitary per vertex; blocks has shape (n, d, d).

    Blocks carrying representation noise (e.g. rounded on a JSON round
    trip) are snapped to their nearest unitary, so repeated steps cannot
    walk a state's norm out of tolerance.  Blocks beyond the tolerance are
    rejected (``_unitary``).
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = _complex(self.blocks, "block")  # the caller's stays writable
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise DimensionMismatchError(f"blocks must be (n, d, d), got {blocks.shape}")
        _unitary(blocks, "vertex {}".format).setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _of(cls, blocks: np.ndarray) -> "CoinOp":
        """Private constructor: an (n, d, d) stack that passed ``_unitary``, uncopied."""
        op = object.__new__(cls)
        blocks.setflags(write=False)
        object.__setattr__(op, "blocks", blocks)
        return op

    @property
    def n(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[1]

    @classmethod
    def from_blocks(cls, d: int, n: int, vertices, blocks) -> "CoinOp":
        """Identity coin everywhere except ``blocks[i]`` at ``vertices[i]``;
        a vertex may appear once.  ``_coin_ops`` for outside input."""
        d, n = _size(d, "coin d", DimensionMismatchError), _size(n, "coin n", DimensionMismatchError)
        idx = _indices(vertices, n, "vertices")
        if idx.size != len(blocks):
            raise DimensionMismatchError(f"{len(blocks)} blocks for {idx.size} vertices")
        repeated = np.flatnonzero(np.bincount(idx, minlength=n) > 1)
        if repeated.size:
            raise IndexOutOfRangeError(f"vertices {repeated.tolist()} repeated")
        given = _complex(blocks, "block")
        if given.size != idx.size * d * d:
            raise DimensionMismatchError(f"blocks must be {d}x{d}, got shape {given.shape}")
        return _coin_ops(d, n, [idx], given.reshape(-1, d, d))[0]  # an empty list too


def _coin_ops(d: int, n: int, vertices: list, blocks: np.ndarray) -> list:
    """One CoinOp per array of distinct in-range ``vertices``: the identity coin
    with that array's share of the complex (total size, d, d) ``blocks``, in
    order, at its vertices.  All the blocks pass one ``_unitary`` check."""
    verts = np.concatenate(vertices)
    full = np.broadcast_to(np.eye(d, dtype=np.complex128), (len(vertices), n, d, d)).copy()
    full[np.repeat(np.arange(len(vertices)), list(map(len, vertices))), verts] = _unitary(
        blocks, lambda i: f"vertex {verts[i]}")
    return list(map(CoinOp._of, full))


def _unitary(blocks: np.ndarray, where) -> np.ndarray:
    """The complex (..., d, d) stack, its noisy blocks snapped in place; a block
    beyond the tolerance raises NotUnitError naming ``where(*its index)``."""
    eye, err = np.eye(blocks.shape[-1]), np.zeros(blocks.shape[:-2])
    todo = ~(blocks == eye).all(axis=(-2, -1))  # an exact identity's error is exactly 0
    given = blocks[todo]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing G^H G errs by inf or NaN
        err[todo] = np.abs(given.conj().swapaxes(-1, -2) @ given - eye).max(axis=(-2, -1))
    bad = np.argwhere(~(err <= UNITARY_TOL))  # also catches NaN
    if bad.size:
        at = tuple(bad[0].tolist())
        raise NotUnitError(f"coin block at {where(*at)} is not unitary (err {err[at]:.2e})")
    noisy = err > 1e-14
    if noisy.any():  # nearest unitary: polar factor via SVD
        u, _, vh = np.linalg.svd(blocks[noisy])
        blocks[noisy] = u @ vh
    return blocks


def shift_order(spec: WalkSpec) -> int:
    """Least r >= 1 with the shift's r-th power equal to the identity."""
    return cycle_order(cycle_table(spec.maps)[2])


def cycle_order(size: np.ndarray) -> int:
    """The lcm of the cycle lengths in ``cycle_table``'s third array."""
    return math.lcm(*np.flatnonzero(np.bincount(size)).tolist())


def basis_state(spec: WalkSpec, coin: int, vertex: int) -> WalkState:
    """The product basis state with coin value ``coin`` (0-based) at ``vertex``."""
    amps = np.zeros(spec.d * spec.n, dtype=np.complex128)
    amps[_index(coin, spec.d, "coin value") * spec.n + _index(vertex, spec.n, "vertex")] = 1.0
    return WalkState(spec.d, spec.n, amps)


def _check_dims(spec: WalkSpec, **parts):
    for name, x in parts.items():
        if x.d != spec.d or x.n != spec.n:
            raise DimensionMismatchError(f"{name} is {x.d}x{x.n}, walk is {spec.d}x{spec.n}")


def _step_table(table: np.ndarray, blocks: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """One walk step on a raw (d, n) table; the new table passes WalkState's norm test."""
    mixed = np.einsum("jki,ij->kj", blocks, table)
    out = np.empty_like(mixed)
    out[np.arange(len(maps))[:, None], maps] = mixed
    _unit_norm(out, "state")
    return out


def apply_sequence(state: WalkState, seq, spec: WalkSpec) -> WalkState:
    """One step per coin operation of an iterable, first entry first, on the raw
    table.  The state must fit the walk, and is returned if there is no step."""
    _check_dims(spec, state=state)
    table = None
    for coin in seq:
        _check_dims(spec, coin=coin)
        table = _step_table(state.table() if table is None else table, coin.blocks, spec.maps)
    return state if table is None else WalkState(spec.d, spec.n, table)


def position_probabilities(state: WalkState) -> np.ndarray:
    """Per-vertex probabilities: coin degrees of freedom traced out."""
    return (np.abs(state.table()) ** 2).sum(axis=0)


def state_fidelity(a: WalkState, b: WalkState) -> float:
    """|<a|b>|; the global phase is quotiented out."""
    return float(abs(np.vdot(a.amps, b.amps)))
