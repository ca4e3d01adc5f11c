"""References the package must agree with.

The package never forms a d*N x d*N operator; ``shift_matrix`` and
``coin_matrix`` give the matrices that ``step`` must agree with.  The
others are the plain forms of checks and decoders the package runs in a
faster way with the same result.
"""

import numpy as np

from qwalk.errors import NotUnitError, SpecValidationError
from qwalk.walk_core import UNITARY_TOL


def shift_matrix(spec) -> np.ndarray:
    """Dense 0/1 matrix of the shift, of size d*n: the k-th diagonal block
    is the matrix of P_k."""
    flat = (spec.maps + spec.n * np.arange(spec.d)[:, None]).ravel()
    return np.eye(flat.size, dtype=np.int64)[flat].T


def coin_matrix(coin) -> np.ndarray:
    """Dense d*n x d*n matrix of a coin operation (block per vertex)."""
    d, n = coin.d, coin.n
    m = np.zeros((d * n, d * n), dtype=np.complex128)
    for j in range(n):
        rows = j + n * np.arange(d)
        m[np.ix_(rows, rows)] = coin.blocks[j]
    return m


def unitary_every_block(blocks: np.ndarray, where) -> np.ndarray:
    """``walk_core._unitary`` with the Gram formed for every block, exact
    identity blocks included."""
    gram = blocks.conj().swapaxes(-1, -2) @ blocks
    err = np.abs(gram - np.eye(blocks.shape[-1])).max(axis=(-2, -1))
    bad = np.argwhere(~(err <= UNITARY_TOL))  # also catches NaN
    if bad.size:
        at = tuple(bad[0].tolist())
        raise NotUnitError(f"coin block at {where(*at)} is not unitary (err {err[at]:.2e})")
    noisy = err > 1e-14
    if noisy.any():  # nearest unitary: polar factor via SVD
        u, _, vh = np.linalg.svd(blocks[noisy])
        blocks[noisy] = u @ vh
    return blocks


def from_pairs_asarray(pairs, key: str) -> np.ndarray:
    """``json_io._from_pairs`` through one ``np.asarray`` of the nested lists."""
    try:
        arr = np.asarray(pairs, dtype=np.float64)
    except (TypeError, ValueError):  # ragged nesting, strings, objects
        arr = np.empty(0)
    if arr.shape[-1:] != (2,):
        raise SpecValidationError(f'"{key}" must be an evenly nested list of [re, im] pairs')
    return arr[..., 0] + 1j * arr[..., 1]
