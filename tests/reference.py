"""Dense references for the walk operators, built one matrix at a time.

The package never forms a d*N x d*N operator; these give the matrices that
``step`` must agree with.
"""

import numpy as np


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
