"""Single-matrix Sinkhorn loop, the oracle for `transport.sinkhorn_batched`.

One (M, N) cost matrix, explicit marginal vectors and plain matrix
products; the batched solver must agree with it slice for slice.
"""

import numpy as np


def sinkhorn_relaxed_2d(cost: np.ndarray, eps: float, iters: int, row_marginal: np.ndarray,
                        col_marginal: np.ndarray, col_relax: float = 1.0) -> np.ndarray:
    """Balanced plan at col_relax=1, column constraint dropped at col_relax=0."""
    K = np.exp(-(cost - cost.min()) / eps)
    u = np.ones(cost.shape[0])
    v = np.ones(cost.shape[1])
    tiny = np.finfo(float).tiny
    for _ in range(iters):
        u = row_marginal / np.maximum(K @ v, tiny)
        v = (col_marginal / np.maximum(K.T @ u, tiny)) ** col_relax
    u = row_marginal / np.maximum(K @ v, tiny)
    return (u[:, None] * K) * v[None, :]
