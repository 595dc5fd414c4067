"""Sinkhorn oracles for `transport.sinkhorn_batched`.

`sinkhorn` and `sinkhorn_relaxed` are the single-matrix forms the tests
and properties are written in; both are the batched solver on one matrix,
whose marginals are uniform. `sinkhorn_relaxed_2d` takes one (M, N) cost
matrix, explicit marginal vectors and plain matrix products; at uniform
marginals the batched solver must agree with it slice for slice. `sinkhorn_batched_all_iters` is the batched solver's own
arithmetic with every one of its `iters` passes run, which an early exit at
a fixed point must match bit for bit.
"""

import numpy as np

from fedprompt.transport import sinkhorn_batched


def sinkhorn(cost: np.ndarray, eps: float, iters: int = 100) -> np.ndarray:
    """Balanced entropic plan of one matrix; `sinkhorn_batched` with col_relax=1."""
    return sinkhorn_batched(cost, eps, iters)


def sinkhorn_relaxed(cost: np.ndarray, eps: float, iters: int = 100,
                     col_relax: float = 1.0) -> np.ndarray:
    """One-sided unbalanced entropic plan of one matrix; see `sinkhorn_batched`."""
    return sinkhorn_batched(cost, eps, iters, col_relax)


def uniform(n: int) -> np.ndarray:
    """The uniform marginal over n entries, as `sinkhorn_batched` computes it."""
    return np.full(n, 1.0 / n)


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


def sinkhorn_batched_all_iters(costs: np.ndarray, eps: float, iters: int,
                               col_relax: float = 1.0) -> np.ndarray:
    """Uniform-marginal plans of a (..., M, N) stack after exactly `iters` passes."""
    M, N = costs.shape[-2:]
    r, c = uniform(M), uniform(N)
    K = np.exp(-(costs - costs.min(axis=(-2, -1), keepdims=True)) / eps)
    v = np.ones(costs.shape[:-2] + (N,))
    tiny = np.finfo(float).tiny
    for _ in range(iters):
        u = r / np.maximum(np.einsum("...mn,...n->...m", K, v), tiny)
        v = (c / np.maximum(np.einsum("...mn,...m->...n", K, u), tiny)) ** col_relax
    u = r / np.maximum(np.einsum("...mn,...n->...m", K, v), tiny)
    return u[..., :, None] * K * v[..., None, :]
