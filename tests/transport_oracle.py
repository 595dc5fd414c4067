"""Sinkhorn oracles for `transport.sinkhorn_batched`.

`sinkhorn` and `sinkhorn_relaxed` are the single-matrix forms the tests
and properties are written in; both are the batched solver on one matrix,
whose marginals are uniform. `sinkhorn_relaxed_2d` takes one (M, N) cost
matrix, explicit marginal vectors and plain matrix products; at uniform
marginals the batched solver must agree with it slice for slice.
`sinkhorn_batched_all_iters` is the batched solver's own arithmetic, written
plainly in its (M, N, P) layout with every one of its `iters` passes run,
which an early exit at a fixed point must match bit for bit.
"""

import functools

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


def halving_sum(terms: list[np.ndarray]) -> np.ndarray:
    """terms[0] + terms[1] + ..., in the order `sinkhorn_batched` folds them.

    The last half of the terms is added onto the first half, an odd
    middle term waiting a round, until one term is left: four terms add
    up as (t0 + t2) + (t1 + t3).
    """
    while len(terms) > 1:
        half = len(terms) // 2
        terms = ([a + b for a, b in zip(terms[:half], terms[-half:])]
                 + terms[half:len(terms) - half])
    return terms[0]


def sinkhorn_batched_all_iters(costs: np.ndarray, eps: float, iters: int,
                               col_relax: float = 1.0) -> np.ndarray:
    """Uniform-marginal plans of a (..., M, N) stack after exactly `iters` passes.

    The passes run on an (M, N, P) copy of the kernel, the P problems of
    the stack last, and every row and column sum adds its terms in index
    order, except the column sums of one-column problems, which add them
    with `halving_sum`, as `sinkhorn_batched` does."""
    stack, (M, N) = costs.shape[:-2], costs.shape[-2:]
    K = np.exp(-(costs - costs.min(axis=(-2, -1), keepdims=True)) / eps)
    Kp = np.moveaxis(K.reshape(-1, M, N), 0, -1)
    r, c = uniform(M)[:, None], uniform(N)[:, None]
    v = np.ones((N, Kp.shape[-1]))
    tiny = np.finfo(float).tiny
    in_order = functools.partial(functools.reduce, np.add)  # ((t0 + t1) + t2) + ...
    col_sum = halving_sum if N == 1 else in_order
    for _ in range(iters):
        u = r / np.maximum(in_order([Kp[:, n] * v[n] for n in range(N)]), tiny)
        v = (c / np.maximum(col_sum([Kp[m] * u[m] for m in range(M)]), tiny)) ** col_relax
    u = r / np.maximum(in_order([Kp[:, n] * v[n] for n in range(N)]), tiny)
    u, v = u.T.reshape(stack + (M,)), v.T.reshape(stack + (N,))
    return u[..., :, None] * K * v[..., None, :]
