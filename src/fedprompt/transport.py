"""Entropic optimal transport between region features and prompt features."""

import numpy as np

from .errors import ConfigError, DomainError


def sinkhorn_batched(costs: np.ndarray, eps: float, iters: int = 100,
                     col_relax: float = 1.0) -> np.ndarray:
    """Entropic transport plans for a stack of cost matrices (..., M, N).

    Runs `iters` passes of row/column scaling on K = exp(-cost/eps) for
    every matrix of the stack, closing with a row scaling, and returns
    diag(u) K diag(v). The passes stop early once a pass leaves the column
    scaling v of the whole stack bitwise unchanged, which changes no bit of
    the plan. Each problem of the stack is solved on its own: a pass
    computes every problem from that problem alone, and a problem at its
    fixed point stays there, so its plan does not depend on what else is
    stacked with it. The marginals are uniform: row sums are exactly 1/M,
    and column sums converge to 1/N with the iterations.

    `col_relax` is the exponent lambda/(lambda + eps) of KL-relaxed
    unbalanced Sinkhorn (Chizat et al., Math. Comp. 2018) on the column
    side, where lambda weighs the penalty lambda * KL(plan^T 1 || 1/N)
    that replaces the column constraint: 1 (lambda -> inf) is the balanced
    problem, 0 (lambda = 0) drops the column constraint.

    Raises ConfigError for eps <= 0 or col_relax outside [0, 1], and
    DomainError for non-finite costs or an eps so small that a row of K
    underflows.
    """
    if not (0.0 <= col_relax <= 1.0):
        raise ConfigError(f"col_relax must lie in [0, 1], got {col_relax}")
    if not eps > 0:
        raise ConfigError(f"entropic regularisation must be positive, got {eps}")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim < 2 or 0 in costs.shape[-2:]:
        raise DomainError(f"costs must be a stack of (M, N) matrices, got shape {costs.shape}")
    if not np.all(np.isfinite(costs)):
        raise DomainError("cost tensor contains non-finite entries")
    M, N = costs.shape[-2], costs.shape[-1]
    r, c = np.full(M, 1.0 / M), np.full(N, 1.0 / N)
    # the per-matrix shift cancels in the scaling
    K = np.exp(-(costs - costs.min(axis=(-2, -1), keepdims=True)) / eps)
    v = np.ones(costs.shape[:-2] + (N,))
    tiny = np.finfo(float).tiny
    for _ in range(iters):
        u = r / np.maximum(np.einsum("...mn,...n->...m", K, v), tiny)
        v_next = (c / np.maximum(np.einsum("...mn,...m->...n", K, u), tiny)) ** col_relax
        if np.array_equal(v_next, v):
            break  # a bitwise fixed point: each pass is a function of v alone, so all repeat
        v = v_next
    u = r / np.maximum(np.einsum("...mn,...n->...m", K, v), tiny)
    plan = u[..., :, None] * K * v[..., None, :]
    # the final row scaling makes the row sums exact, except where K
    # underflowed to zero along a whole row: no scaling can place that
    # row's mass, and the plan would silently drop it
    err = float(np.max(np.abs(plan.sum(axis=-1) - r)))
    if not err <= 1e-9:  # NaN fails too
        raise DomainError(f"transport plan misses its row marginal by {err:.3g}: "
                          f"the kernel exp(-cost/{eps}) underflowed; raise eps")
    return plan
