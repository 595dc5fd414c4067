"""Entropic optimal transport between region features and prompt features."""

import numpy as np

from .errors import ConfigError, DomainError


def _validate(cost: np.ndarray, eps: float, row_marginal: np.ndarray,
              col_marginal: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise DomainError("cost must be a matrix")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost matrix contains non-finite entries")
    if eps <= 0:
        raise ConfigError(f"entropic regularisation must be positive, got {eps}")
    r = np.asarray(row_marginal, dtype=np.float64)
    c = np.asarray(col_marginal, dtype=np.float64)
    if r.shape != (cost.shape[0],) or c.shape != (cost.shape[1],):
        raise DomainError("marginal lengths do not match the cost matrix")
    for name, m in (("row", r), ("column", c)):
        if np.any(m < 0) or abs(m.sum() - 1.0) > 1e-9:
            raise DomainError(f"{name} marginal is not a distribution")
    return cost, r, c


def uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _checked(plan: np.ndarray, row_marginal, eps: float) -> np.ndarray:
    """The plan, unless its rows miss the marginal.

    The final row scaling makes the row sums exact, except where
    exp(-cost/eps) underflowed to zero along a whole row: no scaling can
    place that row's mass, and the plan would silently drop it.
    """
    err = float(np.max(np.abs(plan.sum(axis=-1) - row_marginal)))
    if not err <= 1e-9:  # NaN fails too
        raise DomainError(f"transport plan misses its row marginal by {err:.3g}: "
                          f"the kernel exp(-cost/{eps}) underflowed; raise eps")
    return plan


def sinkhorn(cost: np.ndarray, eps: float, iters: int = 100,
             row_marginal: np.ndarray | None = None,
             col_marginal: np.ndarray | None = None) -> np.ndarray:
    """Entropic-regularised transport plan by alternating scalings.

    Runs `iters` passes of row/column scaling on K = exp(-cost/eps),
    closing with a row scaling, and returns diag(u) K diag(v). Row sums
    match exactly; column sums converge with the iterations. Raises
    DomainError when eps is so small that a row of K underflows.
    """
    row_marginal = uniform(cost.shape[0]) if row_marginal is None else row_marginal
    col_marginal = uniform(cost.shape[1]) if col_marginal is None else col_marginal
    cost, r, c = _validate(cost, eps, row_marginal, col_marginal)
    K = np.exp(-(cost - cost.min()) / eps)  # shift cancels in the scaling
    u = np.ones(cost.shape[0])
    v = np.ones(cost.shape[1])
    tiny = np.finfo(float).tiny
    for _ in range(iters):
        u = r / np.maximum(K @ v, tiny)
        v = c / np.maximum(K.T @ u, tiny)
    u = r / np.maximum(K @ v, tiny)
    return _checked((u[:, None] * K) * v[None, :], r, eps)


def sinkhorn_relaxed(cost: np.ndarray, eps: float, iters: int = 100,
                     row_marginal: np.ndarray | None = None,
                     col_marginal: np.ndarray | None = None,
                     col_relax: float = 1.0) -> np.ndarray:
    """One-sided unbalanced variant: the column constraint is enforced
    only up to the exponent `col_relax` in [0, 1].

    col_relax=1 reproduces the balanced iteration exactly; col_relax=0
    drops the column constraint (rows still match exactly).
    """
    if not (0.0 <= col_relax <= 1.0):
        raise ConfigError(f"col_relax must lie in [0, 1], got {col_relax}")
    row_marginal = uniform(cost.shape[0]) if row_marginal is None else row_marginal
    col_marginal = uniform(cost.shape[1]) if col_marginal is None else col_marginal
    cost, r, c = _validate(cost, eps, row_marginal, col_marginal)
    K = np.exp(-(cost - cost.min()) / eps)
    u = np.ones(cost.shape[0])
    v = np.ones(cost.shape[1])
    tiny = np.finfo(float).tiny
    for _ in range(iters):
        u = r / np.maximum(K @ v, tiny)
        # exponent-tempered scaling: full replacement at relax=1 (balanced
        # update), frozen at relax=0; between them the fixed point only
        # partially matches the column marginal
        v = (c / np.maximum(K.T @ u, tiny)) ** col_relax
    # final row scaling so the exactly-enforced side holds regardless of relax
    u = r / np.maximum(K @ v, tiny)
    return _checked((u[:, None] * K) * v[None, :], r, eps)


def sinkhorn_batched(costs: np.ndarray, eps: float, iters: int = 100,
                     col_relax: float = 1.0) -> np.ndarray:
    """Plans for a stack of cost matrices (..., M, N) under uniform marginals.

    Slice-for-slice identical to `sinkhorn_relaxed` (and to `sinkhorn`
    when col_relax=1); used by trainers that solve one small transport
    problem per (sample, class).
    """
    if not (0.0 <= col_relax <= 1.0):
        raise ConfigError(f"col_relax must lie in [0, 1], got {col_relax}")
    if eps <= 0:
        raise ConfigError(f"entropic regularisation must be positive, got {eps}")
    costs = np.asarray(costs, dtype=np.float64)
    if not np.all(np.isfinite(costs)):
        raise DomainError("cost tensor contains non-finite entries")
    M, N = costs.shape[-2], costs.shape[-1]
    r = 1.0 / M
    c = 1.0 / N
    K = np.exp(-(costs - costs.min(axis=(-2, -1), keepdims=True)) / eps)
    u = np.ones(costs.shape[:-1])
    v = np.ones(costs.shape[:-2] + (N,))
    tiny = np.finfo(float).tiny
    for _ in range(iters):
        u = r / np.maximum(np.einsum("...mn,...n->...m", K, v), tiny)
        v = (c / np.maximum(np.einsum("...mn,...m->...n", K, u), tiny)) ** col_relax
    u = r / np.maximum(np.einsum("...mn,...n->...m", K, v), tiny)
    return _checked(u[..., :, None] * K * v[..., None, :], r, eps)


def transport_cost_matrix(local_features: np.ndarray, prompt_features: np.ndarray) -> np.ndarray:
    """cost(i, k) = 1 - cos(local_i, prompt_k); rows of both inputs are unit norm."""
    local_features = np.asarray(local_features, dtype=np.float64)
    prompt_features = np.asarray(prompt_features, dtype=np.float64)
    return 1.0 - local_features @ prompt_features.T


def plot_class_score(local_features: np.ndarray, prompt_features: np.ndarray,
                     eps: float, iters: int = 100) -> tuple[float, np.ndarray]:
    """Transport-aligned class logit: -<plan, cost> under uniform marginals.

    Returns (logit, plan). With one region and one prompt this is
    cos - 1, i.e. rank-equivalent to the plain cosine score.
    """
    if prompt_features.shape[0] < 1:
        raise DomainError("need at least one prompt feature")
    cost = transport_cost_matrix(local_features, prompt_features)
    plan = sinkhorn(cost, eps, iters)
    return float(-(plan * cost).sum()), plan


def relaxed_class_score(local_features: np.ndarray, prompt_features: np.ndarray,
                        eps: float, iters: int = 100,
                        col_relax: float = 1.0) -> tuple[float, np.ndarray]:
    """Class logit under the one-sided relaxed plan (consensus + personal prompts)."""
    cost = transport_cost_matrix(local_features, prompt_features)
    plan = sinkhorn_relaxed(cost, eps, iters, col_relax=col_relax)
    return float(-(plan * cost).sum()), plan
