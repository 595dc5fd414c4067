"""Entropic optimal transport between region features and prompt features."""

import numpy as np

from .errors import DomainError

_TINY = np.finfo(float).tiny


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

    Raises DomainError for eps <= 0, col_relax outside [0, 1], non-finite
    costs, or an eps so small that a row of K underflows.
    """
    if not (0.0 <= col_relax <= 1.0):
        raise DomainError(f"col_relax must lie in [0, 1], got {col_relax}")
    if not eps > 0:
        raise DomainError(f"entropic regularisation must be positive, got {eps}")
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim < 2 or 0 in costs.shape[-2:]:
        raise DomainError(f"costs must be a stack of (M, N) matrices, got shape {costs.shape}")
    if not np.all(np.isfinite(costs)):
        raise DomainError("cost tensor contains non-finite entries")
    stack, (M, N) = costs.shape[:-2], costs.shape[-2:]
    # the per-matrix shift cancels in the scaling
    K = np.exp(-(costs - costs.min(axis=(-2, -1), keepdims=True)) / eps)
    # the passes run on copies of K with the P problems of the stack on the
    # last, contiguous axis, one copy per summed axis, and buffers allocated once
    K_cols = np.moveaxis(K.reshape(-1, M, N), 0, -1).copy()           # (M, N, P)
    K_rows = np.moveaxis(K.reshape(-1, M, N), (0, 2), (2, 0)).copy()  # (N, M, P)
    P = K_cols.shape[-1]
    u, v, v_next = np.empty((M, P)), np.ones((N, P)), np.empty((N, P))
    row_terms, col_terms = np.empty((N, M, P)), np.empty((M, N, P))
    for _ in range(iters):
        _divide_by_sum(1.0 / M, np.multiply(K_rows, v[:, None], out=row_terms), u,
                       pairwise=False)
        _divide_by_sum(1.0 / N, np.multiply(K_cols, u[:, None], out=col_terms), v_next,
                       pairwise=N == 1)
        v_next **= col_relax
        if np.array_equal(v_next, v):
            break  # a bitwise fixed point: each pass is a function of v alone, so all repeat
        v, v_next = v_next, v
    _divide_by_sum(1.0 / M, np.multiply(K_rows, v[:, None], out=row_terms), u, pairwise=False)
    u, v = u.T.reshape(stack + (M,)), v.T.reshape(stack + (N,))
    plan = u[..., :, None] * K * v[..., None, :]
    # the final row scaling makes the row sums exact, except where K
    # underflowed to zero along a whole row: no scaling can place that
    # row's mass, and the plan would silently drop it
    err = float(np.max(np.abs(plan.sum(axis=-1) - 1.0 / M)))
    if not err <= 1e-9:  # NaN fails too
        raise DomainError(f"transport plan misses its row marginal by {err:.3g}: "
                          f"the kernel exp(-cost/{eps}) underflowed; raise eps")
    return plan


def _divide_by_sum(marginal: float, terms: np.ndarray, out: np.ndarray, pairwise: bool) -> None:
    """out = marginal / max(terms[0] + terms[1] + ..., tiny); overwrites `terms`.

    The terms are added elementwise along the stack in an order fixed by
    the length of the summed axis alone, so a problem's additions never
    depend on how many problems the stack holds. numpy's `sum` would not
    do: it adds a one-problem stack's axis pairwise once it has about 8
    entries, and a larger stack's in index order.

    The order is index order, ((t0 + t1) + t2) + t3, unless `pairwise`:
    then the axis folds in half until one slice is left, its last half
    added onto its first and an odd middle slice waiting a round, so four
    terms add up as (t0 + t2) + (t1 + t3). The solver folds the column sums
    of one-column problems: with two or four rows, the first pass's terms
    there are 1/M or one ulp below it, and the term whose kernel entry is
    the shifted maximum 1 is exactly 1/M, so the folded sum rounds to
    exactly 1, v stays 1 and the loop stops after one pass. Index order
    lands about one such four-row sum in 1,250 an ulp low. Every other sum
    keeps index order, the order the golden grids under tests/data/golden
    were recorded with.
    """
    n = len(terms)
    if pairwise:
        while n > 1:
            half = n // 2
            np.add(terms[:half], terms[n - half:n], out=terms[:half])
            n -= half
    else:
        for k in range(1, n):
            terms[0] += terms[k]
    np.maximum(terms[0], _TINY, out=out)
    np.divide(marginal, out, out=out)
