"""Dense loss kernels with exact analytic derivatives.

All math is 64-bit; reductions run in index order so repeated runs are
bit-identical. Non-finite or empty scores raise DomainError. The
temperature `tau` is a config value, checked once where it is parsed
(`ModelConfig`), and taken here as given.
"""

import numpy as np

from .errors import DomainError

CROSS_ENTROPY_CAP = 1e6


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{what} contains non-finite entries")
    return x


def _shifted(logits: np.ndarray, tau: float) -> np.ndarray:
    """logits / tau less its maximum over the last axis, checked."""
    logits = _check_finite(logits, "logits")
    if logits.size == 0:
        raise DomainError("softmax of empty input")
    z = logits / tau
    return z - z.max(axis=-1, keepdims=True)


def softmax_temp(logits: np.ndarray, tau: float) -> np.ndarray:
    """Temperature softmax over the last axis, stabilised by max subtraction.

    Entry j is proportional to exp(logits_j / tau). Output rows sum to 1.
    """
    e = np.exp(_shifted(logits, tau))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_temp(logits: np.ndarray, tau: float) -> np.ndarray:
    """The log of `softmax_temp`, formed from the shifted scores, so it stays
    finite where a probability underflows to zero."""
    z = _shifted(logits, tau)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_ce_batch(logits: np.ndarray, labels: np.ndarray,
                     tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean fused softmax/cross-entropy over a batch of raw scores.

    Returns (mean loss, d(loss)/d(scores), probabilities). Scores are
    divided by `tau` before the softmax, and the gradient carries the
    1/tau factor and the 1/batch averaging. A sample's loss is capped at
    `CROSS_ENTROPY_CAP`.
    """
    probs = softmax_temp(logits, tau)
    n = logits.shape[0]
    idx = np.arange(n)
    p_label = probs[idx, labels]
    with np.errstate(divide="ignore"):
        losses = np.where(p_label > 0.0, -np.log(np.maximum(p_label, np.finfo(float).tiny)),
                          CROSS_ENTROPY_CAP)
    losses = np.minimum(losses, CROSS_ENTROPY_CAP)
    dlogits = probs.copy()
    dlogits[idx, labels] -= 1.0
    dlogits /= tau * n
    return float(losses.mean()), dlogits, probs
