"""Reference helpers that only the tests use.

Scalar cosine and cross-entropy, the relative error of gradient checks,
payload and parameter counts, and personalized accuracy scored client by
client, by transport or by one shared predictor. The package computes
these in batched form (`softmax_ce_batch`, `ModelAssets.text_features`,
`payload_scalars`, `transport_probs`, one stacked `probs` call); these
plain forms are what the tests compare it against. Also zero-shot
accuracy on a plain feature set, a feature-table writer, and one cell
run on a state built for it alone.
"""

from dataclasses import dataclass, replace

import numpy as np

from fedprompt.algorithms import CosinePredictor
from fedprompt.errors import ConfigError, DomainError
from fedprompt.evaluation import build_run_state, evaluate_predictor, run_cell
from fedprompt.numerics import CROSS_ENTROPY_CAP, _check_finite, softmax_temp
from fedprompt.transport import sinkhorn_batched


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    a = _check_finite(a, "a")
    b = _check_finite(b, "b")
    if a.shape != b.shape:
        raise DomainError(f"length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("cosine similarity of a zero vector")
    return float(min(1.0, max(-1.0, float(np.dot(a, b) / (na * nb)))))


@dataclass
class CrossEntropyResult:
    loss: float
    grad_logits: np.ndarray  # d(loss)/d(pre-softmax logits) = probs - onehot
    saturated: bool


def cross_entropy(probs: np.ndarray, label: int, cap: float = CROSS_ENTROPY_CAP) -> CrossEntropyResult:
    """-log p[label] with the gradient taken w.r.t. pre-softmax logits.

    A zero probability at the label returns the finite `cap` and flags
    saturation instead of producing inf. When the logits were scaled by
    1/tau before the softmax, scale `grad_logits` by 1/tau as well.
    """
    probs = _check_finite(probs, "probs")
    if probs.ndim != 1:
        raise DomainError("probs must be a vector")
    if not (0 <= label < probs.shape[0]):
        raise DomainError(f"label {label} out of range for {probs.shape[0]} classes")
    p = float(probs[label])
    saturated = p <= 0.0
    loss = cap if saturated else float(-np.log(p))
    grad = probs.copy()
    grad[label] -= 1.0
    return CrossEntropyResult(loss=min(loss, cap), grad_logits=grad, saturated=saturated)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative difference used by gradient checks."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    denom = max(na, nb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom)


def max_abs_diff(a, b) -> float:
    """Largest elementwise difference between two payloads with the same fields."""
    if a.fields.keys() != b.fields.keys():
        raise ConfigError("payload field sets differ")
    return max(
        (float(np.max(np.abs(a.fields[k] - b.fields[k]))) if a.fields[k].size else 0.0)
        for k in a.fields
    )


def metanet_param_count(cfg) -> int:
    """Scalars of the conditioning net: two affine layers d_image -> hidden -> d_token."""
    h, di, dt = cfg.meta_hidden, cfg.d_image, cfg.d_token
    return h * di + h + dt * h + dt


def transport_probs_alone(predictor, local_maps: np.ndarray) -> np.ndarray:
    """A `TransportPredictor`'s class probabilities from a Sinkhorn solve of its own."""
    costs = 1.0 - np.einsum("bmd,cnd->bcmn", local_maps, predictor.prompts)
    plans = sinkhorn_batched(costs, predictor.eps, predictor.iters, col_relax=predictor.col_relax)
    return softmax_temp(-(plans * costs).sum(axis=(-2, -1)), predictor.tau)


def personalized_transport_accuracy(predictors, test_sets) -> float:
    """Size-weighted mean of client accuracies over all classes, one solve per client."""
    accs, sizes = [], []
    for predictor, test in zip(predictors, test_sets):
        if len(test) == 0:
            continue
        predicted = transport_probs_alone(predictor, test.local_maps).argmax(axis=1)
        accs.append(float((predicted == test.labels).mean() * 100.0))
        sizes.append(len(test))
    weights = np.array(sizes, dtype=np.float64)
    weights /= weights.sum()
    return float(np.dot(weights, accs))


def shared_predictor_accuracy(predictor, test_sets) -> float:
    """Size-weighted mean of client accuracies over all classes, with one
    predictor that scores each client's test set in a call of its own."""
    accs, sizes = [], []
    for test in test_sets:
        if len(test) == 0:
            continue
        predicted = predictor.probs(test.features, test.local_maps).argmax(axis=1)
        accs.append(float((predicted == test.labels).mean() * 100.0))
        sizes.append(len(test))
    weights = np.array(sizes, dtype=np.float64)
    weights /= weights.sum()
    return float(np.dot(weights, accs))


def zero_shot_accuracy(assets, features: np.ndarray, labels: np.ndarray,
                       class_ids: np.ndarray | None = None) -> float:
    """Accuracy (percent) of the handcrafted prompt on a labeled feature set."""
    predictor = CosinePredictor(assets, assets.handcrafted.vectors, class_ids)
    return evaluate_predictor(predictor, features, labels, class_ids)


def save_feature_table(dataset, path: str) -> None:
    """Write a dataset in the feature-table format `data.load_feature_table` reads."""
    tags = dataset.domain_tags if dataset.domain_tags is not None else np.zeros(len(dataset), dtype=int)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# d={dataset.feature_dim} classes={dataset.class_count}\n")
        for label, tag, row in zip(dataset.labels, tags, dataset.features):
            values = ",".join(repr(float(x)) for x in row)
            fh.write(f"{int(label)},{int(tag)},{values}\n")


def one_cell(config, spec, method: str, master, seed: int, name: str = "synthetic"):
    """`run_cell` of one (spec, method, dataset, seed) cell, on a run state built
    for that cell alone from `config` and the dataset `master`."""
    config = replace(config, scenarios=[spec.kind], methods=[method], scenario=spec)
    return run_cell(build_run_state(config, {name: master}), spec.kind, method, name, seed)
