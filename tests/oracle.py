"""Reference helpers that only the tests use.

Scalar cosine and cross-entropy, central-difference gradients and the
relative error of gradient checks, payload equality and parameter counts,
and the correct predictions of a personalized target counted client by
client. The package computes these in batched form (`softmax_ce_batch`,
`ModelAssets.text_features`, `payload_scalars`, `transport_probs`, one
`probs` call over every client's rows, per-client text features encoded
while they are scored); these plain forms are what the tests compare it
against. Also the region features of image features and noise rows in one
expression (the reference for `data.Regions.build`) and the `Regions` of
given image features and noise rows, the transport loss with its plan
gradient in one three-operand contraction, a
loss kernel's gradient w.r.t. the context it encodes, a trainer with other
loss weights, zero-shot accuracy on a plain feature set, a
feature-table writer, the plane-by-plane rotation loop that `data._rotate_planes`
vectorises, the domain shift of every row of a dataset at once (the
reference for `data.apply_domain_shift`, which shifts only the rows asked
for), the slice of a dataset that holds every row (the reference for
`ClientDataset.from_master` on a dataset cut to its clients' rows), one
cell run on a state built for it alone, the training batches
drawn within a block, and every array reachable from an object (the
reference for `vlm.read_only`'s walk).
"""

import types
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest

from fedprompt import algorithms
from fedprompt import rngs
from fedprompt.algorithms import CosinePredictor, TransportPredictor, make_trainer, transport_costs
from fedprompt.data import REGION_SPREAD, ClientDataset, MasterDataset, Regions, _rotate_planes
from fedprompt.errors import DomainError
from fedprompt.evaluation import build_run_state, evaluate_predictor, run_cell
from fedprompt.numerics import CROSS_ENTROPY_CAP, _check_finite, softmax_ce_batch, softmax_temp
from fedprompt.transport import sinkhorn_batched
from fedprompt.vlm import build_handcrafted_context, unit_rows


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


def finite_diff_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for k in range(xf.size):
        orig = xf[k]
        xf[k] = orig + h
        up = f(x)
        xf[k] = orig - h
        down = f(x)
        xf[k] = orig
        flat[k] = (up - down) / (2.0 * h)
    return grad


def on_context(kernel, assets, context: np.ndarray, *args, **kwargs):
    """A loss kernel's loss and its gradient w.r.t. `context`: the kernel on the
    context's text features, its feature gradient taken back through the encoder."""
    feats, cache = assets.text_features(context)
    loss, dfeatures = kernel(feats, *args, **kwargs)
    return loss, assets.encoder.backward(cache, dfeatures)


def trainer_with(kind: str, **settings):
    """`make_trainer(kind)` with some of its class-level settings (loss weights,
    trajectory window) set on the instance instead."""
    trainer = make_trainer(kind)
    for name, value in settings.items():
        if not hasattr(trainer, name):
            raise AttributeError(f"a {kind} trainer has no setting {name!r}")
        setattr(trainer, name, value)
    return trainer


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
        raise ValueError("payload field sets differ")
    return max(
        (float(np.max(np.abs(a.fields[k] - b.fields[k]))) if a.fields[k].size else 0.0)
        for k in a.fields
    )


def payloads_equal(a, b) -> bool:
    """Two payloads hold the same fields with bitwise-equal values."""
    return a.fields.keys() == b.fields.keys() and \
        all(np.array_equal(a.fields[k], b.fields[k]) for k in a.fields)


def metanet_param_count(cfg) -> int:
    """Scalars of the conditioning net: two affine layers d_image -> hidden -> d_token."""
    h, di, dt = cfg.meta_hidden, cfg.d_image, cfg.d_token
    return h * di + h + dt * h + dt


def synth_local_features(image_features: np.ndarray, noise: np.ndarray,
                         spread: float = REGION_SPREAD) -> np.ndarray:
    """Unit-norm perturbed views of global features, in one expression: the
    bit oracle of `Regions.build`.

    `image_features` (..., d) and `noise` (..., M, d) give (..., M, d): row
    m of feature f is `f + spread * noise[m]`, normalised.
    """
    base = np.asarray(image_features, dtype=np.float64)
    return unit_rows(base[..., None, :] + spread * np.asarray(noise, dtype=np.float64))


def regions_of(images: np.ndarray, noise: np.ndarray) -> Regions:
    """The regions of image features `images` (n, d), row i over the noise
    row `noise[i]` (n, M, d)."""
    return Regions.of(images, noise, np.arange(len(images)))


def stacked_client_predictors(trainer, payload, assets, held) -> list[TransportPredictor]:
    """Every held client's transport predictor, from one (clients, sets, C, d)
    stack of text features: each client's fields stacked on the payload's,
    every client's stack encoded in one call."""
    contexts = np.concatenate([trainer._context({**payload.fields, **state.local_fields})
                               for state, _ in held])
    feats, _ = assets.text_features(contexts)
    return [trainer.predictor(f, assets.cfg.tau)
            for f in feats.reshape((len(held), -1) + feats.shape[1:])]


def stacked_per_client_probs(predictors, rows, local_maps: np.ndarray) -> np.ndarray:
    """Class probabilities of consecutive client blocks of `rows[k]` rows,
    client k's block scored by `predictors[k]`, from the whole (n, M, d)
    region features `local_maps`; all clients' costs in one Sinkhorn solve."""
    maps = np.split(local_maps, np.cumsum(rows)[:-1])
    costs = [transport_costs(m, p.features) for p, m in zip(predictors, maps)]
    p = predictors[0]
    plans = sinkhorn_batched(np.concatenate(costs), p.eps, p.iters, col_relax=p.col_relax)
    starts = np.cumsum([0] + [len(c) for c in costs])
    return np.concatenate([softmax_temp(-(plans[a:a + len(c)] * c).sum(axis=(-2, -1)), q.tau)
                           for q, c, a in zip(predictors, costs, starts)])


def transport_probs_alone(predictor, local_maps: np.ndarray) -> np.ndarray:
    """A `TransportPredictor`'s class probabilities from a Sinkhorn solve of its own."""
    costs = transport_costs(local_maps, predictor.features)
    plans = sinkhorn_batched(costs, predictor.eps, predictor.iters, col_relax=predictor.col_relax)
    return softmax_temp(-(plans * costs).sum(axis=(-2, -1)), predictor.tau)


def ot_scores_and_grads_three_operand(feats, local_maps, labels, tau, eps, iters, col_relax):
    """`ot_scores_and_grads` with its plan gradient contracted by one
    three-operand einsum over (dlogits, plans, local maps)."""
    costs = transport_costs(local_maps, feats)
    plans = sinkhorn_batched(costs, eps, iters, col_relax=col_relax)
    loss, dlogits, _ = softmax_ce_batch(-(plans * costs).sum(axis=(-2, -1)), labels, tau)
    return loss, np.einsum("bc,bcmn,bmd->ncd", dlogits, plans, local_maps)


def client_by_client_correct(predictors, rows, features, labels, regions) -> int:
    """Correct top-1 predictions over consecutive client blocks of `rows[k]`
    rows, where `predictors[k]` scores client k's block in a call of its own
    (a transport predictor in a Sinkhorn solve of its own, over the block's
    rows of the whole target's region features)."""
    local_maps = None if regions is None else regions.build(features)
    correct, start = 0, 0
    for predictor, n in zip(predictors, rows):
        block, start = slice(start, start + n), start + n
        if n == 0:
            continue
        probs = (transport_probs_alone(predictor, local_maps[block])
                 if isinstance(predictor, TransportPredictor)
                 else predictor.probs(features[block], None))
        correct += int((probs.argmax(axis=1) == labels[block]).sum())
    return correct


def zero_shot_accuracy(assets, features: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy (percent) of the handcrafted prompt on a labeled feature set."""
    hand, _ = assets.text_features(build_handcrafted_context(assets.cfg))
    predictor = CosinePredictor(hand, assets.cfg.tau)
    return evaluate_predictor(predictor, features, labels, regions=None) * 100.0 / len(labels)


def save_feature_table(dataset, path: str) -> None:
    """Write a dataset in the feature-table format `data.load_feature_table` reads,
    with domain tag 0 on every line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# d={dataset.feature_dim} classes={dataset.class_count}\n")
        for label, row in zip(dataset.labels, dataset.features):
            values = ",".join(repr(float(x)) for x in row)
            fh.write(f"{int(label)},0,{values}\n")


def rotate_planes_loop(x: np.ndarray, planes, angle: float) -> np.ndarray:
    """Rows of x rotated by `angle` in each (i, j) coordinate plane, one plane
    at a time in plane order (the first plane's rotation applied first)."""
    cs, sn = np.cos(angle), np.sin(angle)
    out = x.copy()
    for i, j in planes:
        xi, xj = out[:, i].copy(), out[:, j]
        out[:, i] = cs * xi - sn * xj
        out[:, j] = sn * xi + cs * xj
    return out


def shift_whole_master(dataset, shift) -> MasterDataset:
    """Every row of `dataset`, with the same labels,
    rotated by `shift.angle` in every coordinate plane (2k, 2k + 1), noised by
    one (n, d) draw from `derive_rng(shift.seed, SHIFT)` and renormalised."""
    x = _rotate_planes(dataset.features, shift.angle)
    if shift.noise_sigma > 0:
        x = x + shift.noise_sigma * rngs.derive_rng(shift.seed, rngs.SHIFT).normal(size=x.shape)
    return MasterDataset(
        features=unit_rows(x),
        labels=dataset.labels.copy(),
        class_count=dataset.class_count,
    )


def uncut_slice(master: MasterDataset, indices) -> ClientDataset:
    """The master rows `indices` of a dataset that holds every row, indexed
    directly."""
    idx = np.asarray(indices, dtype=np.int64)
    return ClientDataset(features=master.features[idx], labels=master.labels[idx],
                         master_indices=idx)


def one_cell(config, kind: str, method: str, master, seed: int, name: str = "synthetic"):
    """`run_cell` of one (scenario kind, method, dataset, seed) cell, on a run state
    built for that cell alone from `config` and the dataset `master`."""
    config = replace(config, scenarios=[kind], methods=[method], seeds=[seed])
    return run_cell(build_run_state(config, {name: master}), kind, method, name, seed)


@contextmanager
def recorded_batches():
    """Within the block, the master indices of each batch that a trainer's
    `local_train` draws from `algorithms.iterate_batches`, in order."""
    batches = []
    iterate = algorithms.iterate_batches

    def recording(*args, **kwargs):
        for batch in iterate(*args, **kwargs):
            batches.append(np.asarray(batch.master_indices))
            yield batch

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algorithms, "iterate_batches", recording)
        yield batches


def audited_cell(config, kind: str, method: str, master, seed: int):
    """`one_cell` of a cell, and the master indices of each training batch it
    drew, in order."""
    with recorded_batches() as batches:
        result = one_cell(config, kind, method, master, seed)
    return result, batches


def reachable_arrays(*roots) -> list[np.ndarray]:
    """Every ndarray reachable from `roots`, each once: through dict keys and
    values, the items of lists, tuples and sets, and the instance attributes
    (`__dict__` and `__slots__`) of any object, whatever its module. Classes,
    modules and functions are not entered."""
    arrays: list[np.ndarray] = []
    seen: set[int] = set()
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
              str, bytes, int, float, complex, bool, type(None))

    def visit(value) -> None:
        if isinstance(value, opaque) or id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return
        if isinstance(value, dict):
            items = [*value.keys(), *value.values()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            items = list(value)
        else:
            items = list(getattr(value, "__dict__", {}).values())
            items += [getattr(value, name) for klass in type(value).__mro__
                      for name in getattr(klass, "__slots__", ()) if hasattr(value, name)]
        for item in items:
            visit(item)

    for root in roots:
        visit(root)
    return arrays
