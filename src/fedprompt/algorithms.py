"""Local prompt-training strategies.

Each trainer consumes a broadcast payload, runs SGD with momentum and a
cosine learning-rate schedule on its trainable fields, and emits a
payload of the exact shape it declared. Client-retained state (momentum
buffers, personal prompts) never travels.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import ClientDataset, class_positions
from .errors import ConfigError, DataError, DomainError
from .numerics import softmax_ce_batch, softmax_temp
from .transport import sinkhorn_batched
from .vlm import (
    ModelAssets,
    ModelConfig,
    build_prompt_context,
    read_only,
    unit_rows,
)

if TYPE_CHECKING:
    from .federation import FederationConfig

# ---------------------------------------------------------------------------
# Communicable payloads
# ---------------------------------------------------------------------------

@dataclass
class CommunicablePayload:
    """Named float64 arrays that travel between server and clients.

    A broadcast also keeps the last encoding of its context
    (`LocalTrainer.broadcast_encoding`). It never travels and takes no part
    in equality: a new broadcast is a new payload, so it dies with it.
    """

    fields: dict[str, np.ndarray]
    encoding: "BroadcastEncoding | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def scalar_count(self) -> int:
        return int(sum(a.size for a in self.fields.values()))


@dataclass(frozen=True)
class BroadcastEncoding:
    """Read-only text features of a broadcast's context, with the cache
    `encoder.backward` takes and the assets it was encoded under; a client's
    first step and the predictors take it instead of encoding the same
    context again."""

    assets: ModelAssets
    context: np.ndarray  # (m, L, d_token), read-only: what was encoded
    features: np.ndarray  # (m, C, d_feature)
    cache: tuple

    def take(self, context: np.ndarray) -> tuple[np.ndarray, tuple]:
        """The (features, cache) for a consumer that would encode `context`;
        raises unless it matches the encoded context bit for bit."""
        if not np.array_equal(context, self.context):
            raise ValueError("the broadcast encoding is of a different context")
        return self.features, self.cache


# ---------------------------------------------------------------------------
# SGD with momentum and cosine decay
# ---------------------------------------------------------------------------

def cosine_lr(lr: float, t: int, total: int) -> float:
    if not (0 <= t <= total):
        raise ConfigError(f"round {t} outside schedule of {total} rounds")
    return lr * 0.5 * (1.0 + np.cos(np.pi * t / total))


def sgd_momentum_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                      velocities: dict[str, np.ndarray], lr: float, momentum: float,
                      t: int, total: int) -> dict[str, np.ndarray]:
    """v <- momentum*v + g; p <- p - lr_t*v, with lr_t = `cosine_lr(lr, t, total)`.

    Updates `velocities` in place."""
    lr_t = cosine_lr(lr, t, total)
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        v = velocities.get(name)
        if v is None:
            v = np.zeros_like(p)
        if v.shape != p.shape:
            raise ConfigError(f"velocity shape {v.shape} != parameter shape {p.shape} for {name!r}")
        v = momentum * v + g
        velocities[name] = v
        out[name] = p - lr_t * v
    return out


# ---------------------------------------------------------------------------
# Conditioned-prompt net (two affine layers, tanh between)
# ---------------------------------------------------------------------------

def metanet_init(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "meta_w1": rng.normal(size=(cfg.meta_hidden, cfg.d_image)) / np.sqrt(cfg.d_image),
        "meta_b1": np.zeros(cfg.meta_hidden),
        "meta_w2": rng.normal(size=(cfg.d_token, cfg.meta_hidden))
        * (0.1 * cfg.token_scale) / np.sqrt(cfg.meta_hidden),
        "meta_b2": np.zeros(cfg.d_token),
    }


def metanet_forward(meta: dict[str, np.ndarray], image_features: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Per-token biases (B, d_token) conditioned on image features (B, d_image).

    Returns (biases, cache); a single feature vector gives a single bias.
    """
    a1 = image_features @ meta["meta_w1"].T + meta["meta_b1"]
    z1 = np.tanh(a1)
    bias = z1 @ meta["meta_w2"].T + meta["meta_b2"]
    return bias, (image_features, z1)


def metanet_backward(meta: dict[str, np.ndarray], cache: tuple,
                     dbias: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients, summed over the batch, from d biases (B, d_token)."""
    x, z1 = cache
    da1 = (dbias @ meta["meta_w2"]) * (1.0 - z1 * z1)
    return {"meta_w1": da1.T @ x, "meta_b1": da1.sum(axis=0),
            "meta_w2": dbias.T @ z1, "meta_b2": dbias.sum(axis=0)}


# ---------------------------------------------------------------------------
# Batch plumbing
# ---------------------------------------------------------------------------

def iterate_batches(dataset: ClientDataset, rng: np.random.Generator, batch_size: int):
    """Shuffled minibatches over one client's data."""
    n = len(dataset)
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        sel = order[start:start + batch_size]
        yield ClientDataset(
            features=dataset.features[sel],
            labels=dataset.labels[sel],
            master_indices=dataset.master_indices[sel],
            local_maps=None if dataset.local_maps is None else dataset.local_maps[sel],
        )


@dataclass
class TrainContext:
    """Everything a trainer needs for one local pass."""

    assets: ModelAssets             # cut to the trained classes
    round_index: int
    federation: "FederationConfig"  # epochs, batch size and the SGD schedule
    rng: np.random.Generator


@dataclass
class ClientTrainState:
    velocities: dict[str, np.ndarray] = field(default_factory=dict)  # SGD momentum buffers
    local_fields: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Loss kernels shared by the trainers
#
# Each kernel takes the text features `feats` (sets, C, d_feature) of the
# trained context and `backward`, which maps a gradient w.r.t. those
# features to the gradient w.r.t. the context; it returns the mean batch
# loss and that context gradient.
# ---------------------------------------------------------------------------

def _cosine_ce(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray, tau: float):
    """`softmax_ce_batch` of the per-set cosine means of unit image features."""
    return softmax_ce_batch(np.einsum("bd,pcd->pbc", xh, feats).mean(axis=0), labels, tau)


def _reference_probs(assets: ModelAssets, xh: np.ndarray) -> np.ndarray:
    """Zero-shot predictions via the same scoring expression as the live path,
    so they cancel bitwise when the trained context equals the reference."""
    sims = np.einsum("bd,pcd->pbc", xh, assets.hand_features[None]).mean(axis=0)
    return softmax_temp(sims, assets.cfg.tau)


def ce_loss_and_grads(feats: np.ndarray, backward, xh: np.ndarray, labels: np.ndarray,
                      tau: float) -> tuple[float, np.ndarray]:
    """Plain mean cross-entropy; scores are per-set cosine means."""
    m = len(feats)
    loss, dlogits, _ = _cosine_ce(feats, xh, labels, tau)
    dT = np.einsum("bc,bd->cd", dlogits / m, xh)
    return loss, backward(np.asarray([dT] * m))


def loss_kgcoop(feats: np.ndarray, backward, xh: np.ndarray, labels: np.ndarray, tau: float,
                hand: np.ndarray, lambda_kg: float) -> tuple[float, np.ndarray]:
    """CE plus squared distance of class features to the handcrafted ones, `hand`."""
    if lambda_kg < 0:
        raise ConfigError("lambda_kg must be >= 0")
    m = len(feats)
    loss, dlogits, _ = _cosine_ce(feats, xh, labels, tau)
    n_classes = hand.shape[0]
    dT_ce = np.einsum("bc,bd->cd", dlogits / m, xh)
    dTs, reg = [], 0.0
    for p in range(m):
        diff = feats[p] - hand
        reg += float((diff * diff).sum() / n_classes)
        dTs.append(dT_ce + lambda_kg * 2.0 * diff / (n_classes * m))
    reg /= m
    return loss + lambda_kg * reg, backward(np.asarray(dTs))


def project_prograd(g_task: np.ndarray, g_general: np.ndarray, lambda_pg: float) -> np.ndarray:
    """Drop the component of g_task that conflicts with the reference direction."""
    g_task = np.asarray(g_task, dtype=np.float64)
    g_general = np.asarray(g_general, dtype=np.float64)
    if g_task.shape != g_general.shape:
        raise DomainError("gradient shapes differ")
    denom = float(g_general.ravel() @ g_general.ravel())
    if denom == 0.0:
        return g_task
    dot = float(g_task.ravel() @ g_general.ravel())
    if dot >= 0.0:
        return g_task
    return g_task - lambda_pg * (dot / denom) * g_general


def loss_prograd(feats: np.ndarray, backward, xh: np.ndarray, labels: np.ndarray, tau: float,
                 reference_probs: np.ndarray, lambda_pg: float) -> tuple[float, np.ndarray]:
    """CE gradient projected to not conflict with the gradient of the KL to the
    zero-shot predictions `reference_probs`; the one kernel that projects in
    context space, so it calls `backward` twice."""
    m = len(feats)
    loss, dlogits, probs = _cosine_ce(feats, xh, labels, tau)
    dT_task = np.einsum("bc,bd->cd", dlogits / m, xh)
    g_task = backward(np.asarray([dT_task] * m))

    # gradient of mean KL(current || zero-shot) w.r.t. the same scores
    log_ratio = np.log(probs) - np.log(reference_probs)
    kl = (probs * log_ratio).sum(axis=1, keepdims=True)
    dkl = probs * (log_ratio - kl) / (tau * xh.shape[0])
    dT_gen = np.einsum("bc,bd->cd", dkl / m, xh)
    g_general = backward(np.asarray([dT_gen] * m))

    projected = project_prograd(g_task.ravel(), g_general.ravel(), lambda_pg)
    return loss, projected.reshape(g_task.shape)


def loss_proda(feats: np.ndarray, backward, xh: np.ndarray, labels: np.ndarray, tau: float,
               lambda_orth: float) -> tuple[float, np.ndarray]:
    """Prompt-ensemble CE plus a hinge penalty on aligned prompt-set features."""
    m = len(feats)
    if m < 2:
        raise ConfigError(f"prompt-distribution loss needs >= 2 prompt sets, got {m}")
    loss, dlogits, _ = _cosine_ce(feats, xh, labels, tau)
    dT_ce = np.einsum("bc,bd->cd", dlogits / m, xh)
    dTs = [dT_ce.copy() for _ in range(m)]
    n_classes = feats.shape[1]
    penalty = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            dots = (feats[i] * feats[j]).sum(axis=1)  # unit features: dot == cos
            pos = np.maximum(dots, 0.0)
            penalty += float((pos * pos).mean())
            coef = lambda_orth * 2.0 * pos[:, None] / n_classes
            dTs[i] += coef * feats[j]
            dTs[j] += coef * feats[i]
    return loss + lambda_orth * penalty, backward(np.asarray(dTs))


def loss_src(feats: np.ndarray, backward, xh: np.ndarray, labels: np.ndarray, tau: float,
             reference_probs: np.ndarray, reference_features: np.ndarray,
             mu_text: float, mu_logit: float) -> tuple[float, np.ndarray]:
    """CE plus L1 consistency with `reference_features` and KL(zero-shot || current)
    self-regularisation, the zero-shot predictions being `reference_probs`."""
    if mu_text < 0 or mu_logit < 0:
        raise ConfigError("self-regularisation weights must be >= 0")
    m = len(feats)
    loss, dlogits, probs = _cosine_ce(feats, xh, labels, tau)
    n_classes = reference_features.shape[0]
    batch = xh.shape[0]

    q = reference_probs
    log_ratio = np.log(q) - np.log(probs)
    kl = float((q * log_ratio).sum(axis=1).mean())
    dkl_dlogits = (probs - q) / (tau * batch)

    dT_ce = np.einsum("bc,bd->cd", (dlogits + mu_logit * dkl_dlogits) / m, xh)
    dTs, l1 = [], 0.0
    for p in range(m):
        diff = feats[p] - reference_features
        l1 += float(np.abs(diff).sum() / n_classes)
        dTs.append(dT_ce + mu_text * np.sign(diff) / (n_classes * m))
    l1 /= m
    return loss + mu_text * l1 + mu_logit * kl, backward(np.asarray(dTs))


def trajectory_average(contexts: list[np.ndarray], window: int) -> np.ndarray:
    """Gaussian-weighted mean of the last `window` contexts, centered on the window."""
    if window < 1:
        raise ConfigError(f"trajectory window must be >= 1, got {window}")
    tail = contexts[-window:]
    k = len(tail)
    center = (k - 1) / 2.0
    sigma = max(window / 2.0, 0.5)
    w = np.exp(-((np.arange(k) - center) ** 2) / (2.0 * sigma * sigma))
    w /= w.sum()
    return sum(wi * c for wi, c in zip(w, tail))


def transport_costs(local_maps: np.ndarray | None, feats: np.ndarray) -> np.ndarray:
    """(B, C, M, N) costs 1 - cosine between each image's regions `local_maps`
    (B, M, d) and each class's N prompt-set features `feats` (N, C, d)."""
    if local_maps is None:
        raise ConfigError("transport scoring needs per-sample local feature maps")
    return 1.0 - np.einsum("bmd,cnd->bcmn", local_maps, feats.transpose(1, 0, 2))


def ot_scores_and_grads(feats: np.ndarray, backward, local_maps: np.ndarray | None,
                        labels: np.ndarray, tau: float, eps: float, iters: int,
                        col_relax: float) -> tuple[float, np.ndarray]:
    """CE over transport-aligned logits; plans are constants of the backward pass.

    For each (sample, class) the plan matches the sample's region
    features `local_maps` (B, M, d) to the class's per-set prompt
    features; the logit is the negative transport cost.
    """
    costs = transport_costs(local_maps, feats)
    plans = sinkhorn_batched(costs, eps, iters, col_relax=col_relax)
    logits = -(plans * costs).sum(axis=(-2, -1))   # (B, C)
    loss, dlogits, _ = softmax_ce_batch(logits, labels, tau)
    # d logit / d prompt_feat = plan^T @ locals (cost = 1 - <l, f>); weighting
    # the plans first leaves a two-operand contraction, with the same bits
    weighted = dlogits[:, :, None, None] * plans
    return loss, backward(np.einsum("bcmn,bmd->ncd", weighted, local_maps))


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------

class LocalTrainer:
    """Shared SGD epoch loop, and the one step that encodes a trained context.

    Subclasses supply their `loss` on the context's text features (or a
    whole `grad_step` when the context is conditioned on each image) and
    the payload layout.
    """

    kind: str = ""
    set_multiplier: int = 1  # prompt sets per configured "number of prompts"
    # the trained prompt contexts, stacked in this order along the set axis
    # into the one context that a step and a predictor encode
    context_fields: tuple[str, ...] = ("context",)
    # whether every client trains from and scores with the broadcast context as
    # it is, so that one encoding of it serves them all; not so when a client
    # conditions it on each image or stacks fields of its own on
    scores_with_broadcast = True

    def n_sets(self, cfg: ModelConfig) -> int:
        return cfg.prompts * self.set_multiplier

    # -- payload layout ----------------------------------------------------
    def payload_shapes(self, cfg: ModelConfig) -> dict[str, tuple]:
        return {"context": (self.n_sets(cfg), cfg.tokens, cfg.d_token)}

    def payload_scalars(self, cfg: ModelConfig) -> int:
        return int(sum(np.prod(s) for s in self.payload_shapes(cfg).values()))

    def init_payload(self, cfg: ModelConfig, rng: np.random.Generator) -> CommunicablePayload:
        """A fresh prompt context for each payload field, drawn in field order."""
        return read_only(CommunicablePayload({name: build_prompt_context(cfg, rng, m=shape[0])
                                              for name, shape in self.payload_shapes(cfg).items()}))

    def broadcast_encoding(self, payload: CommunicablePayload,
                           assets: ModelAssets) -> BroadcastEncoding | None:
        """The encoding of the broadcast's context under `assets`, made at the
        first request and kept on the payload until one is asked for under
        other assets. None unless the trainer `scores_with_broadcast`. The
        context, the features and the encoder cache are read-only; the
        assets already are, so only the new arrays are walked."""
        if not self.scores_with_broadcast:
            return None
        encoding = payload.encoding
        if encoding is None or encoding.assets is not assets:
            context = self._context(payload.fields)
            features, cache = assets.text_features(context)
            read_only(context, features, cache)
            encoding = payload.encoding = BroadcastEncoding(assets, context, features, cache)
        return encoding

    def _context(self, fields: dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate([fields[name] for name in self.context_fields])

    def init_state(self, cfg: ModelConfig, rng: np.random.Generator) -> ClientTrainState:
        return ClientTrainState()

    # -- training ----------------------------------------------------------
    def local_train(self, payload: CommunicablePayload, state: ClientTrainState,
                    dataset: ClientDataset, ctx: TrainContext) -> tuple[CommunicablePayload, float]:
        """The payload a client returns, and its mean batch loss (0.0 with no batch)."""
        if len(dataset) == 0:
            raise DataError("local training on an empty dataset")
        params = {k: v.copy() for k, v in payload.fields.items()}
        params.update({k: v.copy() for k, v in state.local_fields.items()})
        losses: list[float] = []
        passes: list[dict] = []  # the parameters after each pass over the data
        # the broadcast's encoding fits the first step only
        shared = self.broadcast_encoding(payload, ctx.assets)
        fed = ctx.federation
        for _ in range(fed.local_epochs):
            for batch in iterate_batches(dataset, ctx.rng, fed.batch_size):
                loss, grads = self.grad_step(params, batch, ctx, shared)
                shared = None
                params = sgd_momentum_step(params, grads, state.velocities, fed.lr, fed.momentum,
                                           ctx.round_index, fed.rounds)
                losses.append(loss)
            passes.append(params)
        if passes:
            params = self.end_of_passes(passes)
        new_payload = CommunicablePayload({k: params[k] for k in payload.fields})
        for k in state.local_fields:
            state.local_fields[k] = params[k]
        return new_payload, float(np.mean(losses)) if losses else 0.0

    def end_of_passes(self, passes: list[dict]) -> dict:
        """The parameters a client returns, from those after each of its passes."""
        return passes[-1]

    def grad_step(self, params: dict, batch: ClientDataset, ctx: TrainContext,
                  shared: BroadcastEncoding | None) -> tuple[float, dict]:
        """Loss and gradients of one batch.

        The context fields are stacked and encoded in one call (`shared`,
        when given, is the encoding of that stack). The trainer's `loss`
        takes the features, the encoder's backward pass and the labels as
        positions in the trained class set; its context gradient is split
        back by field.
        """
        labels = class_positions(batch.labels, ctx.assets.class_ids)
        context = self._context(params)
        feats, cache = (ctx.assets.text_features(context) if shared is None
                        else shared.take(context))
        loss, grads = self.loss(feats, lambda dT: ctx.assets.encoder.backward(cache, dT),
                                batch, labels, ctx)
        bounds = np.cumsum([len(params[name]) for name in self.context_fields])[:-1]
        return loss, dict(zip(self.context_fields, np.split(grads, bounds)))

    def loss(self, feats: np.ndarray, backward, batch: ClientDataset, labels: np.ndarray,
             ctx: TrainContext) -> tuple[float, np.ndarray]:
        """Mean batch loss and its gradient w.r.t. the stacked context
        (sets, L, d_token), by one of the loss kernels above."""
        raise NotImplementedError

    # -- inference ---------------------------------------------------------
    def build_predictor(self, payload: CommunicablePayload, assets: ModelAssets,
                        state: ClientTrainState | None):
        """The predictor of the payload's context under `assets`' classes: the
        broadcast's encoding, or a fresh one with the client's own fields in
        `state` stacked on."""
        shared = self.broadcast_encoding(payload, assets)
        if shared is not None:
            return self.predictor(shared.features, assets.cfg.tau)
        fields = {**payload.fields, **(state.local_fields if state is not None else {})}
        if not all(name in fields for name in self.context_fields):
            raise ConfigError(f"a {self.kind} predictor needs the client state")
        feats, _ = assets.text_features(self._context(fields))
        return self.predictor(feats, assets.cfg.tau)

    def predictor(self, features: np.ndarray, tau: float):
        """The predictor that scores with an encoded context's text features."""
        return CosinePredictor(features, tau)


@dataclass
class CosinePredictor:
    """Scores are per-set cosine means against fixed text features."""

    features: np.ndarray  # (m, C, d)
    tau: float

    def probs(self, image_features: np.ndarray, local_maps) -> np.ndarray:
        sims = np.einsum("bd,pcd->pbc", unit_rows(image_features), self.features).mean(axis=0)
        return softmax_temp(sims, self.tau)


@dataclass
class TransportPredictor:
    """Scores are negative transport costs between regions and prompt features."""

    features: np.ndarray  # (m, C, d)
    tau: float
    eps: float
    iters: int
    col_relax: float

    def probs(self, image_features: np.ndarray, local_maps: np.ndarray | None) -> np.ndarray:
        return transport_probs([self], [local_maps])[0]


def transport_probs(predictors: list[TransportPredictor],
                    local_maps: list[np.ndarray]) -> list[np.ndarray]:
    """Class probabilities of each predictor over its own images' local maps.

    The cost tensors of all predictors are solved in one `sinkhorn_batched`
    stack. A problem's plan does not depend on what else is in the stack,
    so each predictor's probabilities are bitwise those it scores alone.
    The predictors must share their solver settings and their (C, M, N).
    """
    solver = {(p.eps, p.iters, p.col_relax) for p in predictors}
    if len(solver) != 1:
        raise ConfigError(f"transport predictors stacked in one solve differ in "
                          f"(eps, iters, col_relax): {sorted(solver)}")
    (eps, iters, col_relax), = solver
    costs = [transport_costs(maps, p.features) for p, maps in zip(predictors, local_maps)]
    plans = sinkhorn_batched(np.concatenate(costs), eps, iters, col_relax=col_relax)
    starts = np.cumsum([0] + [len(c) for c in costs])
    return [softmax_temp(-(plans[start:start + len(c)] * c).sum(axis=(-2, -1)), p.tau)
            for p, c, start in zip(predictors, costs, starts)]


@dataclass
class PerClientPredictor:
    """Each client's own transport predictor over its consecutive block of
    `rows` rows, in client order, all solved in one `transport_probs` stack."""

    predictors: list[TransportPredictor]
    rows: list[int]

    def probs(self, image_features: np.ndarray, local_maps: np.ndarray | None) -> np.ndarray:
        if sum(self.rows) != len(image_features):
            raise DataError(f"client blocks of {sum(self.rows)} rows over "
                            f"{len(image_features)} images")
        maps = ([None] * len(self.rows) if local_maps is None
                else np.split(local_maps, np.cumsum(self.rows)[:-1]))
        return np.concatenate(transport_probs(self.predictors, maps))


class PromptFLTrainer(LocalTrainer):
    kind = "promptfl"

    def loss(self, feats, backward, batch, labels, ctx):
        return ce_loss_and_grads(feats, backward, unit_rows(batch.features), labels,
                                 ctx.assets.cfg.tau)


class KgCoOpTrainer(LocalTrainer):
    kind = "kgcoop"
    lambda_kg = 1.0

    def loss(self, feats, backward, batch, labels, ctx):
        return loss_kgcoop(feats, backward, unit_rows(batch.features), labels, ctx.assets.cfg.tau,
                           ctx.assets.hand_features, self.lambda_kg)


class ProGradTrainer(LocalTrainer):
    kind = "prograd"
    lambda_pg = 1.0

    def loss(self, feats, backward, batch, labels, ctx):
        xh = unit_rows(batch.features)
        return loss_prograd(feats, backward, xh, labels, ctx.assets.cfg.tau,
                            _reference_probs(ctx.assets, xh), self.lambda_pg)


class ProDATrainer(LocalTrainer):
    kind = "proda"
    set_multiplier = 2
    lambda_orth = 1.0

    def loss(self, feats, backward, batch, labels, ctx):
        return loss_proda(feats, backward, unit_rows(batch.features), labels, ctx.assets.cfg.tau,
                          self.lambda_orth)


class SRCTrainer(LocalTrainer):
    """Self-regularised prompts; a client returns the Gaussian-weighted
    average of its contexts after the last `window` passes."""

    kind = "src"
    mu_text = 1.0
    mu_logit = 1.0
    window = 3

    def loss(self, feats, backward, batch, labels, ctx):
        xh = unit_rows(batch.features)
        return loss_src(feats, backward, xh, labels, ctx.assets.cfg.tau,
                        _reference_probs(ctx.assets, xh), ctx.assets.reference_features,
                        self.mu_text, self.mu_logit)

    def end_of_passes(self, passes):
        contexts = [p["context"] for p in passes]
        return {**passes[-1], "context": trajectory_average(contexts, self.window)}


class CoCoOpTrainer(LocalTrainer):
    kind = "cocoop"
    scores_with_broadcast = False  # every image conditions its own contexts

    def payload_shapes(self, cfg: ModelConfig) -> dict[str, tuple]:
        return {
            "context": (self.n_sets(cfg), cfg.tokens, cfg.d_token),
            "meta_w1": (cfg.meta_hidden, cfg.d_image),
            "meta_b1": (cfg.meta_hidden,),
            "meta_w2": (cfg.d_token, cfg.meta_hidden),
            "meta_b2": (cfg.d_token,),
        }

    def init_payload(self, cfg: ModelConfig, rng: np.random.Generator) -> CommunicablePayload:
        fields = {"context": build_prompt_context(cfg, rng, m=self.n_sets(cfg))}
        fields.update(metanet_init(cfg, rng))
        return read_only(CommunicablePayload(fields))

    def grad_step(self, params, batch, ctx, shared):
        xh = unit_rows(batch.features)
        labels = class_positions(batch.labels, ctx.assets.class_ids)
        logits, (feats, cache, meta_cache) = conditioned_logits(ctx.assets, params, xh)
        loss, dlogits, _ = softmax_ce_batch(logits, labels, ctx.assets.cfg.tau)
        B, m, C, d_feature = feats.shape
        # every prompt set of image b gets d logits[b] / m along that image's feature
        dT = np.broadcast_to((dlogits / m)[:, None, :, None] * xh[:, None, None, :], feats.shape)
        dctx = ctx.assets.encoder.backward(cache, dT.reshape(B * m, C, d_feature))
        dctx = dctx.reshape((B,) + params["context"].shape)             # (B, m, L, d_token)
        # image b's bias is added to all m*L of its context tokens
        grads = metanet_backward(params, meta_cache, dctx.sum(axis=(1, 2)))
        grads["context"] = dctx.sum(axis=0)
        return loss, grads

    def build_predictor(self, payload, assets, state):
        return ConditionedPredictor(assets, payload.fields)


def conditioned_logits(assets: ModelAssets, params: dict[str, np.ndarray], xh: np.ndarray):
    """Scores (B, C) of unit image features under their own conditioned prompts.

    Every image shifts all m context sets by its meta-net bias; the B*m
    shifted contexts are encoded in one call. Also returns the features
    (B, m, C, d_feature) and the encoder and meta-net caches.
    """
    context = params["context"]
    bias, meta_cache = metanet_forward(params, xh)
    shifted = context[None] + bias[:, None, None, :]                    # (B, m, L, d)
    feats, cache = assets.text_features(shifted.reshape((-1,) + context.shape[1:]))
    feats = feats.reshape(shifted.shape[:2] + feats.shape[1:])
    logits = np.einsum("bd,bpcd->bpc", xh, feats).mean(axis=1)
    return logits, (feats, cache, meta_cache)


class ConditionedPredictor:
    """Image-conditioned prompts, encoded for a block of test images at a time."""

    # (context, class) pairs per encode call. The attention encoder holds a few
    # (pairs, d_token) float64 temporaries, about 5 MB per call at d_token=512.
    PAIRS_PER_BLOCK = 256

    def __init__(self, assets: ModelAssets, fields: dict[str, np.ndarray]):
        self.assets = assets
        self.fields = fields

    def probs(self, image_features: np.ndarray, local_maps) -> np.ndarray:
        xh = unit_rows(image_features)
        pairs = self.fields["context"].shape[0] * self.assets.class_count
        block = max(1, self.PAIRS_PER_BLOCK // pairs)
        logits = [conditioned_logits(self.assets, self.fields, xh[start:start + block])[0]
                  for start in range(0, xh.shape[0], block)]
        return softmax_temp(np.concatenate(logits), self.assets.cfg.tau)


class FedOTPTrainer(LocalTrainer):
    """Consensus + personal prompt pair scored by one-sided relaxed transport;
    both prompt sets travel (see `PersonalizedFedOTPTrainer`)."""

    kind = "fedotp"
    set_multiplier = 2
    ot_relax = 0.5  # the column exponent of `sinkhorn_batched`
    ot_eps = 0.1
    ot_iters = 100

    def loss(self, feats, backward, batch, labels, ctx):
        return ot_scores_and_grads(feats, backward, batch.local_maps, labels, ctx.assets.cfg.tau,
                                   self.ot_eps, self.ot_iters, self.ot_relax)

    def predictor(self, features, tau):
        return TransportPredictor(features, tau, self.ot_eps, self.ot_iters, self.ot_relax)


class PersonalizedFedOTPTrainer(FedOTPTrainer):
    """FedOTP under personalized evaluation: only the consensus half is
    communicated; the personal half stays in client state and is stacked
    after it for every step and prediction."""

    context_fields = ("context_global", "context_local")
    scores_with_broadcast = False

    def payload_shapes(self, cfg: ModelConfig) -> dict[str, tuple]:
        return {"context_global": (cfg.prompts, cfg.tokens, cfg.d_token)}

    def init_state(self, cfg, rng):
        return ClientTrainState(local_fields={
            "context_local": build_prompt_context(cfg, rng, m=cfg.prompts)})


class PLOTTrainer(FedOTPTrainer):
    """PLOT: FedOTP over the configured prompt sets alone, with balanced
    transport marginals."""

    kind = "plot"
    set_multiplier = 1
    ot_relax = 1.0


_TRAINERS = {
    "promptfl": PromptFLTrainer,
    "kgcoop": KgCoOpTrainer,
    "prograd": ProGradTrainer,
    "proda": ProDATrainer,
    "src": SRCTrainer,
    "cocoop": CoCoOpTrainer,
    "plot": PLOTTrainer,
    "fedotp": FedOTPTrainer,
}


TRAINER_KINDS = tuple(_TRAINERS)


def make_trainer(kind: str) -> LocalTrainer:
    if kind not in _TRAINERS:
        raise ConfigError(f"unknown trainer kind {kind!r}; choose from {sorted(_TRAINERS)}")
    return _TRAINERS[kind]()
