"""Local prompt-training strategies.

Each trainer consumes a broadcast payload, runs SGD with momentum and a
cosine learning-rate schedule on its trainable fields, and emits a
payload of the exact shape it declared. Client-retained state (momentum
buffers, personal prompts) never travels.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

import numpy as np

from .data import ClientDataset, class_positions
from .errors import ConfigError, DataError, DomainError
from .numerics import log_softmax_temp, softmax_ce_batch, softmax_temp
from .transport import sinkhorn_batched
from .vlm import (
    ModelAssets,
    ModelConfig,
    build_prompt_context,
    read_only,
    repeat_cache,
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
            v = velocities[name] = np.zeros_like(p)
        if v.shape != p.shape:
            raise ConfigError(f"velocity shape {v.shape} != parameter shape {p.shape} for {name!r}")
        v *= momentum
        v += g
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
        yield dataset.take(order[start:start + batch_size])


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
# trained context and returns the mean batch loss and its gradient w.r.t.
# those features; the stepping code takes that gradient back through the
# encoder (see `LocalTrainer.batch_gradients`).
# ---------------------------------------------------------------------------

def _cosine_ce(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray, tau: float):
    """`softmax_ce_batch` of the per-set cosine means of unit image features,
    followed by those means, the scores."""
    scores = np.einsum("bd,pcd->pbc", xh, feats).mean(axis=0)
    return (*softmax_ce_batch(scores, labels, tau), scores)


def _reference_scores(assets: ModelAssets, xh: np.ndarray) -> np.ndarray:
    """Zero-shot scores via the same scoring expression as the live path,
    so they cancel bitwise when the trained context equals the reference."""
    return np.einsum("bd,pcd->pbc", xh, assets.hand_features[None]).mean(axis=0)


def ce_loss_and_grads(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray,
                      tau: float) -> tuple[float, np.ndarray]:
    """Plain mean cross-entropy; scores are per-set cosine means."""
    m = len(feats)
    loss, dlogits, *_ = _cosine_ce(feats, xh, labels, tau)
    dT = np.einsum("bc,bd->cd", dlogits / m, xh)
    return loss, np.asarray([dT] * m)


def loss_kgcoop(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray, tau: float,
                hand: np.ndarray, lambda_kg: float) -> tuple[float, np.ndarray]:
    """CE plus squared distance of class features to the handcrafted ones, `hand`."""
    if lambda_kg < 0:
        raise ConfigError("lambda_kg must be >= 0")
    m = len(feats)
    loss, dlogits, *_ = _cosine_ce(feats, xh, labels, tau)
    n_classes = hand.shape[0]
    dT_ce = np.einsum("bc,bd->cd", dlogits / m, xh)
    dTs, reg = [], 0.0
    for p in range(m):
        diff = feats[p] - hand
        reg += float((diff * diff).sum() / n_classes)
        dTs.append(dT_ce + lambda_kg * 2.0 * diff / (n_classes * m))
    reg /= m
    return loss + lambda_kg * reg, np.asarray(dTs)


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


def loss_prograd(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray, tau: float,
                 reference_scores: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """CE loss with two feature gradients: the CE's, and that of the KL to
    the zero-shot predictions of `reference_scores`. The one kernel with two:
    `ProGradTrainer` projects the first against the second in context space."""
    m = len(feats)
    loss, dlogits, probs, scores = _cosine_ce(feats, xh, labels, tau)
    dT_task = np.einsum("bc,bd->cd", dlogits / m, xh)

    # gradient of mean KL(current || zero-shot) w.r.t. the same scores; the
    # log-softmax stays finite where a saturated softmax holds a zero
    log_ratio = log_softmax_temp(scores, tau) - log_softmax_temp(reference_scores, tau)
    kl = (probs * log_ratio).sum(axis=1, keepdims=True)
    dkl = probs * (log_ratio - kl) / (tau * xh.shape[0])
    dT_gen = np.einsum("bc,bd->cd", dkl / m, xh)
    return loss, np.asarray([dT_task] * m), np.asarray([dT_gen] * m)


def loss_proda(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray, tau: float,
               lambda_orth: float) -> tuple[float, np.ndarray]:
    """Prompt-ensemble CE plus a hinge penalty on aligned prompt-set features."""
    m = len(feats)
    if m < 2:
        raise ConfigError(f"prompt-distribution loss needs >= 2 prompt sets, got {m}")
    loss, dlogits, *_ = _cosine_ce(feats, xh, labels, tau)
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
    return loss + lambda_orth * penalty, np.asarray(dTs)


def loss_src(feats: np.ndarray, xh: np.ndarray, labels: np.ndarray, tau: float,
             reference_scores: np.ndarray, reference_features: np.ndarray,
             mu_text: float, mu_logit: float) -> tuple[float, np.ndarray]:
    """CE plus L1 consistency with `reference_features` and KL(zero-shot || current)
    self-regularisation, the zero-shot predictions being those of `reference_scores`."""
    if mu_text < 0 or mu_logit < 0:
        raise ConfigError("self-regularisation weights must be >= 0")
    m = len(feats)
    loss, dlogits, probs, scores = _cosine_ce(feats, xh, labels, tau)
    n_classes = reference_features.shape[0]
    batch = xh.shape[0]

    # the log-softmax stays finite where a saturated softmax holds a zero
    q = softmax_temp(reference_scores, tau)
    log_ratio = log_softmax_temp(reference_scores, tau) - log_softmax_temp(scores, tau)
    kl = float((q * log_ratio).sum(axis=1).mean())
    dkl_dlogits = (probs - q) / (tau * batch)

    dT_ce = np.einsum("bc,bd->cd", (dlogits + mu_logit * dkl_dlogits) / m, xh)
    dTs, l1 = [], 0.0
    for p in range(m):
        diff = feats[p] - reference_features
        l1 += float(np.abs(diff).sum() / n_classes)
        dTs.append(dT_ce + mu_text * np.sign(diff) / (n_classes * m))
    l1 /= m
    return loss + mu_text * l1 + mu_logit * kl, np.asarray(dTs)


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


def ot_scores_and_grads(feats: np.ndarray, local_maps: np.ndarray | None,
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
    return loss, np.einsum("bcmn,bmd->ncd", weighted, local_maps)


# ---------------------------------------------------------------------------
# Trainers
# ---------------------------------------------------------------------------

class LocalTrainer:
    """The lockstep SGD loop over a round's clients, and the one step that
    encodes a trained context.

    Subclasses supply their `loss` on the context's text features and the
    payload layout; a trainer that conditions the context on each image
    supplies its own `step_contexts`, `grad_step` and `param_grads`.
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
    def local_train(self, payload: CommunicablePayload,
                    clients: list[tuple[ClientTrainState, ClientDataset, TrainContext]]
                    ) -> list[tuple[CommunicablePayload, float]]:
        """The payload each (state, dataset, ctx) client returns from the
        broadcast `payload`, and its mean batch loss (0.0 with no batch).

        The clients train in lockstep (`step`): each wave takes every
        unfinished client's next step, their encoder work stacked in client
        order. One client alone is the one-client case of the same steps.
        """
        runs = [ClientRun(self, payload, *client) for client in clients]
        stepping = runs
        while stepping:
            stepping = self.step(stepping)
        return [run.result() for run in runs]

    def step(self, runs: list["ClientRun"]) -> list["ClientRun"]:
        """Advance each run by one SGD step on its next batch, and return the
        runs that stepped; a run with no batch left has finished. The steps'
        encoder work is stacked in the order of `runs` (`batch_gradients`),
        and each run draws its batch and applies its step as the chunk that
        holds it is made and done."""
        stepped = []

        def steps():
            for run in runs:
                batch = run.next_batch()
                if batch is not None:
                    stepped.append(run)
                    # the broadcast's encoding fits the first step only
                    shared, run.shared = run.shared, None
                    yield run.params, batch, run.ctx, shared

        for i, (loss, grads) in enumerate(self.batch_gradients(steps())):
            stepped[i].apply(loss, grads)
        return stepped

    def end_of_passes(self, passes: list[dict]) -> dict:
        """The parameters a client returns, from those after each of its passes."""
        return passes[-1]

    def batch_gradients(self, steps: Iterable[tuple]) -> Iterator[tuple[float, dict]]:
        """Loss and parameter gradients of each (params, batch, ctx, shared)
        step, all under one assets, yielded in step order as each chunk is
        done, so that only one chunk's encoder caches are held.

        A step encodes the contexts of `step_contexts` (`shared`, when given,
        is the broadcast's encoding of them), `grad_step` takes the features
        to its loss and feature gradients, the encoder's backward pass takes
        those to context gradients, and `param_grads` takes these to the
        parameters. The steps run in chunks of consecutive steps of at most
        `ConditionedPredictor.PAIRS_PER_BLOCK` (context, class) pairs (a step
        larger than that is a chunk of its own, its encoder calls cut into
        blocks of at most that many): each chunk makes one stacked encoder
        call, or none when it shares the broadcast's encoding, and one
        stacked backward call per feature gradient of its steps.
        """
        prepared = (_Step(*step, *self.step_contexts(*step[:2])) for step in steps)
        for chunk in _chunks(prepared):
            yield from self._chunk_gradients(chunk)

    def _chunk_gradients(self, chunk: list["_Step"]) -> Iterator[tuple[float, dict]]:
        losses, waves = self._chunk_waves(chunk)  # the chunk's encoder arrays are freed
        for i, (loss, step) in enumerate(zip(losses, chunk)):
            yield loss, self.param_grads(step.params, [wave[i] for wave in waves], step.aux)

    def _chunk_waves(self, chunk: list["_Step"]) -> tuple[list[float], list[list[np.ndarray]]]:
        """The chunk's losses, and per backward wave its steps' context gradients."""
        assets, shared = chunk[0].ctx.assets, chunk[0].shared
        starts = np.cumsum([0] + [len(step.contexts) for step in chunk])
        encoded = None
        if shared is not None:
            feats = [shared.take(step.contexts)[0] for step in chunk]
            caches = [(slice(None), repeat_cache(shared.cache, len(chunk)))]
        else:
            stacked = _joined([step.contexts for step in chunk])
            encoded = np.empty((len(stacked), assets.class_count, assets.cfg.d_feature))
            caches = [(block, assets.text_features(stacked[block], out=encoded[block])[1])
                      for block in _blocks(len(stacked), assets.class_count)]
            feats = np.split(encoded, starts[1:-1])
        # the k-th feature gradient of every step, stacked as each step makes it;
        # the first is written over the chunk's own encoding, whose rows of a
        # step nothing reads once the step's loss is made
        losses, stacks = [], []
        for i, (step, f) in enumerate(zip(chunk, feats)):
            loss, dfeatures = self.grad_step(step.params, step.batch, step.ctx, f)
            losses.append(loss)
            if len(chunk) == 1:
                stacks = dfeatures
            else:
                stacks = stacks or [encoded if k == 0 and encoded is not None
                                    else np.empty((starts[-1],) + df.shape[1:])
                                    for k, df in enumerate(dfeatures)]
                for stack, df in zip(stacks, dfeatures):
                    stack[starts[i]:starts[i + 1]] = df
                del dfeatures, df  # freed before the next step makes its own
        del feats, f, encoded  # the backward pass reads only the stacks
        # one backward wave per feature gradient, each freed once it is done
        waves = []
        while stacks:
            stack = stacks.pop(0)
            dcontexts = _joined([assets.encoder.backward(cache, stack[block])
                                 for block, cache in caches])
            waves.append(np.split(dcontexts, starts[1:-1]))
        return losses, waves

    def step_contexts(self, params: dict, batch: ClientDataset) -> tuple[np.ndarray, object]:
        """The contexts (n, L, d_token) a step encodes, and what `param_grads`
        takes besides: the context fields stacked in one context."""
        return self._context(params), None

    def grad_step(self, params: dict, batch: ClientDataset, ctx: TrainContext,
                  feats: np.ndarray) -> tuple[float, list[np.ndarray]]:
        """Loss of one batch and its gradients w.r.t. the encoded features
        `feats` of the step's contexts, one per backward wave: the trainer's
        `loss`, with the batch labels as positions in the trained class set."""
        labels = class_positions(batch.labels, ctx.assets.class_ids)
        loss, *dfeatures = self.loss(feats, batch, labels, ctx)
        return loss, dfeatures

    def loss(self, feats: np.ndarray, batch: ClientDataset, labels: np.ndarray,
             ctx: TrainContext) -> tuple:
        """Mean batch loss and its gradients w.r.t. the features (sets, C,
        d_feature) of the stacked context, by one of the loss kernels above."""
        raise NotImplementedError

    def param_grads(self, params: dict, dcontexts: list[np.ndarray], aux) -> dict:
        """The parameter gradients from the context gradients of the backward
        waves: the stacked context's gradient split back by field."""
        bounds = np.cumsum([len(params[name]) for name in self.context_fields])[:-1]
        return dict(zip(self.context_fields, np.split(dcontexts[0], bounds)))

    # -- inference ---------------------------------------------------------
    def build_predictor(self, payload: CommunicablePayload, assets: ModelAssets,
                        held: list[tuple[ClientTrainState, int]] | None):
        """The predictor of the payload's context under `assets`' classes,
        from the broadcast's encoding. Given `held`, the (state, rows) of the
        clients that hold fields of their own, it is their `PerClientPredictor`:
        each client's fields stacked on the payload's, all clients' stacks
        encoded in blocks as a training step's are."""
        if held is not None:
            fields = [{**payload.fields, **state.local_fields} for state, _ in held]
            sets = sum(len(fields[0][name]) for name in self.context_fields)
            feats = np.empty((len(held), sets, assets.class_count, assets.cfg.d_feature))
            for block in _blocks(len(held), sets * assets.class_count):
                contexts = np.concatenate([self._context(f) for f in fields[block]])
                assets.text_features(contexts, out=feats[block].reshape((-1,) + feats.shape[2:]))
            return PerClientPredictor([self.predictor(f, assets.cfg.tau) for f in feats],
                                      [rows for _, rows in held])
        shared = self.broadcast_encoding(payload, assets)
        if shared is None:
            raise ConfigError(f"a {self.kind} predictor needs the client state")
        return self.predictor(shared.features, assets.cfg.tau)

    def predictor(self, features: np.ndarray, tau: float):
        """The predictor that scores with an encoded context's text features."""
        return CosinePredictor(features, tau)


class ClientRun:
    """One client's local training, advanced one SGD step at a time by
    `LocalTrainer.step`: its parameters, its batches and the losses and
    per-pass parameters recorded so far."""

    def __init__(self, trainer: LocalTrainer, payload: CommunicablePayload,
                 state: ClientTrainState, dataset: ClientDataset, ctx: TrainContext):
        if len(dataset) == 0:
            raise DataError("local training on an empty dataset")
        self.trainer, self.payload, self.state, self.ctx = trainer, payload, state, ctx
        # a step makes new parameters and never writes into these
        self.params = {**payload.fields, **state.local_fields}
        self.shared = trainer.broadcast_encoding(payload, ctx.assets)
        self.losses: list[float] = []
        self.passes: list[dict] = []  # the parameters after each pass over the data
        self._batches = self._draw(dataset)

    def _draw(self, dataset: ClientDataset):
        fed = self.ctx.federation
        for _ in range(fed.local_epochs):
            yield from iterate_batches(dataset, self.ctx.rng, fed.batch_size)
            self.passes.append(self.params)

    def next_batch(self) -> ClientDataset | None:
        """The next batch, or None once every pass is done."""
        return next(self._batches, None)

    def apply(self, loss: float, grads: dict) -> None:
        """One SGD step on the current batch's `grads`."""
        fed = self.ctx.federation
        self.params = sgd_momentum_step(self.params, grads, self.state.velocities, fed.lr,
                                        fed.momentum, self.ctx.round_index, fed.rounds)
        self.losses.append(loss)

    def result(self) -> tuple[CommunicablePayload, float]:
        """The payload the client returns, and its mean batch loss (0.0 with no
        batch); the client's own fields go back into its state."""
        params = self.trainer.end_of_passes(self.passes) if self.passes else self.params
        for k in self.state.local_fields:
            self.state.local_fields[k] = params[k]
        return (CommunicablePayload({k: params[k] for k in self.payload.fields}),
                float(np.mean(self.losses)) if self.losses else 0.0)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated along their first axis; a lone one as it is."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _blocks(n: int, classes: int) -> list[slice]:
    """n stacked contexts cut into near-equal blocks of at most
    `ConditionedPredictor.PAIRS_PER_BLOCK` (context, class) pairs, one
    context at least."""
    per_block = max(1, ConditionedPredictor.PAIRS_PER_BLOCK // classes)
    count = -(-n // per_block)
    bounds = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class _Step(NamedTuple):
    """A step of `LocalTrainer.batch_gradients`, with what `step_contexts` made of it."""

    params: dict
    batch: ClientDataset
    ctx: TrainContext
    shared: BroadcastEncoding | None
    contexts: np.ndarray
    aux: object


def _chunks(steps: Iterable[_Step]):
    """Runs of consecutive steps, each sharing one broadcast encoding (or
    none) and holding at most `ConditionedPredictor.PAIRS_PER_BLOCK` (context,
    class) pairs, unless one step alone holds more."""
    chunk, pairs = [], 0
    for step in steps:
        size = len(step.contexts) * step.ctx.assets.class_count
        if chunk and (pairs + size > ConditionedPredictor.PAIRS_PER_BLOCK
                      or step.shared is not chunk[0].shared):
            yield chunk
            chunk, pairs = [], 0
        chunk.append(step)
        pairs += size
    if chunk:
        yield chunk


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

    def loss(self, feats, batch, labels, ctx):
        return ce_loss_and_grads(feats, unit_rows(batch.features), labels, ctx.assets.cfg.tau)


class KgCoOpTrainer(LocalTrainer):
    kind = "kgcoop"
    lambda_kg = 1.0

    def loss(self, feats, batch, labels, ctx):
        return loss_kgcoop(feats, unit_rows(batch.features), labels, ctx.assets.cfg.tau,
                           ctx.assets.hand_features, self.lambda_kg)


class ProGradTrainer(LocalTrainer):
    kind = "prograd"
    lambda_pg = 1.0

    def loss(self, feats, batch, labels, ctx):
        xh = unit_rows(batch.features)
        return loss_prograd(feats, xh, labels, ctx.assets.cfg.tau,
                            _reference_scores(ctx.assets, xh))

    def param_grads(self, params, dcontexts, aux):
        """The CE's context gradient, its conflict with the KL's projected out."""
        g_task, g_general = dcontexts
        projected = project_prograd(g_task.ravel(), g_general.ravel(), self.lambda_pg)
        return super().param_grads(params, [projected.reshape(g_task.shape)], aux)


class ProDATrainer(LocalTrainer):
    kind = "proda"
    set_multiplier = 2
    lambda_orth = 1.0

    def loss(self, feats, batch, labels, ctx):
        return loss_proda(feats, unit_rows(batch.features), labels, ctx.assets.cfg.tau,
                          self.lambda_orth)


class SRCTrainer(LocalTrainer):
    """Self-regularised prompts; a client returns the Gaussian-weighted
    average of its contexts after the last `window` passes."""

    kind = "src"
    mu_text = 1.0
    mu_logit = 1.0
    window = 3

    def loss(self, feats, batch, labels, ctx):
        xh = unit_rows(batch.features)
        return loss_src(feats, xh, labels, ctx.assets.cfg.tau,
                        _reference_scores(ctx.assets, xh), ctx.assets.reference_features,
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

    def step_contexts(self, params, batch):
        """Every image's conditioned contexts, and the meta-net cache."""
        return conditioned_contexts(params, unit_rows(batch.features))

    def grad_step(self, params, batch, ctx, feats):
        xh = unit_rows(batch.features)
        labels = class_positions(batch.labels, ctx.assets.class_ids)
        feats = feats.reshape((len(xh), -1) + feats.shape[1:])             # (B, m, C, d)
        loss, dlogits, _ = softmax_ce_batch(conditioned_scores(xh, feats), labels,
                                            ctx.assets.cfg.tau)
        B, m, C, d_feature = feats.shape
        # every prompt set of image b gets d logits[b] / m along that image's feature
        dT = np.broadcast_to((dlogits / m)[:, None, :, None] * xh[:, None, None, :], feats.shape)
        return loss, [dT.reshape(B * m, C, d_feature)]

    def param_grads(self, params, dcontexts, meta_cache):
        dctx = dcontexts[0].reshape((-1,) + params["context"].shape)    # (B, m, L, d_token)
        # image b's bias is added to all m*L of its context tokens
        grads = metanet_backward(params, meta_cache, dctx.sum(axis=(1, 2)))
        grads["context"] = dctx.sum(axis=0)
        return grads

    def build_predictor(self, payload, assets, held):
        return ConditionedPredictor(assets, payload.fields)


def conditioned_contexts(params: dict[str, np.ndarray],
                         xh: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The m context sets shifted by each unit image feature's meta-net bias,
    (B*m, L, d_token) in image order, and the meta-net cache."""
    context = params["context"]
    bias, meta_cache = metanet_forward(params, xh)
    shifted = context[None] + bias[:, None, None, :]                    # (B, m, L, d)
    return shifted.reshape((-1,) + context.shape[1:]), meta_cache


def conditioned_scores(xh: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Scores (B, C) of unit image features under the features of their own
    conditioned contexts, (B, m, C, d_feature) or stacked (B*m, C, d_feature)."""
    feats = feats.reshape((len(xh), -1) + feats.shape[-2:])
    return np.einsum("bd,bpcd->bpc", xh, feats).mean(axis=1)


class ConditionedPredictor:
    """Image-conditioned prompts, encoded for a block of test images at a time."""

    # (context, class) pairs per encode call, in prediction and in training.
    # The attention encoder holds a few (pairs, d_token) float64 temporaries,
    # about 5 MB per call at d_token=512.
    PAIRS_PER_BLOCK = 256

    def __init__(self, assets: ModelAssets, fields: dict[str, np.ndarray]):
        self.assets = assets
        self.fields = fields

    def probs(self, image_features: np.ndarray, local_maps) -> np.ndarray:
        xh = unit_rows(image_features)
        pairs = self.fields["context"].shape[0] * self.assets.class_count
        block = max(1, self.PAIRS_PER_BLOCK // pairs)
        logits = [self._scores(xh[start:start + block]) for start in range(0, len(xh), block)]
        return softmax_temp(np.concatenate(logits), self.assets.cfg.tau)

    def _scores(self, xh: np.ndarray) -> np.ndarray:
        feats, _ = self.assets.text_features(conditioned_contexts(self.fields, xh)[0])
        return conditioned_scores(xh, feats)


class FedOTPTrainer(LocalTrainer):
    """Consensus + personal prompt pair scored by one-sided relaxed transport;
    both prompt sets travel (see `PersonalizedFedOTPTrainer`)."""

    kind = "fedotp"
    set_multiplier = 2
    ot_relax = 0.5  # the column exponent of `sinkhorn_batched`
    ot_eps = 0.1
    ot_iters = 100

    def loss(self, feats, batch, labels, ctx):
        return ot_scores_and_grads(feats, batch.local_maps, labels, ctx.assets.cfg.tau,
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
