"""Frozen vision-language surrogate.

A deterministic, seeded stand-in for a pretrained text encoder and image
feature source. Only the prompt context (and, for conditioned prompts,
a small trainable net) ever receives gradients; encoder weights and the
class vocabulary are frozen at construction and shared by value across
server and clients.

Gradients are computed by hand-written reverse passes through each
encoder variant; the tests check them against central differences.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from . import rngs

ENCODER_VARIANTS = ("linear_pool", "attention_block")


@dataclass(frozen=True)
class ModelConfig:
    """The `[model]` section: dimensions and frozen-surrogate knobs shared by
    one experiment; the single check of their values.

    Errors name the config key; the config parser adds the `model.` prefix.
    """

    prompts: int = 1        # prompt sets
    tokens: int = 4         # context tokens per set
    d_token: int = 512
    d_feature: int = 1024   # text feature width; must equal d_image
    d_image: int = 1024
    encoder: str = "linear_pool"
    tau: float = 0.07
    seed: int = 0           # seeds encoder weights, vocabulary, handcrafted context
    init_std: float = 0.02
    token_scale: float = 0.05  # magnitude of frozen class/position embeddings
    n_class_tokens: int = 1
    meta_hidden: int = 64
    local_features: int = 4    # per-image region features for transport scoring

    def __post_init__(self):
        for key in ("prompts", "tokens", "d_token", "d_feature", "d_image", "n_class_tokens",
                    "meta_hidden", "local_features"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if not self.tau > 0:
            raise ConfigError(f"tau: must be positive, got {self.tau}")
        if self.encoder not in ENCODER_VARIANTS:
            raise ConfigError(f"encoder: must be one of {ENCODER_VARIANTS}, got {self.encoder!r}")
        if self.d_feature != self.d_image:
            raise ConfigError(
                "d_feature: must equal d_image: text and image features share one "
                f"similarity space (got {self.d_feature} vs {self.d_image})"
            )
        if not self.init_std >= 0:
            raise ConfigError(f"init_std: must be >= 0, got {self.init_std}")
        if not self.token_scale > 0:
            raise ConfigError(f"token_scale: must be positive, got {self.token_scale}")


def build_prompt_context(cfg: ModelConfig, rng: np.random.Generator, m: int) -> np.ndarray:
    """Gaussian-initialised trainable context of `m` prompt sets, (m, tokens, d_token)."""
    return rng.normal(size=(m, cfg.tokens, cfg.d_token)) * cfg.init_std


def build_handcrafted_context(cfg: ModelConfig, template: int = 0) -> np.ndarray:
    """Fixed non-trained single-set context (1, tokens, d_token); identical
    everywhere for a given `cfg.seed`.

    `template` selects among alternative fixed phrasings (used to average
    several references for self-regularised training).
    """
    rng = rngs.derive_rng(cfg.seed, rngs.HANDCRAFTED, template)
    return rng.normal(size=(1, cfg.tokens, cfg.d_token)) * cfg.init_std


def class_tokens(cfg: ModelConfig, class_count: int) -> np.ndarray:
    """Frozen per-class token sequences (C, n_class_tokens, d_token), appended
    after the context; class j's rows depend on `cfg.seed` and j alone."""
    rows = []
    for j in range(class_count):
        r = rngs.derive_rng(cfg.seed, rngs.VOCAB, j)
        e = r.normal(size=(cfg.n_class_tokens, cfg.d_token))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        rows.append(e * cfg.token_scale)
    return np.array(rows)


@dataclass(frozen=True)
class ClassRows:
    """Frozen encoder inputs that follow an L-token prompt context.

    Every prompt sequence is [context (L rows); class tokens (T rows)],
    S = L + T rows in all. The class rows, their positions and, for
    attention_block, their query/key/value projections never change, so
    `FrozenTextEncoder.class_rows` computes them once per experiment;
    `take` selects a class subset.
    """

    L: int
    S: int
    head: np.ndarray                       # (C, d_feature) class rows' mean projected, plus bias
    context_pos: np.ndarray | None = None  # attention_block: (L, d_token) context positions
    q: np.ndarray | None = None            # attention_block: (C, T, d_token) projections
    k: np.ndarray | None = None
    v_out: np.ndarray | None = None        # attention_block: (C, T, d_feature) values, projected
    scores: np.ndarray | None = None       # attention_block: (C, T, T) class-class scores

    @property
    def class_count(self) -> int:
        return self.head.shape[0]

    def take(self, class_ids: np.ndarray) -> "ClassRows":
        """The rows of a class subset, read-only like the whole set's."""
        ids = np.asarray(class_ids)
        per_class = ("head", "q", "k", "v_out", "scores")
        taken = {name: getattr(self, name)[ids] for name in per_class
                 if getattr(self, name) is not None}
        return replace(self, **read_only(taken))


class FrozenTextEncoder:
    """Seeded frozen map from token sequences to unit text features.

    Variants:
      linear_pool     mean-pool tokens -> fixed linear map -> tanh -> normalize
      attention_block one frozen self-attention block (with fixed position
                      offsets and residual) before the same pooling head
    Weight magnitudes are calibrated to `token_scale` so the tanh head
    stays responsive for inputs at that scale.

    `encode` takes prompt contexts and the frozen class rows separately:
    context rows are projected once per context, class rows once per
    experiment, and `backward` forms the gradient of the context rows only.
    """

    def __init__(self, cfg: ModelConfig):
        self.variant = variant = cfg.encoder
        self.d_token = d_token = cfg.d_token
        self.d_feature = d_feature = cfg.d_feature
        self.seed = cfg.seed
        self.token_scale = token_scale = cfg.token_scale
        rng = rngs.derive_rng(cfg.seed, rngs.ENCODER)
        w: dict[str, np.ndarray] = {}
        if variant == "attention_block":
            a = 1.0 / token_scale
            w["wq"] = rng.normal(size=(d_token, d_token)) * a / np.sqrt(d_token)
            w["wk"] = rng.normal(size=(d_token, d_token)) * a / np.sqrt(d_token)
            w["wv"] = rng.normal(size=(d_token, d_token)) / np.sqrt(d_token)
        w["w_out"] = rng.normal(size=(d_feature, d_token)) * 4.0 / (token_scale * np.sqrt(d_token))
        w["b_out"] = rng.normal(size=d_feature) * 0.1
        self.weights = w

    def positions(self, length: int) -> np.ndarray:
        """Fixed position offsets of the first `length` sequence rows (attention_block)."""
        rows = [rngs.derive_rng(self.seed, rngs.ENCODER, 1000 + s).normal(size=self.d_token)
                for s in range(length)]
        return np.array(rows).reshape(length, self.d_token) \
            * (0.5 * self.token_scale) / np.sqrt(self.d_token)

    def class_rows(self, class_tokens: np.ndarray, L: int) -> ClassRows:
        """Encode the frozen class tokens (C, T, d_token) that follow L context rows."""
        tokens = np.asarray(class_tokens, dtype=np.float64)
        C, T, d = tokens.shape
        S = L + T
        w = self.weights
        X, attention = tokens, {}
        if self.variant == "attention_block":
            pos = self.positions(S)
            X = tokens + pos[L:]
            q, k, v = ((X.reshape(C * T, d) @ w[name]).reshape(C, T, d)
                       for name in ("wq", "wk", "wv"))
            attention = dict(context_pos=pos[:L], q=q, k=k,
                             v_out=(v.reshape(C * T, d) @ w["w_out"].T).reshape(C, T, -1),
                             scores=q @ k.transpose(0, 2, 1) / np.sqrt(d))
        head = (X.sum(axis=1) / S) @ w["w_out"].T + w["b_out"]
        return ClassRows(L=L, S=S, head=head, **attention)

    def encode(self, contexts: np.ndarray, rows: ClassRows,
               out: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        """Unit features (n, C, d_feature) of every (context, class) sequence,
        written into `out` when it is given.

        `contexts` stacks n prompt contexts (n, L, d_token); `rows` holds the
        frozen rows of the C classes (see `class_rows`).
        """
        contexts = np.asarray(contexts, dtype=np.float64)
        # linear_pool would divide by the wrong S without a word
        if contexts.shape[1] != rows.L:
            raise ValueError(f"context length {contexts.shape[1]} != class rows' L {rows.L}")
        if not np.all(np.isfinite(contexts)):
            raise DomainError("prompt context contains non-finite entries")
        n, L, d = contexts.shape
        C, S, T = rows.class_count, rows.S, rows.S - rows.L
        w = self.weights
        attention = self.variant == "attention_block"
        # a context too large for the arithmetic overflows here, quietly: the
        # finiteness check on the features below raises instead
        with np.errstate(over="ignore", invalid="ignore"):
            if attention:
                X = (contexts + rows.context_pos).reshape(n * L, d)
                Q, K, V = (X @ w[name] for name in ("wq", "wk", "wv"))
                # scores of all C sequences from four blocks; the context-context
                # block is shared by every class, the class-class block is cached
                scores = np.empty((n, C, S, S))
                Q3, K3 = Q.reshape(n, L, d), K.reshape(n, L, d)
                scores[:, :, :L, :L] = (Q3 @ K3.transpose(0, 2, 1) / np.sqrt(d))[:, None]
                # one product per context, whose rows do not depend on n
                scores[:, :, :L, L:] = (Q3 @ rows.k.reshape(C * T, d).T / np.sqrt(d)) \
                    .reshape(n, L, C, T).transpose(0, 2, 1, 3)
                scores[:, :, L:, :L] = (K3 @ rows.q.reshape(C * T, d).T / np.sqrt(d)) \
                    .reshape(n, L, C, T).transpose(0, 2, 3, 1)
                scores[:, :, L:, L:] = rows.scores
                scores -= scores.max(axis=-1, keepdims=True)
                A = np.exp(scores)
                A /= A.sum(axis=-1, keepdims=True)
                # the head mean-pools Y = X + A V before its linear map, so a
                # pair's z = [1, a_bar[:L]] G + head + sum_t a_bar[L + t] v_out[t],
                # with a_bar the mean of A's query rows and G = [sum(X) / S; V]
                # w_out^T: each context's L + 1 rows are projected once, not
                # once per class
                ab = np.empty((n, C, S + 1))  # [1, a_bar]
                ab[..., 0] = 1.0
                np.mean(A, axis=2, out=ab[..., 1:])
                # one product of all n (L + 1) rows: the n sum rows alone would be
                # a matrix-vector product at n = 1, rounding otherwise
                R = np.empty((n, L + 1, d))
                R[:, 0] = X.reshape(n, L, d).sum(axis=1) / S
                R[:, 1:] = V.reshape(n, L, d)
                G = (R.reshape(n * (L + 1), d) @ w["w_out"].T).reshape(n, L + 1, -1)
                attn_cache = (Q3, K3, A, ab)
            else:
                G = (contexts.sum(axis=1) / S) @ w["w_out"].T
                attn_cache = None
            # z block by block, then u = tanh(z) in place and the norms of u
            u = np.empty((n, C, self.d_feature))
            norms = np.empty((n, C, 1))
            t = np.empty_like(u) if out is None else out
            for block in _head_blocks(u):
                ub = u[block]
                if attention:
                    np.matmul(ab[block, :, :L + 1], G[block], out=ub)
                    ub += rows.head
                    # each pair's own class rows, in order, so that a context's
                    # features do not depend on how many are stacked with it
                    for r in range(T):
                        ub += ab[block, :, L + 1 + r, None] * rows.v_out[:, r]
                else:
                    np.add(G[block, None, :], rows.head, out=ub)
                np.tanh(ub, out=ub)
                np.add.reduce(ub * ub, axis=-1, keepdims=True, out=norms[block])
                np.sqrt(norms[block], out=norms[block])
                np.divide(ub, norms[block], out=t[block])
        if not np.all(np.isfinite(t)):
            raise DomainError("encoded features contain non-finite entries")
        # the cache keeps u and the norms, not t, which `backward` forms again
        # block by block with the same division; attention_block's G is read
        # by every copy of a `repeat_cache` stack
        return t, (rows, u, norms, G if attention else None, attn_cache, 1)

    def backward(self, cache: tuple, dfeatures: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the contexts, (n, L, d_token), from d features (n, C, d_feature).

        Class rows are frozen, so no gradient is formed for them. The n
        contexts are those encoded, or k stacked copies of them for a cache
        made by `repeat_cache`.
        """
        rows, u, norms, G, attn_cache, copies = cache
        dfeatures = np.asarray(dfeatures, dtype=np.float64)
        expected = (copies * len(u),) + u.shape[1:]
        if dfeatures.shape != expected:  # extra rows would be ignored
            raise ValueError(f"feature gradient shape {dfeatures.shape} != features {expected}")
        w = self.weights
        n, C = expected[:2]
        L, S, d = rows.L, rows.S, self.d_token
        T = S - L
        # dz = du * (1 - u^2), du = (dfeatures - <dfeatures, t> t) / norms, over
        # the head's own contexts once per copy of them in the stack, t and
        # 1 - u^2 formed once per block for every copy; linear_pool keeps only
        # each context's sum of dz over its classes, attention_block the
        # gradients of G, dG = [1, a_bar[:L]]^T dz, and of a_bar
        linear = self.variant == "linear_pool"
        if linear:
            dz = np.empty((n, self.d_feature))
        else:
            Q, K, A, ab = attn_cache
            dG = np.empty((n, L + 1, self.d_feature))
            da_bar = np.empty((n, C, S))
        for block in _head_blocks(u):
            ub = u[block]
            tb = np.divide(ub, norms[block])
            dtanh = np.multiply(ub, ub)
            np.subtract(1.0, dtanh, out=dtanh)
            for first in range(0, n, len(u)):
                df = dfeatures[first:first + len(u)][block]
                du = np.multiply(df, tb)
                np.multiply(du.sum(axis=-1, keepdims=True), tb, out=du)
                np.subtract(df, du, out=du)
                np.divide(du, norms[block], out=du)
                np.multiply(du, dtanh, out=du)
                at = slice(first + block.start, first + block.start + len(du))
                if linear:
                    np.add.reduce(du, axis=1, out=dz[at])
                    continue
                np.matmul(ab[at, :, :L + 1].transpose(0, 2, 1), du, out=dG[at])
                np.matmul(du, G[block, 1:].transpose(0, 2, 1), out=da_bar[at, :, :L])
                # per pair, as in `encode`: a product over the class axis would
                # run n rows per class, whose bits depend on n
                for r in range(T):
                    np.add.reduce(du * rows.v_out[:, r], axis=-1, out=da_bar[at, :, L + r])
        if linear:
            dpooled = dz @ w["w_out"] / S
            return np.repeat(dpooled[:, None, :], L, axis=1)
        # the gradient of R = [sum(X) / S; V], in one product
        dR = (dG.reshape(n * (L + 1), self.d_feature) @ w["w_out"]).reshape(n, L + 1, d)
        # every query row of A receives the same gradient da_bar / S
        dA = da_bar[:, :, None, :] / S
        dscores = A * (dA - (A * dA).sum(axis=-1, keepdims=True)) / np.sqrt(d)
        shared = dscores[:, :, :L, :L].sum(axis=1)
        dQ = shared @ K + dscores[:, :, :L, L:].transpose(0, 2, 1, 3).reshape(n, L, C * T) \
            @ rows.k.reshape(C * T, d)
        dK = shared.transpose(0, 2, 1) @ Q + dscores[:, :, L:, :L].transpose(0, 3, 1, 2) \
            .reshape(n, L, C * T) @ rows.q.reshape(C * T, d)
        dX = (dQ.reshape(n * L, d) @ w["wq"].T + dK.reshape(n * L, d) @ w["wk"].T
              + dR[:, 1:].reshape(n * L, d) @ w["wv"].T).reshape(n, L, d)
        return dX + (dR[:, 0] / S)[:, None, :]


def repeat_cache(cache: tuple, k: int) -> tuple:
    """An encoding's cache (see `FrozenTextEncoder.encode`) for k copies of
    its contexts stacked in order, so that one `backward` call takes k
    feature gradients of the one encoding. The head's arrays, u, the norms
    and G, are kept once and read once per copy; the attention block's, a
    few rows per context, are tiled."""
    if k == 1:
        return cache
    rows, u, norms, G, attn_cache, copies = cache
    tiled = None if attn_cache is None else tuple(np.concatenate([a] * k) for a in attn_cache)
    return rows, u, norms, G, tiled, copies * k


def _head_blocks(u: np.ndarray):
    """Slices of consecutive contexts of u (n, C, d_feature), each about
    `_HEAD_BLOCK_SCALARS` scalars, so that the head's temporaries stay in cache."""
    step = max(1, _HEAD_BLOCK_SCALARS // max(1, math.prod(u.shape[1:])))
    return [slice(start, start + step) for start in range(0, len(u), step)]


# 256 KB of float64 per block
_HEAD_BLOCK_SCALARS = 32768


def row_norms(x: np.ndarray) -> np.ndarray:
    """The norms of the rows of x, (..., 1): the bits of np.linalg.norm,
    without its copy of x.conj()."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


def unit_rows(x: np.ndarray, what: str = "features") -> np.ndarray:
    """Row-normalise, rejecting zero rows."""
    x = np.asarray(x, dtype=np.float64)
    norms = row_norms(x)
    if np.any(norms == 0.0):
        raise DomainError(f"{what} contain a zero row")
    return x / norms


# the noise scale of a region feature about its image feature
REGION_SPREAD = 0.1


def synth_local_features(image_features: np.ndarray, noise: np.ndarray,
                         spread: float = REGION_SPREAD) -> np.ndarray:
    """Unit-norm perturbed views of global features (region surrogate).

    `image_features` (..., d) and `noise` (..., M, d) give (..., M, d): row
    m of feature f is `f + spread * noise[m]`, normalised.
    """
    base = np.asarray(image_features, dtype=np.float64)
    return unit_rows(base[..., None, :] + spread * np.asarray(noise, dtype=np.float64),
                     "local features")


@dataclass(frozen=True)
class ModelAssets:
    """Everything frozen for one experiment: encoder, class rows, references.

    Built by `build_assets` and shared read-only by every cell of a run;
    `for_classes` cuts them to the class subset a cell trains or scores.
    """

    cfg: ModelConfig
    encoder: FrozenTextEncoder
    class_rows: ClassRows      # the classes' encoder rows after cfg.tokens context tokens
    hand_features: np.ndarray  # (C, d_feature), from the handcrafted context
    class_ids: np.ndarray | None = None      # the sorted class subset of a cut (None: all)
    whole: "ModelAssets | None" = None       # the uncut assets a cut slices

    @property
    def class_count(self) -> int:
        return self.class_rows.class_count

    def for_classes(self, class_ids: np.ndarray | None) -> "ModelAssets":
        """These whole-set assets cut to the sorted class subset `class_ids`
        (None: all). The cut's handcrafted and reference features are slices
        of the whole set's, which an encoding on the cut's rows can miss in
        the last bit."""
        if class_ids is None:
            return self
        ids = read_only(np.array(class_ids))
        return replace(self, class_rows=self.class_rows.take(ids),
                       hand_features=read_only(self.hand_features[ids]), class_ids=ids, whole=self)

    def text_features(self, contexts: np.ndarray,
                      out: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        """Unit features (n, C, d_feature) of n contexts (n, L, d_token) under these
        assets' classes (written into `out` when given), with the cache
        `encoder.backward` takes."""
        return self.encoder.encode(contexts, self.class_rows, out)

    @functools.cached_property
    def reference_features(self) -> np.ndarray:
        """Unit class features averaged over three fixed context phrasings."""
        if self.whole is not None:
            reference = self.whole.reference_features[self.class_ids]
        else:
            templates = 3
            contexts = np.concatenate([build_handcrafted_context(self.cfg, template=tpl)
                                       for tpl in range(templates)])
            feats, _ = self.text_features(contexts)
            reference = unit_rows(feats.sum(axis=0) / templates)
        return read_only(reference)


def read_only(*objects):
    """Mark read-only every ndarray reachable from `objects` through dicts,
    lists, tuples and the attributes of this package's own classes (cached
    properties included); return the first object.

    The one rule for what a run shares: its cells and workers read the
    frozen state, the broadcasts and the encodings made of them, and a
    write into any of their arrays raises.
    """
    seen, todo = set(), list(objects)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            obj.flags.writeable = False
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif type(obj).__module__.startswith(__package__ + "."):
            todo.extend(vars(obj).values())
    return objects[0]


def build_assets(cfg: ModelConfig, class_count: int) -> ModelAssets:
    """The frozen assets of (cfg, class_count), read-only (`read_only`)."""
    encoder = FrozenTextEncoder(cfg)
    rows = encoder.class_rows(class_tokens(cfg, class_count), cfg.tokens)
    feats, _ = encoder.encode(build_handcrafted_context(cfg), rows)
    return read_only(ModelAssets(cfg=cfg, encoder=encoder, class_rows=rows,
                                 hand_features=feats[0]))
