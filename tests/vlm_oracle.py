"""Per-sequence reference encoder, the oracle for `FrozenTextEncoder`.

Every (context, class) pair is laid out as its own full token sequence
[context; class tokens] and run through the frozen weights with 3-D
matmuls, and the gradient comes back for every token row. The fast path
encodes each context once against cached class rows; it must agree with
this layout to rounding. Also digests of the frozen weights and class rows.
"""

import hashlib

import numpy as np

from fedprompt.errors import DomainError
from fedprompt.numerics import softmax_ce_batch, softmax_temp
from fedprompt.vlm import unit_rows
from oracle import cosine_similarity


def encode_sequences(encoder, tokens: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Encode a stack of sequences (n, S, d_token) -> unit features (n, d_feature)."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.shape[-1] != encoder.d_token:
        raise ValueError(f"token width {tokens.shape[-1]} != encoder d_token {encoder.d_token}")
    n, S, d = tokens.shape
    w = encoder.weights
    if encoder.variant == "attention_block":
        X = tokens + encoder.positions(S)[None]
        Q = X @ w["wq"]
        K = X @ w["wk"]
        V = X @ w["wv"]
        scores = Q @ K.transpose(0, 2, 1) / np.sqrt(d)
        scores -= scores.max(axis=-1, keepdims=True)
        A = np.exp(scores)
        A /= A.sum(axis=-1, keepdims=True)
        h = (X + A @ V).mean(axis=1)
        attn_cache = (Q, K, V, A)
    else:
        h = tokens.mean(axis=1)
        attn_cache = None
    u = np.tanh(h @ w["w_out"].T + w["b_out"])
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    t = u / norms
    return t, (S, u, norms, t, attn_cache)


def backward_sequences(encoder, cache: tuple, dfeatures: np.ndarray) -> np.ndarray:
    """Gradient of the features w.r.t. every input token, (n, S, d_token)."""
    S, u, norms, t, attn_cache = cache
    w = encoder.weights
    du = (dfeatures - (dfeatures * t).sum(axis=1, keepdims=True) * t) / norms
    dh = (du * (1.0 - u * u)) @ w["w_out"]
    dY = np.repeat(dh[:, None, :] / S, S, axis=1)
    if encoder.variant == "linear_pool":
        return dY
    Q, K, V, A = attn_cache
    dA = dY @ V.transpose(0, 2, 1)
    dV = A.transpose(0, 2, 1) @ dY
    dscores = A * (dA - (dA * A).sum(axis=-1, keepdims=True)) / np.sqrt(encoder.d_token)
    dQ = dscores @ K
    dK = dscores.transpose(0, 2, 1) @ Q
    return dY + dQ @ w["wq"].T + dK @ w["wk"].T + dV @ w["wv"].T


def _sequences(contexts: np.ndarray, class_tokens: np.ndarray) -> np.ndarray:
    """(n*C, L+T, d): context i followed by class c's tokens, class-minor order."""
    n, C = contexts.shape[0], class_tokens.shape[0]
    return np.concatenate([np.repeat(contexts, C, axis=0), np.tile(class_tokens, (n, 1, 1))],
                          axis=1)


def text_features(encoder, contexts: np.ndarray, class_tokens: np.ndarray) -> np.ndarray:
    """Unit features (n, C, d_feature) of every (context, class) sequence."""
    feats, _ = encode_sequences(encoder, _sequences(contexts, class_tokens))
    return feats.reshape(contexts.shape[0], class_tokens.shape[0], -1)


def context_grads(encoder, contexts: np.ndarray, class_tokens: np.ndarray,
                  dfeatures: np.ndarray) -> np.ndarray:
    """Gradient (n, L, d_token) of <dfeatures, features> w.r.t. the contexts."""
    n, L, d = contexts.shape
    _, cache = encode_sequences(encoder, _sequences(contexts, class_tokens))
    dtokens = backward_sequences(encoder, cache, dfeatures.reshape(-1, dfeatures.shape[-1]))
    return dtokens.reshape(n, class_tokens.shape[0], -1, d)[:, :, :L].sum(axis=1)


def encoder_digest(encoder) -> str:
    """SHA-256 over the frozen encoder weights, by weight name."""
    hasher = hashlib.sha256()
    for key in sorted(encoder.weights):
        hasher.update(key.encode())
        hasher.update(encoder.weights[key].tobytes())
    return hasher.hexdigest()


def class_rows_digest(rows) -> str:
    """SHA-256 over the arrays of frozen class rows (`vlm.ClassRows`), by field name."""
    hasher = hashlib.sha256()
    for key, value in sorted(vars(rows).items()):
        if isinstance(value, np.ndarray):
            hasher.update(key.encode())
            hasher.update(value.tobytes())
    return hasher.hexdigest()


def predict(image_feature: np.ndarray, class_features: list[np.ndarray] | np.ndarray,
            tau: float) -> np.ndarray:
    """Class probabilities of one image: temperature softmax over cosine similarities."""
    feats = list(class_features)
    if len(feats) == 0:
        raise DomainError("predict needs at least one class feature")
    sims = np.array([cosine_similarity(image_feature, t) for t in feats])
    return softmax_temp(sims, tau)


def prompt_gradients(encoder, context: np.ndarray, batch, class_tokens: np.ndarray,
                     tau: float) -> tuple[np.ndarray, float]:
    """Exact gradient of mean cross-entropy w.r.t. the context tokens (m, L, d_token)
    only, under the classes of `class_tokens` (C, T, d_token).

    With several prompt sets the per-class score is the mean of each
    set's cosine score. Returns (gradient shaped like the context, mean
    loss).
    """
    feats = np.asarray(batch.features, dtype=np.float64)
    labels = np.asarray(batch.labels)
    if feats.shape[0] == 0:
        raise DomainError("empty batch")
    m, L, _ = context.shape
    rows = encoder.class_rows(class_tokens, L)
    set_feats, cache = encoder.encode(context, rows)
    xh = unit_rows(feats)
    sims = np.einsum("bd,pcd->pbc", xh, set_feats)  # (m, B, C)
    loss, dlogits, _ = softmax_ce_batch(sims.mean(axis=0), labels, tau)
    # ambient partial w.r.t. the unit feature; the encoder backward applies
    # the normalisation Jacobian, so tangential projection is implicit
    dT = np.einsum("bc,bd->cd", dlogits / m, xh)
    return encoder.backward(cache, np.broadcast_to(dT, set_feats.shape)), loss
