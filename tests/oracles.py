"""Reference implementations the production code is checked against.

The scalar PRNG draw is the definition `nn.fill_uniform` vectorizes. The
full-sequence transformer layer evaluates every position the way the model
is defined, in plain float64 numpy with its own GELU and softmax;
`model.forward_probs` computes only what reaches the last position's
prediction and must agree with it there.
"""

from __future__ import annotations

import math

import numpy as np

from trc.model import TraceModel, forward_probs


def rng_uniform(rng, lo: float, hi: float) -> float:
    """One draw in [lo, hi) from an nn.Rng64; reproducible from seed."""
    if not lo < hi:
        raise ValueError(f"empty range: lo={lo!r} must be < hi={hi!r}")
    u = (rng.next_u64() >> 11) * 2.0 ** -53
    r = lo + (hi - lo) * u
    if r >= hi:  # float rounding can hit the open bound on tiny ranges
        r = math.nextafter(hi, -math.inf)
    return r


def _check_history(history, window: int) -> np.ndarray:
    arr = np.asarray(bytearray(history) if isinstance(history, (bytes, bytearray)) else history,
                     dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] != window:
        raise ValueError(f"history must hold {window} bytes, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError("history bytes must lie in [0, 255]")
    return arr


def _w(param) -> np.ndarray:
    return param.value.astype(np.float64)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def embed_groups(history, model: TraceModel) -> np.ndarray:
    """c*g bytes -> (c, h): g consecutive byte embeddings concatenated per
    group (oldest first, stride g), plus the learned positional row."""
    cfg = model.config
    idx = _check_history(history, cfg.window)
    flat = _w(model.byte_embedding)[idx]                     # (c*g, h/g)
    grouped = flat.reshape(cfg.context_len, cfg.hidden_dim)  # concat in byte order
    return grouped + _w(model.positional_embedding)


def attention(x: np.ndarray, model: TraceModel) -> np.ndarray:
    """Full multi-head scaled dot-product attention over all c positions,
    no mask: concat_i softmax(Q_i K_i^T / sqrt(h_k)) V_i, then W_O."""
    x = np.asarray(x, dtype=np.float64)
    c, h = x.shape
    heads = model.config.num_heads
    hk = h // heads

    def split_heads(t):
        return t.reshape(c, heads, hk).transpose(1, 0, 2)       # (H, c, hk)

    q = split_heads(x @ _w(model.wq))
    k = split_heads(x @ _w(model.wk))
    v = split_heads(x @ _w(model.wv))
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(hk)         # (H, c, c)
    mixed = softmax(scores) @ v                               # (H, c, hk)
    merged = mixed.transpose(1, 0, 2).reshape(c, h)
    return merged @ _w(model.wo)


def ffn(y: np.ndarray, model: TraceModel) -> np.ndarray:
    """The one shared FFN: gelu(y W1) W2."""
    return gelu(y @ _w(model.w1)) @ _w(model.w2)


def transformer_layer(x: np.ndarray, model: TraceModel) -> np.ndarray:
    """a = attention(x) + x, then y <- FFN(y) + y repeated N times with the
    one shared FFN weight pair. No layer norm anywhere."""
    y = attention(x, model) + x
    for _ in range(model.config.shared_ffn_repeats):
        y = ffn(y, model) + y
    return y


def full_sequence_probs(history, model: TraceModel) -> np.ndarray:
    """(c, 256) next-byte distributions at every position of one window."""
    y = transformer_layer(embed_groups(history, model), model)
    return softmax(y @ _w(model.output_head))


def predict(history, model: TraceModel) -> np.ndarray:
    """One window -> 256 strictly positive probabilities summing to ~1,
    through the batched path the coder loop uses."""
    idx = _check_history(history, model.config.window)
    return forward_probs(model, idx.reshape(1, -1))[0].astype(np.float64)
