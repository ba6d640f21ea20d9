"""Reference implementations the production code is checked against.

The scalar PRNG draw is the definition `nn.fill_uniform` vectorizes. The
full-sequence transformer layer evaluates every position the way the model
is defined; `model.forward_probs` computes only what reaches the last
position's prediction and must agree with it there.
"""

from __future__ import annotations

import math

import numpy as np

from trc.model import TraceModel, _ffn, forward_probs
from trc.nn import (
    Rng64,
    Tensor,
    add,
    gather_rows,
    matmul,
    reshape,
    scale,
    softmax_rows,
    transpose,
)


def rng_uniform(rng: Rng64, lo: float, hi: float) -> float:
    """One draw in [lo, hi); reproducible from seed."""
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


def embed_groups(history, model: TraceModel) -> Tensor:
    """c*g bytes -> (c, h): g consecutive byte embeddings concatenated per
    group (oldest first, stride g), plus the learned positional row."""
    cfg = model.config
    idx = _check_history(history, cfg.window)
    flat = gather_rows(model.byte_embedding.value, idx)        # (c*g, h/g)
    grouped = reshape(flat, (cfg.context_len, cfg.hidden_dim))  # concat in byte order
    return add(grouped, model.positional_embedding.value)


def attention(x: Tensor, model: TraceModel) -> Tensor:
    """Full multi-head scaled dot-product attention over all c positions,
    no mask: concat_i softmax(Q_i K_i^T / sqrt(h_k)) V_i, then W_O."""
    cfg = model.config
    c, h = x.data.shape
    hk = h // cfg.num_heads

    def split_heads(t, perm):
        return transpose(reshape(t, (c, cfg.num_heads, hk)), perm)

    q = split_heads(matmul(x, model.wq.value), (1, 0, 2))   # (H, c, hk)
    k = split_heads(matmul(x, model.wk.value), (1, 2, 0))   # (H, hk, c)
    v = split_heads(matmul(x, model.wv.value), (1, 0, 2))   # (H, c, hk)
    scores = scale(matmul(q, k), 1.0 / math.sqrt(hk))       # (H, c, c)
    mixed = matmul(softmax_rows(scores), v)                 # (H, c, hk)
    merged = reshape(transpose(mixed, (1, 0, 2)), (c, h))
    return matmul(merged, model.wo.value)


def transformer_layer(x: Tensor, model: TraceModel) -> Tensor:
    """a = attention(x) + x, then y <- FFN(y) + y repeated N times with the
    one shared FFN weight pair. No layer norm anywhere."""
    y = add(attention(x, model), x)
    for _ in range(model.config.shared_ffn_repeats):
        y = add(_ffn(y, model), y)
    return y


def predict(history, model: TraceModel) -> np.ndarray:
    """One window -> 256 strictly positive probabilities summing to ~1,
    through the batched path the coder loop uses."""
    idx = _check_history(history, model.config.window)
    probs = forward_probs(model, idx.reshape(1, -1))
    return probs.data[0].astype(np.float64)
