"""Online-trained transformer probability estimator over byte streams.

A window of c*g history bytes is embedded in groups of g consecutive bytes
(each byte into h/g dims, concatenated per group), passed through one
transformer layer whose FFN is applied N times with a single shared weight
pair, and the last position's representation drives a 256-way softmax.
There is no layer normalization and no causal mask.

The graph is fixed, so its backward is written out by hand: `forward_probs`
keeps the activations `backward` needs on the model, `nll_loss` gives the
logit gradient, and `backward` writes every parameter's gradient into the
buffer allocated with it. Everything runs in the parameters' dtype: float32
in production, float64 for gradient checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import (
    Parameter,
    Rng64,
    fill_uniform,
    gather_rows,
    gelu,
    gelu_backward,
    matmul,
    softmax_rows,
)

VOCAB = 256
# Largest model a container may ask for: 64M scalars, 256 MB per float32
# array and about 1.3 GB with gradient, Adam moments and scratch. The paper
# default has 2,443,264.
MAX_PARAMETERS = 1 << 26


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the estimator. hidden_dim must be divisible by both
    group_size and num_heads."""

    hidden_dim: int = 256
    ffn_dim: int = 4096
    group_size: int = 4
    context_len: int = 8
    shared_ffn_repeats: int = 2
    num_heads: int = 8

    def __post_init__(self):
        for name in ("hidden_dim", "ffn_dim", "group_size", "context_len",
                     "shared_ffn_repeats", "num_heads"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"{name} must be a positive int, got {v!r}")
        if self.hidden_dim % self.group_size != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by group_size {self.group_size}"
            )
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )

    @property
    def window(self) -> int:
        """History bytes consumed per prediction: one window is c groups of g."""
        return self.context_len * self.group_size

    def label(self) -> str:
        return (f"h{self.hidden_dim}-f{self.ffn_dim}-g{self.group_size}"
                f"-c{self.context_len}-N{self.shared_ffn_repeats}-H{self.num_heads}")


def parameter_count(config: ModelConfig) -> int:
    """Total trainable scalars; independent of shared_ffn_repeats."""
    h = config.hidden_dim
    return (VOCAB * (h // config.group_size)
            + config.context_len * h
            + 4 * h * h
            + 2 * h * config.ffn_dim
            + h * VOCAB)


def check_size(config: ModelConfig) -> None:
    """Raise ValueError if the model has more than MAX_PARAMETERS parameters."""
    n = parameter_count(config)
    if n > MAX_PARAMETERS:
        raise ValueError(f"model {config.label()} has {n} parameters, "
                         f"more than {MAX_PARAMETERS}")


# initialization order is part of the format: the decoder rebuilds the model
# from the seed alone, so every build must consume the PRNG identically
_INIT_ORDER = ("byte_embedding", "positional_embedding", "wq", "wk", "wv",
               "wo", "w1", "w2", "output_head")


class _Saved(NamedTuple):
    """What one forward_probs call leaves for backward; shapes for B lanes."""

    histories: np.ndarray  # (B, c*g) byte indices
    x: np.ndarray          # (B, c, h) embedded window
    q: np.ndarray          # (B, H, 1, hk) last-position query
    kt: np.ndarray         # (B, H, hk, c) keys
    vt: np.ndarray         # (B, H, c, hk) values
    att: np.ndarray        # (B, H, 1, c) attention weights
    merged: np.ndarray     # (B, h) heads concatenated, before W_O
    ys: np.ndarray         # (N, B, h) input of each FFN application
    us: np.ndarray         # (N, B, f) pre-GELU
    acts: np.ndarray       # (N, B, f) post-GELU
    y: np.ndarray          # (B, h) input of the head
    probs: np.ndarray      # (B, 256)


class TraceModel:
    """All trainable state, the config that shaped it, and the activations
    of the last forward pass.

    Weights are Glorot-uniform from a single SplitMix64 stream in a fixed
    parameter order, so (config, seed) fully determines the model.
    """

    __slots__ = ("config", "byte_embedding", "positional_embedding",
                 "wq", "wk", "wv", "wo", "w1", "w2", "output_head", "saved")

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.saved = None
        h = config.hidden_dim
        shapes = {
            "byte_embedding": (VOCAB, h // config.group_size),
            "positional_embedding": (config.context_len, h),
            "wq": (h, h),
            "wk": (h, h),
            "wv": (h, h),
            "wo": (h, h),
            "w1": (h, config.ffn_dim),
            "w2": (config.ffn_dim, h),
            "output_head": (h, VOCAB),
        }
        rng = Rng64(seed)
        for name in _INIT_ORDER:
            fan_in, fan_out = shapes[name]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            data = fill_uniform(rng, fan_in * fan_out, -bound, bound)
            setattr(self, name, Parameter(data.reshape(fan_in, fan_out).astype(np.float32)))

    def parameters(self) -> list[Parameter]:
        return [getattr(self, n) for n in _INIT_ORDER]


def forward_probs(model: TraceModel, histories: np.ndarray) -> np.ndarray:
    """Batched production path: (B, c*g) byte windows -> (B, 256) probabilities.

    Only the last position ever reaches the output head, so Q, the FFN stack,
    and the head are evaluated for that position alone; K and V still span all
    c positions. Dropped positions carry zero gradient in the full
    computation, so the gradients of this path are exact. The activations are
    kept in `model.saved` for `backward`.
    """
    cfg = model.config
    if histories.ndim != 2 or histories.shape[1] != cfg.window:
        raise ValueError(f"histories must be (B, {cfg.window}), got {histories.shape}")
    b = histories.shape[0]
    c, h, heads, n = cfg.context_len, cfg.hidden_dim, cfg.num_heads, cfg.shared_ffn_repeats
    hk = h // heads

    x = gather_rows(model.byte_embedding.value, histories).reshape(b, c, h)
    x += model.positional_embedding.value

    x2 = x.reshape(b * c, h)
    kt = matmul(x2, model.wk.value).reshape(b, c, heads, hk).transpose(0, 2, 3, 1)
    vt = matmul(x2, model.wv.value).reshape(b, c, heads, hk).transpose(0, 2, 1, 3)
    x_last = x[:, -1]
    q = matmul(x_last, model.wq.value).reshape(b, heads, 1, hk)
    scores = matmul(q, kt)
    scores *= 1.0 / math.sqrt(hk)
    att = softmax_rows(scores)                                   # (B, H, 1, c)
    merged = matmul(att, vt).reshape(b, h)
    y = matmul(merged, model.wo.value)
    y += x_last

    ys = np.empty((n, b, h), dtype=y.dtype)
    us = np.empty((n, b, cfg.ffn_dim), dtype=y.dtype)
    acts = np.empty_like(us)
    for i in range(n):
        ys[i] = y
        matmul(y, model.w1.value, out=us[i])
        acts[i] = gelu(us[i])
        y = y + matmul(acts[i], model.w2.value)
    probs = softmax_rows(matmul(y, model.output_head.value))
    model.saved = _Saved(histories, x, q, kt, vt, att, merged, ys, us, acts, y, probs)
    return probs


def nll_loss(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of targets under (B, 256) probabilities,
    and its gradient with respect to the logits, (probs - onehot) / B."""
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(probs.shape[0])
    loss = -float(np.log(probs[rows, targets]).mean())
    grad = probs.copy()
    grad[rows, targets] -= 1.0
    grad /= probs.shape[0]
    return loss, grad


def backward(model: TraceModel, dlogits: np.ndarray) -> None:
    """Write d(loss)/d(parameter) into every parameter's grad buffer, given
    the logit gradient of the last forward_probs call. Buffers are
    overwritten, not accumulated into."""
    s = model.saved
    if s is None or dlogits.shape != s.probs.shape:
        raise ValueError(f"logit gradient of shape {dlogits.shape} does not match "
                         "the last forward pass")
    cfg = model.config
    b, c, h = s.x.shape
    heads, ffn = cfg.num_heads, cfg.ffn_dim
    hk = h // heads

    # head
    np.matmul(s.y.T, dlogits, out=model.output_head.grad)
    dy = dlogits @ model.output_head.value.T

    # shared FFN, last application first: y_{i+1} = y_i + gelu(y_i W1) W2
    dys = np.empty_like(s.ys)
    dus = np.empty_like(s.us)
    for i in reversed(range(cfg.shared_ffn_repeats)):
        dys[i] = dy
        dus[i] = gelu_backward(s.us[i], dy @ model.w2.value.T)
        dy = dy + dus[i] @ model.w1.value.T
    np.matmul(s.acts.reshape(-1, ffn).T, dys.reshape(-1, h), out=model.w2.grad)
    np.matmul(s.ys.reshape(-1, h).T, dus.reshape(-1, ffn), out=model.w1.grad)

    # attention of the last position: y = merged W_O + x_last
    np.matmul(s.merged.T, dy, out=model.wo.grad)
    dmixed = (dy @ model.wo.value.T).reshape(b, heads, 1, hk)
    datt = dmixed @ s.vt.transpose(0, 1, 3, 2)                  # (B, H, 1, c)
    dvt = s.att.transpose(0, 1, 3, 2) * dmixed                  # (B, H, c, hk)
    dscores = datt - (datt * s.att).sum(axis=-1, keepdims=True)
    dscores *= s.att
    dscores *= 1.0 / math.sqrt(hk)
    dq = (dscores @ s.kt.transpose(0, 1, 3, 2)).reshape(b, h)
    dkt = s.q.transpose(0, 1, 3, 2) * dscores                   # (B, H, hk, c)
    x_last = s.x[:, -1]
    np.matmul(x_last.T, dq, out=model.wq.grad)
    dx_last = dy + dq @ model.wq.value.T

    # K and V over every position, then the embeddings
    x2 = s.x.reshape(b * c, h)
    dk = dkt.transpose(0, 3, 1, 2).reshape(b * c, h)
    dv = dvt.transpose(0, 2, 1, 3).reshape(b * c, h)
    np.matmul(x2.T, dk, out=model.wk.grad)
    np.matmul(x2.T, dv, out=model.wv.grad)
    dx = dk @ model.wk.value.T
    dx += dv @ model.wv.value.T
    dx = dx.reshape(b, c, h)
    dx[:, -1] += dx_last
    np.sum(dx, axis=0, out=model.positional_embedding.grad)
    emb = model.byte_embedding.grad
    emb.fill(0.0)
    np.add.at(emb, s.histories.reshape(-1), dx.reshape(-1, emb.shape[1]))
