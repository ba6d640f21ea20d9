"""Online-trained transformer probability estimator over byte streams.

A window of c*g history bytes is embedded in groups of g consecutive bytes
(each byte into h/g dims, concatenated per group), passed through one
transformer layer whose FFN is applied N times with a single shared weight
pair, and the last position's representation drives a 256-way softmax.
There is no layer normalization and no causal mask.

Each weight owns three arrays of its shape: its value and Adam's two
moments. The graph and its loss are fixed, so the backward is written out
by hand: `forward_probs` keeps the activations `backward` needs on the
model, `nll_loss` gives the loss alone, and `backward` takes the targets,
forms the logit gradient in the saved probabilities, and hands each weight's
gradient, in a fresh array, to a callback as soon as it no longer reads that
weight's value. The train step applies Adam there, so it holds one weight's
gradient at a time. Everything runs in the arrays' dtype: float32 in
production, float64 for gradient checking.

A step holds one (B, 256) array, the probabilities: the coder reads its
float32 rows, and `backward` turns it into the logit gradient. The logits
die inside the softmax.

A step holds one step's FFN activations. Its two (N, B, f) arrays, the
pre-GELU `us` and the tanh inside each GELU `ths`, are buffers on the model
that every forward pass of the same shape and dtype overwrites; forward runs
the N applications through one (B, f) array and keeps no GELU output.
`backward` consumes them: once it has read `us[i]` and `ths[i]`, it
rebuilds that application's GELU output into `ths[i]` with `gelu_from_tanh`,
the passes `gelu` itself ends with, so the bits are the forward's, and
writes the pre-GELU gradient over `us[i]`. A second `backward` on one
forward pass raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .nn import (
    SLICE,
    fill_uniform,
    gather_rows,
    gelu,
    gelu_backward,
    gelu_from_tanh,
    matmul,
    scatter_rows,
    softmax_rows,
)

VOCAB = 256
# Largest model a container may ask for: 64M scalars, 256 MB in float32, so
# at most 1 GB for the values, both moments and the largest weight's gradient.
# The paper default has 2,443,264.
MAX_PARAMETERS = 1 << 26
# Most floats a train step may hold in activations and their gradients: 1 GB
# in float32, as for the parameters. The paper default at 64 lanes holds
# about 2.5M.
MAX_STEP_FLOATS = 1 << 28


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the estimator, a plain value. ContainerHeader.check decides
    which shapes are legal, and every job reaches it before a TraceModel is
    built."""

    hidden_dim: int = 256
    ffn_dim: int = 4096
    group_size: int = 4
    context_len: int = 8
    shared_ffn_repeats: int = 2
    num_heads: int = 8

    @property
    def window(self) -> int:
        """History bytes consumed per prediction: one window is c groups of g."""
        return self.context_len * self.group_size

    def label(self) -> str:
        return (f"h{self.hidden_dim}-f{self.ffn_dim}-g{self.group_size}"
                f"-c{self.context_len}-N{self.shared_ffn_repeats}-H{self.num_heads}")


def weight_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every weight's (fan_in, fan_out), in the order the weights take their
    initial values from one PRNG stream. The order is part of the format: each
    weight's draws start where the previous weight's end, and the decoder
    rebuilds the model from the seed alone."""
    h = config.hidden_dim
    return {
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


def parameter_count(config: ModelConfig) -> int:
    """Total trainable scalars; independent of shared_ffn_repeats."""
    return sum(a * b for a, b in weight_shapes(config).values())


def check_model(config: ModelConfig, lanes: int) -> None:
    """Raise ValueError unless hidden_dim is divisible by group_size and by
    num_heads, the model has at most MAX_PARAMETERS parameters, and a train
    step over `lanes` lanes holds at most MAX_STEP_FLOATS floats in its
    largest arrays, per lane: (2N + 1)f in us, ths and one (B, f) array;
    2Nh in the N FFN inputs and their gradients; 8ch in x, K and V, which
    forward keeps, and the dK and dV products, dK, dV and dx, which backward
    makes; and 512 in the (B, 256) logits and probabilities. Every field
    must already be a positive int."""
    h = config.hidden_dim
    for name, d in (("group_size", config.group_size), ("num_heads", config.num_heads)):
        if h % d:
            raise ValueError(f"hidden_dim {h} not divisible by {name} {d}")
    n = parameter_count(config)
    if n > MAX_PARAMETERS:
        raise ValueError(f"model {config.label()} has {n} parameters, "
                         f"more than {MAX_PARAMETERS}")
    r = config.shared_ffn_repeats
    n = lanes * ((2 * r + 1) * config.ffn_dim + 2 * r * h
                 + 8 * config.context_len * h + 2 * VOCAB)
    if n > MAX_STEP_FLOATS:
        raise ValueError(f"a step of model {config.label()} over {lanes} lanes "
                         f"holds {n} floats, more than {MAX_STEP_FLOATS}")


class _Saved(NamedTuple):
    """What one forward_probs call leaves for backward; shapes for B lanes.

    us and ths are views of the model's FFN buffers. backward overwrites
    them and probs, and leaves a copy of this record with the three set to
    None, so it runs once. The rest stays on the model until the next
    forward pass replaces it, which keeps the heap from shrinking and
    regrowing between steps."""

    histories: np.ndarray  # (B, c*g) byte indices
    x: np.ndarray          # (B, c, h) embedded window
    q: np.ndarray          # (B, H, 1, hk) last-position query
    kt: np.ndarray         # (B, H, hk, c) keys
    vt: np.ndarray         # (B, H, c, hk) values
    att: np.ndarray        # (B, H, 1, c) attention weights
    merged: np.ndarray     # (B, h) heads concatenated, before W_O
    ys: np.ndarray         # (N, B, h) input of each FFN application
    us: np.ndarray         # (N, B, f) pre-GELU
    ths: np.ndarray        # (N, B, f) the tanh inside each GELU
    y: np.ndarray          # (B, h) input of the head
    probs: np.ndarray      # (B, 256)


class Weight(NamedTuple):
    """One weight matrix and its Adam moments, three arrays of one shape."""

    value: np.ndarray
    m: np.ndarray
    v: np.ndarray


class TraceModel:
    """All trainable state, the config that shaped it, and the activations
    of the last forward pass.

    Each weight named in weight_shapes is a Weight attribute; steps counts
    the Adam steps taken; ffn is the (2, N, B, f) array that holds us and ths
    of the last forward pass. Weights are Glorot-uniform: a weight whose
    predecessors in weight_shapes hold lo scalars takes draws lo, lo+1, ...
    of one SplitMix64 stream, so (config, seed) fully determines the model.
    """

    __slots__ = ("config", "steps", "saved", "ffn", *weight_shapes(ModelConfig()))

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.saved = self.ffn = None
        self.steps = 0
        lo = 0
        for name, (fan_in, fan_out) in weight_shapes(config).items():
            n = fan_in * fan_out
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            value = np.empty((fan_in, fan_out), dtype=np.float32)
            # draw in SLICE runs, so the float64 temporaries stay small
            for a in range(0, n, SLICE):
                b = min(a + SLICE, n)
                value.reshape(-1)[a:b] = fill_uniform(seed, lo + a, b - a, -bound, bound)
            # np.zeros takes pages the OS zeroes on first touch, in Adam
            m, v = (np.zeros((fan_in, fan_out), dtype=np.float32) for _ in range(2))
            setattr(self, name, Weight(value, m, v))
            lo += n


def forward_probs(model: TraceModel, histories: np.ndarray) -> np.ndarray:
    """Batched production path: (B, c*g) byte windows -> (B, 256) probabilities.

    Only the last position ever reaches the output head, so Q, the FFN stack,
    and the head are evaluated for that position alone; K and V still span all
    c positions. Dropped positions carry zero gradient in the full
    computation, so the gradients of this path are exact. The activations are
    kept in `model.saved` for `backward`; us and ths go into `model.ffn`,
    which is allocated anew only when the lane count or the dtype changes.
    `backward` turns the returned probabilities into the logit gradient.
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
    shape = (2, n, b, cfg.ffn_dim)
    if model.ffn is None or model.ffn.shape != shape or model.ffn.dtype != y.dtype:
        model.ffn = np.empty(shape, dtype=y.dtype)
    us, ths = model.ffn
    act = np.empty((b, cfg.ffn_dim), dtype=y.dtype)
    for i in range(n):
        ys[i] = y
        matmul(y, model.w1.value, out=us[i])
        gelu(us[i], ths[i], act)
        y = y + matmul(act, model.w2.value)
    # The softmax takes a new array, and the logits die in it. Writing it
    # over the logits saved 0.15 MB at 256 lanes, but there glibc 2.36 then
    # trimmed and refaulted the heap's top every step: 7,698 against 1,633
    # minor faults in a process's first tiny-config compress.
    probs = softmax_rows(matmul(y, model.output_head.value))
    model.saved = _Saved(histories, x, q, kt, vt, att, merged, ys, us, ths, y, probs)
    return probs


def nll_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of targets under (B, 256) probabilities."""
    return -float(np.log(probs[np.arange(len(probs)), targets]).mean())


def backward(model: TraceModel, targets: np.ndarray,
             apply: Callable[[Weight, np.ndarray], None]) -> None:
    """Compute d(nll_loss)/d(parameter) for every weight at the last
    forward_probs call and its B targets, and hand each to
    `apply(weight, grad)` in a fresh array of the weight's shape.

    Each weight is handed over once, right after backward's last read of
    its value, so `apply` may update the value in place. The order is
    output_head, w2, w1, wo, wq, wk, wv, positional_embedding and
    byte_embedding. Backward consumes the forward pass's FFN activations
    and its probabilities, which become the logit gradient
    (probs - onehot) / B, so a second call before the next forward pass
    raises ValueError, as do targets for another lane count."""
    s = model.saved
    if s is None or s.us is None:
        raise ValueError("no forward pass to run backward on: none ran, "
                         "or backward already consumed the last one")
    b, c, h = s.x.shape
    if np.shape(targets) != (b,):
        raise ValueError(f"targets of shape {np.shape(targets)} do not match "
                         f"the last forward pass's {b} lanes")
    model.saved = s._replace(us=None, ths=None, probs=None)
    cfg = model.config
    heads, ffn = cfg.num_heads, cfg.ffn_dim
    hk = h // heads

    # head
    dlogits = s.probs
    dlogits[np.arange(b), targets] -= 1.0
    dlogits /= b
    dy = dlogits @ model.output_head.value.T
    apply(model.output_head, s.y.T @ dlogits)

    # shared FFN, last application first: y_{i+1} = y_i + gelu(y_i W1) W2.
    # Once gelu_backward has read us[i] and ths[i], ths[i] takes GELU's
    # output back and us[i] the pre-GELU gradient du.
    dys = np.empty_like(s.ys)
    du = np.empty(s.us.shape[1:], dtype=s.us.dtype)
    for i in reversed(range(cfg.shared_ffn_repeats)):
        dys[i] = dy
        np.matmul(dy, model.w2.value.T, out=du)
        gelu_backward(s.us[i], s.ths[i], du)
        gelu_from_tanh(s.us[i], s.ths[i], s.ths[i])
        s.us[i] = du
        dy = dy + du @ model.w1.value.T
    apply(model.w2, s.ths.reshape(-1, ffn).T @ dys.reshape(-1, h))
    apply(model.w1, s.ys.reshape(-1, h).T @ s.us.reshape(-1, ffn))

    # attention of the last position: y = merged W_O + x_last
    dmixed = (dy @ model.wo.value.T).reshape(b, heads, 1, hk)
    apply(model.wo, s.merged.T @ dy)
    datt = dmixed @ s.vt.transpose(0, 1, 3, 2)                  # (B, H, 1, c)
    # dK and dV as (B*c, h) rows; their (B, H, ., .) products are freed at once
    dv = (s.att.transpose(0, 1, 3, 2) * dmixed).transpose(0, 2, 1, 3).reshape(b * c, h)
    dscores = datt - (datt * s.att).sum(axis=-1, keepdims=True)
    dscores *= s.att
    dscores *= 1.0 / math.sqrt(hk)
    dq = (dscores @ s.kt.transpose(0, 1, 3, 2)).reshape(b, h)
    dk = (s.q.transpose(0, 1, 3, 2) * dscores).transpose(0, 3, 1, 2).reshape(b * c, h)
    dx_last = dy + dq @ model.wq.value.T
    apply(model.wq, s.x[:, -1].T @ dq)

    # K and V over every position, then the embeddings
    x2 = s.x.reshape(b * c, h)
    dx = dk @ model.wk.value.T
    dx += dv @ model.wv.value.T
    apply(model.wk, x2.T @ dk)
    apply(model.wv, x2.T @ dv)
    dx = dx.reshape(b, c, h)
    dx[:, -1] += dx_last
    apply(model.positional_embedding, dx.sum(axis=0))
    demb = np.empty_like(model.byte_embedding.value)
    scatter_rows(demb, s.histories, dx)
    apply(model.byte_embedding, demb)
