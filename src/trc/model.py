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
forms the logit gradient in the step's probabilities, and hands each weight's
gradient to a callback as soon as it no longer reads that weight's value.
The train step applies Adam there. Everything runs in the arrays' dtype:
float32 in production, float64 for gradient checking.

`step_shapes` is the one table of the arrays a train step holds, and
`check_model` sums it. The model keeps one flat buffer per entry, allocated
anew only for more lanes or another dtype, so after the first step no step
frees an array of its own size. Forward writes every step-sized result into
views of the buffers' fronts with `out=`, and keeps no GELU output: the
(N, B, f) `us` and `ths` hold the pre-GELU values and the tanh inside each
GELU. Backward writes each gradient over an activation it has read for the
last time (step_shapes says which), rebuilds GELU's output over `ths` with
`gelu_from_tanh`, the passes `gelu` itself ends with, so the bits are the
forward's, and hands every weight's gradient over in the one `grad` buffer:
w1 and w2, the weights that scale with f, in row blocks of at most
GRAD_BLOCK elements, which stay in cache while Adam reads them, and every
other weight whole. The same buffer holds one FFN application's (B, f)
GELU output in forward and its gradient in backward, when no weight's
gradient is alive. A second `backward` on one forward pass raises
ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
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
# at most 768 MB for the values and both moments. The paper default has
# 2,443,264.
MAX_PARAMETERS = 1 << 26
# Most floats a train step may hold, as check_model counts them: its
# step_shapes arrays, the gradient buffer among them, and its temporaries.
# 1 GB in float32, as for the parameters. The paper default at 64 lanes
# holds about 2.1M.
MAX_STEP_FLOATS = 1 << 28
# Most elements of one w1 or w2 gradient block that backward hands over:
# 1 MB in float32, which stays in a 2 MB L2 cache while Adam reads it. A
# weight row longer than this is one block.
GRAD_BLOCK = 1 << 18


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


def _block_rows(shape: tuple[int, int]) -> int:
    """Rows of each gradient block of an FFN weight of this (fan_in,
    fan_out) shape: as many as GRAD_BLOCK elements hold, at least one and at
    most all."""
    return min(shape[0], max(1, GRAD_BLOCK // shape[1]))


def step_shapes(config: ModelConfig, lanes: int) -> dict[str, tuple[int, ...]]:
    """Every array a train step over `lanes` lanes holds, by name, in the
    shape the model keeps it. Backward writes gradients over forward's
    activations once it has read them for the last time.

    - x (B, c, h): the embedded window; dx is its gradient.
    - k and v (B*c, h): keys and values. Backward puts dK and dV over them,
      then dV W_V^T over dK, and the embedding gradient's sorted rows over dV.
    - q, merged and y (B, h): the last position's query, its heads
      concatenated, and the head's input. Backward puts the merged heads'
      gradient and then dQ over merged, and dy over y.
    - att (B, H, 1, c): the attention weights.
    - ys and dys (N, B, h): the input of each FFN application, and its
      gradient.
    - us and ths (N, B, f): the pre-GELU values and the tanh inside each
      GELU. Backward puts the pre-GELU gradient over us and GELU's output
      over ths.
    - probs (B, 256): the probabilities, then the logit gradient.
    - grad, three uses at three times: one FFN application's (B, f) GELU
      output in forward, its gradient du in backward, and then each weight's
      gradient as backward hands it over, w1 and w2 one row block at a time.
      It holds the largest of the three.
    """
    b, h, c, f = lanes, config.hidden_dim, config.context_len, config.ffn_dim
    n = config.shared_ffn_repeats
    grad = max(b * f, *(_block_rows(shape) * shape[1] if name in ("w1", "w2")
                        else math.prod(shape) for name, shape in weight_shapes(config).items()))
    return {"x": (b, c, h), "k": (b * c, h), "v": (b * c, h), "q": (b, h), "merged": (b, h),
            "y": (b, h), "att": (b, config.num_heads, 1, c), "ys": (n, b, h), "dys": (n, b, h),
            "us": (n, b, f), "ths": (n, b, f), "probs": (b, VOCAB), "dx": (b, c, h),
            "grad": (grad,)}


def check_model(config: ModelConfig, lanes: int) -> None:
    """Raise ValueError unless hidden_dim is divisible by group_size and by
    num_heads, the model has at most MAX_PARAMETERS parameters, and a train
    step over `lanes` lanes holds at most MAX_STEP_FLOATS floats: the arrays
    of step_shapes, and per lane 8h + 2Hc + 4cg for the temporaries that are
    no entry of it: (B, h) products, gelu_backward's scratch and numpy's
    ufunc buffers; two (B, H, c) score arrays, the most that attention's
    backward holds at once; and the int64 indices and sort keys of the byte
    windows. A temporary counted as an entry would be allocated on the model
    and grow the very count it has to cover. Every field must already be a
    positive int."""
    h = config.hidden_dim
    for name, d in (("group_size", config.group_size), ("num_heads", config.num_heads)):
        if h % d:
            raise ValueError(f"hidden_dim {h} not divisible by {name} {d}")
    n = parameter_count(config)
    if n > MAX_PARAMETERS:
        raise ValueError(f"model {config.label()} has {n} parameters, "
                         f"more than {MAX_PARAMETERS}")
    n = sum(math.prod(shape) for shape in step_shapes(config, lanes).values())
    n += lanes * (8 * h + 2 * config.num_heads * config.context_len + 4 * config.window)
    if n > MAX_STEP_FLOATS:
        raise ValueError(f"a step of model {config.label()} over {lanes} lanes "
                         f"holds {n} floats, more than {MAX_STEP_FLOATS}")


class Weight(NamedTuple):
    """One weight matrix and its Adam moments, three arrays of one shape."""

    value: np.ndarray
    m: np.ndarray
    v: np.ndarray


class TraceModel:
    """All trainable state, the config that shaped it, and the buffers a
    train step works in.

    Each weight named in weight_shapes is a Weight attribute; steps counts
    the Adam steps taken; buffers holds one flat array per step_shapes
    entry, allocated anew only for more lanes or another dtype; step is the
    last forward pass, its views of the buffers and its histories, until
    backward consumes it. Weights are Glorot-uniform: a weight whose
    predecessors in weight_shapes hold lo scalars takes draws lo, lo+1, ...
    of one SplitMix64 stream, so (config, seed) fully determines the model.
    """

    __slots__ = ("config", "steps", "buffers", "step", *weight_shapes(ModelConfig()))

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.buffers, self.step, self.steps = {}, None, 0
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


def _step_views(model: TraceModel, histories: np.ndarray) -> SimpleNamespace:
    """A step over these histories: every step_shapes entry as a view of the
    front of its buffer, in the weights' dtype, and the histories."""
    dtype = model.byte_embedding.value.dtype
    s = SimpleNamespace(histories=histories)
    for name, shape in step_shapes(model.config, len(histories)).items():
        size = math.prod(shape)
        buf = model.buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = model.buffers[name] = np.empty(size, dtype=dtype)
        setattr(s, name, buf[:size].reshape(shape))
    return s


def forward_probs(model: TraceModel, histories: np.ndarray) -> np.ndarray:
    """Batched production path: (B, c*g) byte windows -> (B, 256) probabilities.

    Only the last position ever reaches the output head, so Q, the FFN stack,
    and the head are evaluated for that position alone; K and V still span all
    c positions. Dropped positions carry zero gradient in the full
    computation, so the gradients of this path are exact. Every step-sized
    result goes into the model's buffers, and model.step keeps the views for
    `backward`, which turns the returned probabilities, a view too, into the
    logit gradient. Raises ValueError for histories of another shape, or of
    an int dtype other than uint8 with a byte outside [0, 255]; uint8
    histories, the pipeline's, skip that check.
    """
    cfg = model.config
    if histories.ndim != 2 or histories.shape[1] != cfg.window:
        raise ValueError(f"histories must be (B, {cfg.window}), got {histories.shape}")
    if histories.dtype != np.uint8 and histories.size and (
            histories.min() < 0 or histories.max() > 255):
        raise ValueError("history bytes must lie in [0, 255]")
    b = histories.shape[0]
    c, h, heads, n = cfg.context_len, cfg.hidden_dim, cfg.num_heads, cfg.shared_ffn_repeats
    hk = h // heads
    model.step = None
    s = _step_views(model, histories)

    x = s.x
    gather_rows(model.byte_embedding.value, histories, x.reshape(b, cfg.window, -1))
    x += model.positional_embedding.value

    x2 = x.reshape(b * c, h)
    matmul(x2, model.wk.value, s.k)
    matmul(x2, model.wv.value, s.v)
    s.kt = s.k.reshape(b, c, heads, hk).transpose(0, 2, 3, 1)     # (B, H, hk, c)
    s.vt = s.v.reshape(b, c, heads, hk).transpose(0, 2, 1, 3)     # (B, H, c, hk)
    x_last = x[:, -1]
    q = matmul(x_last, model.wq.value, s.q).reshape(b, heads, 1, hk)
    matmul(q, s.kt, s.att)
    s.att *= 1.0 / math.sqrt(hk)
    softmax_rows(s.att, s.att)
    matmul(s.att, s.vt, s.merged.reshape(b, heads, 1, hk))
    y = matmul(s.merged, model.wo.value, s.y)
    y += x_last

    act = s.grad[:b * cfg.ffn_dim].reshape(b, -1)
    for i in range(n):
        s.ys[i] = y
        matmul(y, model.w1.value, s.us[i])
        gelu(s.us[i], s.ths[i], act)
        y += matmul(act, model.w2.value)
    softmax_rows(matmul(y, model.output_head.value, s.probs), s.probs)
    model.step = s
    return s.probs


def nll_loss(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of targets under (B, 256) probabilities."""
    return -float(np.log(probs[np.arange(len(probs)), targets]).mean())


def backward(model: TraceModel, targets: np.ndarray,
             apply: Callable[[Weight, np.ndarray], None]) -> None:
    """Compute d(nll_loss)/d(parameter) for every weight at the last
    forward_probs call and its B targets, and hand each to
    `apply(weight, grad)`.

    grad is a view of the model's one gradient buffer in the shape of the
    weight it is handed with: it stays valid until apply returns, and apply
    may overwrite it; an apply that keeps it must copy it. Each weight's
    gradient is handed over right after backward's last read of its value,
    so `apply` may update the value in place. The order is output_head, w2,
    w1, wo, wq, wk, wv, positional_embedding and byte_embedding. Every weight
    but w1 and w2 is handed over once, as the model's own Weight. w1 and w2
    are handed over in row blocks, in row order, each of at most GRAD_BLOCK
    elements or one row: a block is a Weight of views of rows lo:hi of the
    value and both moments, with the gradient of those rows, so an
    elementwise update such as Adam applies to it as to the whole weight.
    Backward writes gradients over the forward pass's activations, its
    probabilities becoming the logit gradient (probs - onehot) / B, and
    consumes model.step, so a second call before the next forward pass
    raises ValueError, as do targets for another lane count."""
    s = model.step
    if s is None:
        raise ValueError("no forward pass to run backward on: none ran, "
                         "or backward already consumed the last one")
    b, c, h = s.x.shape
    if np.shape(targets) != (b,):
        raise ValueError(f"targets of shape {np.shape(targets)} do not match "
                         f"the last forward pass's {b} lanes")
    model.step = None
    heads, ffn = model.config.num_heads, model.config.ffn_dim
    hk = h // heads

    def grad(w: Weight) -> np.ndarray:
        return s.grad[:w.value.size].reshape(w.value.shape)

    def apply_rows(w: Weight, a: np.ndarray, d: np.ndarray) -> None:
        # w's gradient a.T @ d, one row block at a time: rows lo:hi of a
        # product are the product of a's columns lo:hi
        rows, n = _block_rows(w.value.shape), len(w.value)
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            block = Weight(*(x[lo:hi] for x in w))
            apply(block, np.matmul(a[:, lo:hi].T, d, out=grad(block)))

    # head; dy takes the place of y once y has given the head's gradient
    dlogits = s.probs
    dlogits[np.arange(b), targets] -= 1.0
    dlogits /= b
    g = np.matmul(s.y.T, dlogits, out=grad(model.output_head))
    dy = np.matmul(dlogits, model.output_head.value.T, out=s.y)
    apply(model.output_head, g)

    # shared FFN, last application first: y_{i+1} = y_i + gelu(y_i W1) W2.
    # du lives in the gradient buffer, free once the head's gradient is
    # handed over, as GELU's output did in forward. Once gelu_backward has
    # read us[i] and ths[i], ths[i] takes GELU's output back and us[i] the
    # pre-GELU gradient du.
    us, ths, du = s.us, s.ths, s.grad[:b * ffn].reshape(b, ffn)
    for i in reversed(range(len(us))):
        s.dys[i] = dy
        np.matmul(dy, model.w2.value.T, out=du)
        gelu_backward(us[i], ths[i], du)
        gelu_from_tanh(us[i], ths[i], ths[i])
        us[i] = du
        dy += du @ model.w1.value.T
    apply_rows(model.w2, ths.reshape(-1, ffn), s.dys.reshape(-1, h))
    apply_rows(model.w1, s.ys.reshape(-1, h), us.reshape(-1, ffn))

    # attention of the last position: y = merged W_O + x_last. The merged
    # heads' gradient goes over merged, dV over V and dK over K, each once
    # its last read is done, and dQ over the merged heads' gradient.
    g = np.matmul(s.merged.T, dy, out=grad(model.wo))
    dmixed = np.matmul(dy, model.wo.value.T, out=s.merged).reshape(b, heads, 1, hk)
    apply(model.wo, g)
    datt = dmixed @ s.vt.transpose(0, 1, 3, 2)                    # (B, H, 1, c)
    np.multiply(s.att.transpose(0, 1, 3, 2), dmixed, out=s.vt)
    dscores = datt - (datt * s.att).sum(axis=-1, keepdims=True)
    dscores *= s.att
    dscores *= 1.0 / math.sqrt(hk)
    dq = np.matmul(dscores, s.kt.transpose(0, 1, 3, 2), out=dmixed).reshape(b, h)
    np.multiply(s.q.reshape(b, heads, hk, 1), dscores, out=s.kt)
    dy += dq @ model.wq.value.T
    apply(model.wq, np.matmul(s.x[:, -1].T, dq, out=grad(model.wq)))

    # K and V over every position, then the embeddings; dV W_V^T goes over
    # dK once wk's gradient is handed over
    x2 = s.x.reshape(b * c, h)
    dx = np.matmul(s.k, model.wk.value.T, out=s.dx.reshape(b * c, h))
    apply(model.wk, np.matmul(x2.T, s.k, out=grad(model.wk)))
    dx += np.matmul(s.v, model.wv.value.T, out=s.k)
    apply(model.wv, np.matmul(x2.T, s.v, out=grad(model.wv)))
    s.dx[:, -1] += dy
    apply(model.positional_embedding, np.sum(s.dx, axis=0, out=grad(model.positional_embedding)))
    apply(model.byte_embedding, scatter_rows(grad(model.byte_embedding), s.histories, s.dx, s.v))
