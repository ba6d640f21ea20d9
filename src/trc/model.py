"""Online-trained transformer probability estimator over byte streams.

A window of c*g history bytes is embedded in groups of g consecutive bytes
(each byte into h/g dims, concatenated per group), passed through one
transformer layer whose FFN is applied N times with a single shared weight
pair, and the last position's representation drives a 256-way softmax.
There is no layer normalization and no causal mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import (
    Parameter,
    Rng64,
    Tensor,
    add,
    fill_uniform,
    gather_rows,
    gelu,
    last_position,
    log,
    matmul,
    mean_all,
    neg,
    reshape,
    scale,
    softmax_rows,
    take_per_row,
    transpose,
)

VOCAB = 256


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


# initialization order is part of the format: the decoder rebuilds the model
# from the seed alone, so every build must consume the PRNG identically
_INIT_ORDER = ("byte_embedding", "positional_embedding", "wq", "wk", "wv",
               "wo", "w1", "w2", "output_head")


class TraceModel:
    """All trainable state plus the config that shaped it.

    Weights are Glorot-uniform from a single SplitMix64 stream in a fixed
    parameter order, so (config, seed) fully determines the model.
    """

    __slots__ = ("config", "byte_embedding", "positional_embedding",
                 "wq", "wk", "wv", "wo", "w1", "w2", "output_head")

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
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


def _ffn(y: Tensor, model: TraceModel) -> Tensor:
    return matmul(gelu(matmul(y, model.w1.value)), model.w2.value)


def forward_probs(model: TraceModel, histories: np.ndarray) -> Tensor:
    """Batched production path: (B, c*g) byte windows -> (B, 256) probabilities.

    Only the last position ever reaches the output head, so Q, the FFN stack,
    and the head are evaluated for that position alone; K and V still span all
    c positions. Gradients are exact: dropped positions carry zero gradient in
    the full computation.
    """
    cfg = model.config
    if histories.ndim != 2 or histories.shape[1] != cfg.window:
        raise ValueError(f"histories must be (B, {cfg.window}), got {histories.shape}")
    b = histories.shape[0]
    c, h, heads = cfg.context_len, cfg.hidden_dim, cfg.num_heads
    hk = h // heads

    flat = gather_rows(model.byte_embedding.value, histories.reshape(-1))
    x = add(reshape(flat, (b, c, h)), model.positional_embedding.value)

    x2 = reshape(x, (b * c, h))
    k = transpose(reshape(matmul(x2, model.wk.value), (b, c, heads, hk)), (0, 2, 3, 1))
    v = transpose(reshape(matmul(x2, model.wv.value), (b, c, heads, hk)), (0, 2, 1, 3))
    x_last = last_position(x)                                   # (B, h)
    q = reshape(matmul(x_last, model.wq.value), (b, heads, 1, hk))
    scores = scale(matmul(q, k), 1.0 / math.sqrt(hk))           # (B, H, 1, c)
    mixed = matmul(softmax_rows(scores), v)                     # (B, H, 1, hk)
    merged = reshape(transpose(mixed, (0, 2, 1, 3)), (b, h))
    y = add(matmul(merged, model.wo.value), x_last)
    for _ in range(cfg.shared_ffn_repeats):
        y = add(_ffn(y, model), y)
    return softmax_rows(matmul(y, model.output_head.value))


def nll_loss(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of targets under (B, 256) probabilities."""
    return neg(mean_all(log(take_per_row(probs, np.asarray(targets, dtype=np.int64)))))
