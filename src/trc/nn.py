"""Array kernels for the model's one fixed graph, Adam, and a deterministic PRNG.

There is no tape: `model.forward_probs` calls the forward ops below and
`model.backward` applies their hand-written derivatives. The forward ops are
module-level functions that `trc.model` imports by name, so a profiler can
wrap each one, even where numpy alone would do.

Arrays are float32 in production and float64 for gradient checking; every op
keeps the dtype of its inputs, and products are plain `np.matmul` (sgemm in
float32), so a given input gives the same bits on the same numpy/BLAS build
and kernel family.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`a @ b` with numpy's broadcasting rules; raises ValueError on a
    shape mismatch."""
    return np.matmul(a, b, out=out)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(sqrt(2/pi) * (x + 0.044715 * x^3)), as x*x*x, in a new array."""
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximation GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    t = _gelu_tanh(x)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def gelu_backward(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * gelu'(x), recomputing the tanh from the pre-activation x."""
    t = _gelu_tanh(x)
    d = x * x
    d *= 3.0 * _GELU_A * _GELU_C
    d += _GELU_C
    d *= x
    d *= 0.5
    d *= 1.0 - t * t          # 0.5 * x * sech^2 * c * (1 + 3a x^2)
    t += 1.0
    t *= 0.5
    d += t                    # + 0.5 * (1 + tanh)
    d *= g
    return d


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted, in a new array.

    Entries are clamped up to the dtype's smallest normal, so every
    probability stays strictly positive (and its log finite) even for extreme
    logits; row sums stay within 1e-6 of 1."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return np.maximum(e, np.finfo(e.dtype).tiny, out=e)


def gather_rows(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row lookup: table (n, d), idx any int shape -> (idx.shape + (d,))."""
    return table[idx]


class Parameter:
    """A trainable array with its gradient, Adam moments and Adam scratch.

    All five arrays share the value's dtype and are allocated once, here;
    training updates them in place, so `value` keeps its identity. State
    starts at zero except the value."""

    __slots__ = ("value", "grad", "m", "v", "scratch", "step_count")

    def __init__(self, data):
        arr = np.array(data, copy=True)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter init contains non-finite values")
        self.value = arr
        self.grad = np.zeros_like(arr)
        self.m = np.zeros_like(arr)
        self.v = np.zeros_like(arr)
        self.scratch = np.empty_like(arr)
        self.step_count = 0


def adam_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Bias-corrected Adam on every parameter, in place; zeroes grads, bumps
    step_count.

    The bias corrections are folded into the step size and epsilon (Kingma &
    Ba, section 2): lr*sqrt(1-b2^t)/(1-b1^t) * m / (sqrt(v) + eps*sqrt(1-b2^t)),
    which equals lr * mhat / (sqrt(vhat) + eps)."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    for p in params:
        t = p.step_count + 1
        root_c2 = math.sqrt(1.0 - beta2 ** t)
        g, m, v, s = p.grad, p.m, p.v, p.scratch
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - beta2
        v += s
        np.sqrt(v, out=s)
        s += eps * root_c2
        np.divide(m, s, out=s)
        s *= lr * root_c2 / (1.0 - beta1 ** t)
        p.value -= s
        g.fill(0.0)
        p.step_count = t


class Rng64:
    """SplitMix64: one 64-bit word of state, identical sequence on any platform."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4E1C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def fill_uniform(rng: Rng64, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws in [lo, hi), (rng.next_u64() >> 11) * 2^-53 scaled into range,
    computed vectorized.

    SplitMix64 state advances by a fixed constant per draw, so the n states
    are an affine jump from the current one; mixing is elementwise.
    """
    if not lo < hi:
        raise ValueError(f"empty range: lo={lo!r} must be < hi={hi!r}")
    with np.errstate(over="ignore"):
        steps = (np.arange(1, n + 1, dtype=np.uint64)
                 * np.uint64(0x9E3779B97F4E1C15))
        z = np.uint64(rng.state) + steps  # wraps mod 2^64 like the scalar path
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = lo + (hi - lo) * u
    np.minimum(r, math.nextafter(hi, -math.inf), out=r)
    rng.state = (rng.state + n * 0x9E3779B97F4E1C15) & _MASK64
    return r
