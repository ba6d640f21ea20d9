"""Dense float tensors with reverse-mode autodiff, a deterministic PRNG, and Adam.

Only the operations the byte-prediction model needs are implemented. Values
live in float32 by default (float64 is available end to end for gradient
checking); every reduction accumulates in float64 before rounding back to the
working dtype, and kernels are fixed and single-threaded-deterministic, so a
given input always produces the same bits.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


class Tensor:
    """A dense array plus the links needed to replay the forward pass backwards.

    Leaf tensors have no parents; non-leaf tensors remember the tensors they
    were computed from and a closure that routes gradients to them. The record
    is rebuilt on every forward pass and discarded after backward().
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_param")

    def __init__(self, data, parents=(), backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None  # float64 buffer, allocated during backward()
        self._parents = tuple(parents)
        self._backward = backward
        self._param = None  # set when this tensor is a Parameter's value

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype})"


def _f64(t: Tensor) -> np.ndarray:
    # float32 -> float64 widening is exact, so backward passes may recast freely
    return t.data.astype(np.float64, copy=False)


def _out_dtype(*ts: Tensor):
    if all(t.data.dtype == np.float64 for t in ts):
        return np.float64
    return np.float32


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, dtype=np.float64)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` after a broadcasting forward op."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; inputs of equal rank >= 2, leading batch dims equal.

    The inner-dimension sum is accumulated in float64 and rounded once to the
    working dtype, which makes the result independent of kernel blocking and
    equal to a strictly-ordered scalar loop at float32 resolution.
    """
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sa) != len(sb) or sa[-1] != sb[-2] or sa[:-2] != sb[:-2]:
        raise ValueError(f"matmul shape mismatch: {sa} x {sb}")
    out = np.matmul(_f64(a), _f64(b))

    def back(g):
        _accumulate(a, np.matmul(g, np.swapaxes(_f64(b), -1, -2)))
        _accumulate(b, np.matmul(np.swapaxes(_f64(a), -1, -2), g))

    return Tensor(out.astype(_out_dtype(a, b), copy=False), (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    out = a.data + b.data

    def back(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return Tensor(out, (a, b), back)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * a.data.dtype.type(s)

    def back(g):
        _accumulate(a, g * float(s))

    return Tensor(out, (a,), back)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    x64 = _f64(x)
    t = np.tanh(_GELU_C * (x64 + 0.044715 * x64 ** 3))
    out = 0.5 * x64 * (1.0 + t)

    def back(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x64 * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x64 ** 2)
        _accumulate(x, g * d)

    return Tensor(out.astype(x.data.dtype, copy=False), (x,), back)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted, float64 accumulation.

    Output entries are clamped up to the dtype's smallest normal so every
    probability stays strictly positive even for extreme logits; row sums stay
    within 1e-6 of 1. The backward pass uses the exact pre-clamp softmax.
    """
    x64 = _f64(x)
    m = x64.max(axis=-1, keepdims=True)
    e = np.exp(x64 - m)
    p64 = e / e.sum(axis=-1, keepdims=True)
    dt = x.data.dtype
    p = p64.astype(dt, copy=True)
    np.maximum(p, np.finfo(dt).tiny, out=p)

    def back(g):
        gp = (g * p64).sum(axis=-1, keepdims=True)
        _accumulate(x, p64 * (g - gp))

    return Tensor(p, (x,), back)


def log(x: Tensor) -> Tensor:
    """Natural log; caller guarantees positive input (softmax output here)."""
    x64 = _f64(x)
    out = np.log(x64)

    def back(g):
        _accumulate(x, g / x64)

    return Tensor(out.astype(x.data.dtype, copy=False), (x,), back)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = np.reshape(x.data, shape)

    def back(g):
        _accumulate(x, g.reshape(x.data.shape))

    return Tensor(out, (x,), back)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = np.transpose(x.data, axes)

    def back(g):
        _accumulate(x, np.transpose(g, inv))

    return Tensor(out, (x,), back)


def last_position(x: Tensor) -> Tensor:
    """Select index -1 along axis 1: (B, c, h) -> (B, h)."""
    out = np.ascontiguousarray(x.data[:, -1, :])

    def back(g):
        buf = np.zeros(x.data.shape, dtype=np.float64)
        buf[:, -1, :] = g
        _accumulate(x, buf)

    return Tensor(out, (x,), back)


def gather_rows(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup: table (n, d), idx any int shape -> (idx.shape + (d,))."""
    idx = np.asarray(idx)
    out = table.data[idx]

    def back(g):
        buf = np.zeros(table.data.shape, dtype=np.float64)
        # unbuffered scatter-add; index order is fixed so accumulation is deterministic
        np.add.at(buf, idx.ravel(), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, buf)

    return Tensor(out, (table,), back)


def take_per_row(x: Tensor, idx: np.ndarray) -> Tensor:
    """x (B, n), idx (B,) -> (B,) picking x[i, idx[i]]."""
    idx = np.asarray(idx)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]

    def back(g):
        buf = np.zeros(x.data.shape, dtype=np.float64)
        buf[rows, idx] = g
        _accumulate(x, buf)

    return Tensor(out, (x,), back)


def mean_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean(dtype=np.float64))

    def back(g):
        _accumulate(x, np.broadcast_to(g / x.data.size, x.data.shape))

    return Tensor(out.astype(x.data.dtype), (x,), back)


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) into every reachable Parameter's grad buffer.

    Traversal order is a fixed depth-first post-order, so gradient
    accumulation is deterministic. Node-level grads are float64 and freed
    before returning; Parameter.grad accumulates across calls until the next
    adam_step.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in topo:
        if node._param is not None and node.grad is not None:
            node._param.grad += node.grad
        node.grad = None


class Parameter:
    """A trainable tensor with its gradient buffer and Adam moment state.

    value/m/v share the model dtype; grad is float64 because fan-out gradient
    accumulation is a reduction. All state starts at zero except value.
    """

    __slots__ = ("value", "grad", "m", "v", "step_count")

    def __init__(self, data):
        arr = np.array(data, copy=True)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter init contains non-finite values")
        self.value = Tensor(arr)
        self.value._param = self
        self.grad = np.zeros(arr.shape, dtype=np.float64)
        self.m = np.zeros_like(arr)
        self.v = np.zeros_like(arr)
        self.step_count = 0

    @property
    def shape(self):
        return self.value.data.shape

    @property
    def size(self):
        return self.value.data.size


def adam_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """Bias-corrected Adam on every parameter; zeroes grads, bumps step_count."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    for p in params:
        t = p.step_count + 1
        dt = p.m.dtype.type
        g = p.grad.astype(p.m.dtype, copy=False)
        p.m *= dt(beta1)
        p.m += dt(1.0 - beta1) * g
        p.v *= dt(beta2)
        p.v += dt(1.0 - beta2) * (g * g)
        # correction scalars in float64, applied in the state dtype
        mhat = p.m / dt(1.0 - beta1 ** t)
        vhat = p.v / dt(1.0 - beta2 ** t)
        p.value.data -= dt(lr) * mhat / (np.sqrt(vhat) + dt(eps))
        p.grad.fill(0.0)
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
