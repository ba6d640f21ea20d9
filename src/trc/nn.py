"""Array kernels for the model's one fixed graph, Adam, and
a counter-indexed SplitMix64 for the initial weights.

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


# Elementwise kernels that make many passes (adam_step, gelu_backward) walk
# their arrays in slices of this many elements, so every array a slice
# touches stays in cache across the passes: 256 KB each in float32.
SLICE = 1 << 16


def _slices(n: int):
    """(lo, hi) bounds that cut n elements into runs of SLICE."""
    for lo in range(0, n, SLICE):
        yield lo, min(lo + SLICE, n)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Tanh-approximation GELU: out = 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3))).

    t and out have x's shape and dtype. The tanh is written into t, which
    the caller keeps for gelu_backward, so the backward pass does not
    recompute it."""
    np.multiply(x, x, out=t)
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    gelu_from_tanh(x, t, out)


def gelu_from_tanh(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """out = 0.5*x*(1 + t), gelu's last three passes, given the tanh t that
    gelu(x, t) wrote; out may be t."""
    np.add(t, 1.0, out=out)
    out *= x
    out *= 0.5


def gelu_backward(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> None:
    """g *= gelu'(x), in place, given the pre-activation x and the tanh t
    that gelu(x, t) wrote.

    gelu'(x) = 0.5*(1 + t) + 0.5*x*(1 - t^2)*c*(1 + 3a*x^2)
             = (0.5 + 0.5*x*c*(1 + 3a*x^2)*(1 - t)) * (1 + t),
    with c = sqrt(2/pi) and a = 0.044715: ten passes, run slice by slice."""
    d = np.empty(min(x.size, SLICE), dtype=x.dtype)
    e = np.empty_like(d)
    xf, tf, gf = x.reshape(-1), t.reshape(-1), g.reshape(-1)
    for lo, hi in _slices(x.size):
        xs, ts, ds, es = xf[lo:hi], tf[lo:hi], d[:hi - lo], e[:hi - lo]
        np.multiply(xs, xs, out=ds)
        ds *= 1.5 * _GELU_A * _GELU_C
        ds += 0.5 * _GELU_C
        ds *= xs
        np.subtract(1.0, ts, out=es)
        ds *= es
        ds += 0.5
        np.add(ts, 1.0, out=es)
        ds *= es
        gf[lo:hi] *= ds


def softmax_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, max-subtracted, into out (a new array if
    None); out may be x.

    Entries are clamped up to the dtype's smallest normal, so every
    probability stays strictly positive (and its log finite) even for extreme
    logits; row sums stay within 1e-6 of 1."""
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return np.maximum(e, np.finfo(e.dtype).tiny, out=e)


def gather_rows(table: np.ndarray, idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row lookup: table (n, d), idx any int shape of row numbers in [0, n)
    -> (idx.shape + (d,)), into out (a new array if None).

    np.take copies the same rows as table[idx] with less per-call overhead
    than fancy indexing, which dominates at the model's small tables. Its
    default mode="raise" writes through a hidden copy of out; "clip" writes
    out directly and, for indices in range, clips nothing."""
    return np.take(table, idx, axis=0, out=out, mode="clip")


def scatter_rows(out: np.ndarray, idx: np.ndarray, g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Backward of gather_rows: out (n, d) becomes, and is returned as, the
    sum of the rows of g (idx.shape + (d,)) that idx sends to each row, and
    zero where idx never points. idx holds row numbers in [0, n); rows, of
    g's size and dtype, is scratch that takes g's rows in sorted order.

    A stable sort puts each row number's entries in one run, in input order,
    and np.add.reduceat sums every run; for uint8 idx the sort is one radix
    pass."""
    flat = idx.reshape(-1)
    order = np.argsort(flat, kind="stable")
    counts = np.bincount(flat, minlength=out.shape[0])
    present = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[present]
    rows = gather_rows(g.reshape(-1, out.shape[1]), order, rows.reshape(-1, out.shape[1]))
    out.fill(0.0)
    out[present] = np.add.reduceat(rows, starts, axis=0)
    return out


# Adam's hyperparameters (Kingma & Ba's defaults); the replay contract fixes them
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(value: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float) -> None:
    """Bias-corrected Adam step number t (counted from 1) on C-contiguous
    arrays of one shape and dtype, such as a weight's value and moments, in
    place; overwrites grad.

    The moments are stored unscaled, m~ = m / (1-b1) and v~ = v / (1-b2):

        m~ <- b1*m~ + g,    v~ <- b2*v~ + g^2.

    Textbook Adam (Kingma & Ba, section 2) steps by lr * mhat / (sqrt(vhat) + eps)
    with mhat = m / (1-b1^t) and vhat = v / (1-b2^t). Substituting, with
    r = sqrt((1-b2^t) / (1-b2)):

        lr * mhat / (sqrt(vhat) + eps) = k * m~ / (sqrt(v~) + eps'),
        k = lr * (1-b1) / (1-b1^t) * r,    eps' = eps * r,

    so every scale is folded into the two scalars k and eps', and each element
    takes ten passes: two for m~, three for v~ (one squares g), then sqrt, add
    eps', divide, scale by k and subtract from the value. They run slice by
    slice, and each slice of grad is the scratch of the later passes once
    m~ has read it; every pass is elementwise, so where the slices fall does
    not change a bit."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    r = math.sqrt((1.0 - BETA2 ** t) / (1.0 - BETA2))
    k = lr * (1.0 - BETA1) / (1.0 - BETA1 ** t) * r
    eps_t = EPS * r
    value, grad, m, v = (a.reshape(-1) for a in (value, grad, m, v))
    for lo, hi in _slices(value.size):
        g, mi, vi = grad[lo:hi], m[lo:hi], v[lo:hi]
        mi *= BETA1
        mi += g
        vi *= BETA2
        np.multiply(g, g, out=g)
        vi += g
        np.sqrt(vi, out=g)
        g += eps_t
        np.divide(mi, g, out=g)
        g *= k
        value[lo:hi] -= g


def fill_uniform(seed: int, first: int, n: int, lo: float, hi: float) -> np.ndarray:
    """Draws first .. first+n-1 of the SplitMix64 stream seeded with `seed`,
    each as (u64 >> 11) * 2^-53 scaled into [lo, hi), in a new float64 array.

    SplitMix64's state after draw i is seed + (i+1)*gamma mod 2^64, and the
    output mixes that state alone, so any run of draws is computed directly,
    elementwise, with the same bits on every platform. The format fixes gamma
    at 0x9E3779B97F4E1C15, which is not the reference code's ...4A7C15."""
    if not lo < hi:
        raise ValueError(f"empty range: lo={lo!r} must be < hi={hi!r}")
    # z and t are the only arrays: the mixing runs in place in z, t takes each
    # shifted copy and, at the end, becomes the float64 result. uint64 array
    # arithmetic wraps mod 2^64.
    z = np.arange(first + 1, first + n + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4E1C15)
    z += np.uint64(seed & _MASK64)
    t = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    z >>= np.uint64(11)
    r = np.multiply(z, 2.0 ** -53, out=t.view(np.float64))
    r *= hi - lo
    r += lo
    np.minimum(r, math.nextafter(hi, -math.inf), out=r)
    return r
