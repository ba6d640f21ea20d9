"""Reference implementations the production code is checked against.

`OrderOneCounts` keeps the warm-up's count rows as `pipeline` defines them,
one frequency list per row. `splitmix64` is the one scalar SplitMix64
stream: `nn.fill_uniform` computes any run of its draws directly, and
`rng_uniform` turns one draw into a float the way fill_uniform does.
`TextbookAdam` is the update `nn.adam_step` rearranges. The full-sequence
transformer layer evaluates every position the way the model is defined, in
plain float64 numpy with its own GELU and softmax; `model.forward_probs`
computes only what reaches the last position's prediction and must agree
with it there. `grads_of` is the one
way tests read the gradients `model.backward` hands over, and `weight_of`
names the weight of each hand-over.
"""

from __future__ import annotations

import math

import numpy as np

from trc.model import TraceModel, backward, forward_probs, weight_shapes


class OrderOneCounts:
    """The warm-up's adaptive order-1 counts: 256 frequencies per row, row b
    for the byte after a byte b and row 256 for a lane's first byte, each
    frequency starting at 1. Coding a byte adds `step` to its frequency in
    the row that coded it; if that would take the row's total past `limit`,
    every frequency of the row first halves, rounding up. `halvings` counts
    those."""

    def __init__(self, step: int = 32, limit: int = 1 << 16):
        self.freq = [[1] * 256 for _ in range(257)]
        self.step, self.limit, self.halvings = step, limit, 0

    def cum(self, row: int) -> list[int]:
        """The row's 257 cumulative frequencies, from 0."""
        out = [0]
        for f in self.freq[row]:
            out.append(out[-1] + f)
        return out

    def update(self, row: int, byte: int) -> None:
        freq = self.freq[row]
        if sum(freq) + self.step > self.limit:
            freq[:] = [(f + 1) // 2 for f in freq]
            self.halvings += 1
        freq[byte] += self.step

    def warm_up(self, data: bytes, starts, sizes):
        """Each (table, byte) pair the warm-up codes, in coding order: the
        first sizes[k] bytes of each lane k, lane by lane."""
        for start, size in zip(starts, sizes):
            row = 256
            for byte in data[start:start + size]:
                yield self.cum(row), byte
                self.update(row, byte)
                row = byte


def splitmix64(seed: int, gamma: int = 0x9E3779B97F4A7C15):
    """SplitMix64 (Steele, Lea & Flood 2014): endless 64-bit draws from one
    64-bit word of state, the same on every platform. `gamma` is the state
    increment, by default the reference code's; any odd one keeps the period
    at 2^64."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def rng_uniform(draws, lo: float, hi: float) -> float:
    """The next draw of a splitmix64 stream as a float in [lo, hi)."""
    if not lo < hi:
        raise ValueError(f"empty range: lo={lo!r} must be < hi={hi!r}")
    u = (next(draws) >> 11) * 2.0 ** -53
    r = lo + (hi - lo) * u
    if r >= hi:  # float rounding can hit the open bound on tiny ranges
        r = math.nextafter(hi, -math.inf)
    return r


class TextbookAdam:
    """Adam as Kingma & Ba write it, in float64: moments scaled by (1 - beta)
    and bias-corrected before the step."""

    def __init__(self, value, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.value = np.array(value, dtype=np.float64)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.t = 0
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps

    def step(self, grad) -> None:
        b1, b2 = self.beta1, self.beta2
        self.t += 1
        self.m = b1 * self.m + (1.0 - b1) * grad
        self.v = b2 * self.v + (1.0 - b2) * grad * grad
        mhat = self.m / (1.0 - b1 ** self.t)
        vhat = self.v / (1.0 - b2 ** self.t)
        self.value = self.value - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory: a itself, or the base of a view."""
    return a if a.base is None else a.base


def weight_of(model: TraceModel):
    """A function from a Weight that backward hands over, the model's own or
    a block of row views of it, to that weight's name and the block's first
    row. A block is found by the array that owns its value's memory."""
    values = {}
    for name in weight_shapes(model.config):
        value = getattr(model, name).value
        values[id(_owner(value))] = name, value

    def find(weight) -> tuple[str, int]:
        name, value = values[id(_owner(weight.value))]
        return name, (weight.value.ctypes.data - value.ctypes.data) // value.strides[0]

    return find


def grads_of(model: TraceModel, targets, handed: list | None = None) -> dict[str, np.ndarray]:
    """Every weight's gradient from one backward call on the last forward
    pass and its targets, by weight name in the order backward hands them
    over, each weight's blocks joined in the order they arrive. The
    recording callback copies each gradient, which backward hands over in
    one reused buffer, and leaves the weights as they are. If `handed` is a
    list, each hand-over appends (name, first row, gradient size) to it."""
    find = weight_of(model)
    blocks = {}

    def record(weight, grad):
        name, row = find(weight)
        blocks.setdefault(name, []).append(grad.copy())
        if handed is not None:
            handed.append((name, row, grad.size))

    backward(model, targets, record)
    return {name: np.concatenate(parts) for name, parts in blocks.items()}


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
