"""Per-layer measurement: spans recorded around calls into `trc`, their
summary, and the counts computed from a model config.

Spans are recorded from the benchmark's own code by swapping the module
attributes through which `trc.pipeline` and `trc.model` reach each layer
(`trc` itself carries no tracing hooks). All spans stay in memory until the
run ends. A span's self time is its duration minus that of its children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import inspect
import time

import numpy as np

# Which block of the forward pass an nn op call belongs to, keyed by the
# weight it multiplies (or adds). Ops that touch no weight belong to the block
# of the most recent weight, which follows the order forward_probs runs in.
WEIGHT_BLOCKS = {
    "byte_embedding": "model.embed",
    "positional_embedding": "model.embed",
    "wk": "model.kv",
    "wv": "model.kv",
    "wq": "model.attn",
    "wo": "model.attn",
    "w1": "model.ffn",
    "w2": "model.ffn",
    "output_head": "model.head",
}

# Spans summarised per direction. The block spans are the forward time
# attributed by WEIGHT_BLOCKS; nn.gelu nests inside a model.ffn span.
SPANS = ("model.forward_probs", "model.embed", "model.kv", "model.attn",
         "model.ffn", "model.head", "model.nll_loss", "nn.gelu",
         "nn.backward", "nn.adam_step", "coder.quantize")
CODER_SPAN = {"compress": "coder.encode_symbol", "decompress": "coder.decode_symbol"}
ROOT_SPAN = {"compress": "pipeline.compress", "decompress": "pipeline.decompress"}


class Tracer:
    """In-memory span log: name, start, end and parent index per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def open_spans(self) -> int:
        return len(self._stack) - 1

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))


class _Blocks:
    """Attributes each nn op that forward_probs calls to a model block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.weights: dict[int, int] = {}
        self.current = tracer.name("model.embed")
        self.active = False

    def forward(self, fn):
        traced = self.tracer.wrap("model.forward_probs", fn)

        def forward_probs(model, *args, **kwargs):
            self.weights = {id(getattr(model, w).value): self.tracer.name(block)
                            for w, block in WEIGHT_BLOCKS.items()}
            self.current = self.tracer.name("model.embed")
            self.active = True
            try:
                return traced(model, *args, **kwargs)
            finally:
                self.active = False

        return forward_probs

    def op(self, fn):
        def op(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            for a in args[:2]:
                nid = self.weights.get(id(a))
                if nid is not None:
                    self.current = nid
                    break
            i = self.tracer.open(self.current)
            try:
                return fn(*args, **kwargs)
            finally:
                self.tracer.close(i)

        return op


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every layer call of trc.pipeline and trc.model through spans
    for the duration of the block. Attributes missing from the package under
    test are left alone, so their spans report zero calls."""
    import trc.coder
    import trc.model
    import trc.nn
    import trc.pipeline

    blocks = _Blocks(tracer)
    patches = []

    def patch(owner, attr, make):
        if hasattr(owner, attr):
            original = getattr(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, make(original))

    patch(trc.pipeline, "forward_probs", blocks.forward)
    for attr, name in (("nll_loss", "model.nll_loss"), ("backward", "nn.backward"),
                       ("adam_step", "nn.adam_step"), ("quantize", "coder.quantize")):
        patch(trc.pipeline, attr, lambda fn, name=name: tracer.wrap(name, fn))
    patch(trc.coder.Encoder, "encode_symbol",
          lambda fn: tracer.wrap("coder.encode_symbol", fn))
    patch(trc.coder.Decoder, "decode_symbol",
          lambda fn: tracer.wrap("coder.decode_symbol", fn))
    for attr, value in list(vars(trc.model).items()):
        if inspect.isfunction(value) and value.__module__ == trc.nn.__name__:
            if attr == "gelu":
                patch(trc.model, attr, lambda fn: blocks.op(tracer.wrap("nn.gelu", fn)))
            else:
                patch(trc.model, attr, blocks.op)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per direction: round trips traced, root self time and, per span name,
    the durations of its calls. Also returns every nesting violation found."""
    ids = np.array(tracer.name_id, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    dur = end - start
    problems = []
    if tracer.open_spans():
        problems.append(f"{tracer.open_spans()} spans never closed")
    child = parent >= 0
    if np.any(dur < 0):
        problems.append(f"{int(np.sum(dur < 0))} spans end before they start")
    outside = child.copy()
    outside[child] = ((start[child] < start[parent[child]])
                      | (end[child] > end[parent[child]]))
    if np.any(outside):
        problems.append(f"{int(outside.sum())} spans fall outside their parent")
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[child], dur[child])
    self_time = dur - covered
    if np.any(self_time < -1e-9):
        problems.append(f"{int(np.sum(self_time < -1e-9))} spans have negative self time")

    root = np.where(child, parent, np.arange(len(ids)))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt

    out = {}
    for direction, root_name in ROOT_SPAN.items():
        rid = tracer._ids.get(root_name, -1)
        in_dir = ids[root] == rid
        roots = in_dir & ~child
        spans = {}
        for name in SPANS + (CODER_SPAN[direction],):
            sel = in_dir & (ids == tracer._ids.get(name, -1))
            spans[name] = dur[sel]
        out[direction] = {"round_trips": int(roots.sum()),
                          "wall_s": float(dur[roots].sum()),
                          "self_s": float(self_time[roots].sum()),
                          "spans": spans}
    return out, problems


def flops_per_step(config, lanes: int) -> int:
    """Matmul FLOPs of one full-width step (every lane active) with an
    update: the forward products plus the two products of each backward.
    Elementwise work is not counted."""
    b, c, h = lanes, config.context_len, config.hidden_dim
    f, n, vocab = config.ffn_dim, config.shared_ffn_repeats, 256
    forward = 2 * b * (2 * c * h * h      # K and V over every position
                       + 2 * h * h        # Q and W_O for the last position
                       + 2 * c * h        # scores and the weighted sum of V
                       + 2 * n * h * f    # the shared FFN, applied n times
                       + h * vocab)       # output head
    return 3 * forward


def adam_bytes_per_step(param_count: int) -> int:
    """Bytes one Adam step moves: for each parameter, the float64 grad read
    and zeroed, and the float32 first moment, second moment and value each
    read and written. Temporaries are not counted."""
    return param_count * (8 + 8 + 3 * (4 + 4))
