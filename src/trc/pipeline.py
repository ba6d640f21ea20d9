"""The dynamic compression loop and the container file format.

One file becomes B contiguous lanes coded side by side into a single
range-coded stream by one shared model. Each lane's first c*g bytes are
coded uniformly (the model needs that much history before it can speak);
after that, every global step codes one byte per active lane with the
model's pre-update prediction, then the mean loss across lanes gates one
optimizer step. Compress and decompress run this one loop, differing only
in whether a byte is encoded from the input or decoded into the output,
so the model trajectories match and no weights are ever stored.

Replay contract: decoding repeats the encoder's float computation bit for
bit only on the same numpy/BLAS build and kernel family. The model trains
in float32 with plain sgemm, whose blocking and summation order are the
kernel's own, so another kernel family (say, AVX2 against AVX-512) can round
differently. Where that breaks, the decoded bytes fail the data checksum
and decompress raises ChecksumMismatchError; it never returns wrong bytes.
The BLAS thread count is outside the contract on this build (numpy 2.4.6,
OpenBLAS 0.3.31): the paper default over 64 lanes gives the same container
with 1 and with 2 threads, which the tests check. OpenBLAS does not promise
this; a build whose threads split the sums inside one output would break it.

Container layout, version 6 (little-endian, fixed width, 48 bytes, payload
immediately after): magic "TRCE", version u8, hidden u16, ffn u16, group
u16, context u16, ffn_repeats u16, heads u16, lanes u16, lr f32,
controller u8, seed u64, original_length u64, data crc32 u32 (of the
original bytes), then one crc32 u32 of the 44 bytes before it and the
payload, which is the byte-wise range coder's output (see coder.py). unpack
accepts this version only, and a damaged header fails its crc before replay.

A header can ask only for what the decoder is able to hold: a model of at
most MAX_PARAMETERS parameters, train steps that hold at most
MAX_STEP_FLOATS floats, and no more bytes than its payload can carry.
ContainerHeader.check is the only validator of a job, types included (a
ModelConfig checks nothing itself). compress and unpack both call it, so
compress refuses up front any job whose container unpack would refuse.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from collections import deque
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .coder import Decoder, Encoder, ExhaustedStreamError, UNIFORM, max_symbols, quantize
from .model import ModelConfig, TraceModel, backward, check_model, forward_probs, nll_loss
from .nn import adam_step

MAGIC = b"TRCE"
VERSION = 6
_HEADER = struct.Struct("<4sB7HfBQQI")
HEADER_SIZE = _HEADER.size + 4  # the fields, then the frame's crc32
CHUNK_STEPS = 256
LOSS_CACHE = 16


class ContainerError(ValueError):
    """Base for every malformed-container complaint."""


class BadMagicError(ContainerError):
    pass


class UnsupportedVersionError(ContainerError):
    pass


class ChecksumMismatchError(ContainerError):
    pass


class TruncatedPayloadError(ContainerError):
    pass


class ModelOverflowError(ContainerError):
    """The replayed model's float arithmetic overflowed or went NaN.

    compress stops with FloatingPointError at the same operation and writes
    nothing, so only a forged header that carries a correct crc (say, with a
    huge lr or a deep shared FFN) leads here."""


@dataclass(frozen=True)
class ContainerHeader:
    """The header after magic and version. Its fields, with the config's
    fields in place of config, are the wire fields in wire order."""

    config: ModelConfig
    lanes: int
    lr: float
    controller_enabled: bool
    seed: int
    original_length: int
    data_checksum: int

    def pack(self, payload: bytes) -> bytes:
        """The whole container: header fields, frame crc32, payload."""
        head = _HEADER.pack(MAGIC, VERSION, *astuple(self.config), *astuple(self)[1:])
        return head + zlib.crc32(payload, zlib.crc32(head)).to_bytes(4, "little") + payload

    def check(self) -> None:
        """Raise ValueError unless decompress can replay this header. compress
        and unpack both call it, and no other code decides which jobs are
        legal. Each model field and lanes is an int (a bool is not) in
        [1, 65535], the controller flag is 0 or 1, the seed is an int in
        [0, 2^64), lr is finite and positive, and the model passes check_model
        over the lanes that run main-loop steps: those of lane_layout longer
        than one window."""
        c = self.config
        for name, v in (*asdict(c).items(), ("lanes", self.lanes)):
            if not _is_int_in(v, 1, 1 << 16):
                raise ValueError(f"{name} must be an int in [1, 65535], got {v!r}")
        ctrl = self.controller_enabled
        if not isinstance(ctrl, int) or ctrl not in (0, 1):
            raise ValueError(f"controller flag {ctrl!r} is neither 0 nor 1")
        if not _is_int_in(self.seed, 0, 1 << 64):
            raise ValueError(f"seed must be an int in [0, 2^64), got {self.seed!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"learning rate {self.lr!r} is not finite and positive")
        _, sizes = lane_layout(self.original_length, self.lanes)
        check_model(c, int((sizes > c.window).sum()))

    @classmethod
    def unpack(cls, blob: bytes) -> tuple["ContainerHeader", bytes]:
        """Split a container into (header, payload), checking every field.

        Magic, length and version come first, then the frame's crc32: any
        damage raises ChecksumMismatchError before a field is trusted. A
        forger can compute a crc, so a header that fails check() still
        raises ContainerError."""
        if len(blob) >= 4 and blob[:4] != MAGIC:
            raise BadMagicError(f"not a container: magic {blob[:4]!r}")
        if len(blob) < HEADER_SIZE:
            raise TruncatedPayloadError(
                f"container is {len(blob)} bytes, header alone needs {HEADER_SIZE}")
        _, version, *wire = _HEADER.unpack_from(blob)
        if version != VERSION:
            raise UnsupportedVersionError(f"container version {version}, expected {VERSION}")
        payload = blob[HEADER_SIZE:]
        crc = zlib.crc32(payload, zlib.crc32(blob[:_HEADER.size])).to_bytes(4, "little")
        if crc != blob[_HEADER.size:HEADER_SIZE]:
            raise ChecksumMismatchError("the container's crc32 does not match its bytes")
        k = len(fields(ModelConfig))
        header = cls(ModelConfig(*wire[:k]), *wire[k:])
        # before check(), whose lane layout needs a length that fits int64
        if header.original_length > max_symbols(len(payload)):
            raise TruncatedPayloadError(
                f"a {len(payload)}-byte payload cannot carry {header.original_length} bytes")
        try:
            header.check()
        except ValueError as exc:
            raise ContainerError(f"bad header: {exc}") from exc
        return header, payload


def _is_int_in(v, lo: int, hi: int) -> bool:
    """v is an int in [lo, hi); a bool does not count."""
    return isinstance(v, int) and not isinstance(v, bool) and lo <= v < hi


def lane_layout(length: int, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """The lanes' (starts, sizes), two int64 arrays: a contiguous balanced
    partition of [0, length) in which the first length % lanes lanes are one
    byte longer. Lanes past the input are empty, and sizes never rise, so
    the lanes longer than any given size are a prefix."""
    base, extra = divmod(length, lanes)
    sizes = np.full(lanes, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.cumsum(sizes) - sizes, sizes


@dataclass
class ChunkMetrics:
    steps: int
    bytes_in: int
    bits_out: int
    mean_loss: float
    skip_count: int
    wall_s: float


@dataclass
class StreamMetrics:
    """Per-chunk trace of a job; chunks cover main-loop steps only, warm-up
    totals are carried separately so bits always reconcile. Every chunk but
    the last is CHUNK_STEPS steps, in both directions.

    Bits are the coder's renormalization shifts, which the encoder and the
    decoder make at the same symbols, so both directions report equal
    traces apart from wall time. The seal and byte padding after the last
    symbol go to the last chunk (to warm-up if no chunk ran), so the total
    is 8 x payload bytes."""

    warmup_bytes: int = 0
    warmup_bits: int = 0
    chunks: list = field(default_factory=list)

    @property
    def total_bits_out(self) -> int:
        return self.warmup_bits + sum(c.bits_out for c in self.chunks)

    def add_trailer(self, payload_bits: int) -> None:
        """Credit the bits after the last symbol so the total is payload_bits."""
        extra = payload_bits - self.total_bits_out
        if self.chunks:
            self.chunks[-1].bits_out += extra
        else:
            self.warmup_bits += extra


class DecisionStats(NamedTuple):
    """Main-loop steps, and how many of them the gate skipped."""

    decisions: int
    skipped: int


@dataclass
class _Result:
    """What both directions report: the trace, and the gate's decisions
    summed from it."""

    metrics: StreamMetrics

    @property
    def stats(self) -> DecisionStats:
        return DecisionStats(sum(c.steps for c in self.metrics.chunks),
                             sum(c.skip_count for c in self.metrics.chunks))

    @property
    def skip_fraction(self) -> float:
        decisions, skipped = self.stats
        return skipped / decisions if decisions else 0.0


@dataclass
class CompressResult(_Result):
    container: bytes


@dataclass
class DecompressResult(_Result):
    data: bytes


@np.errstate(over="raise", invalid="raise", divide="raise")
def _run(header: ContainerHeader, buf: np.ndarray, code, shifts) -> StreamMetrics:
    """The lane loop of both directions.

    `code(i, cum)` codes byte i of the file under the cumulative
    frequencies cum: the encoder reads it from `buf`, the decoder decodes it
    into `buf`. Warm-up codes each lane's first `window` bytes uniformly, in
    lane order. Main-loop step s then codes byte offset s of every lane
    longer than s; lane_layout puts those lanes first, so the active lanes
    are a prefix that only shrinks. A step's histories lie before its
    positions in the same lanes, so they are known to both sides. Each
    lane's byte is coded under quantize of its float32 row of the step's
    probabilities, the array that backward later consumes.
    `shifts()` is the coder's renormalization shift count. The model is
    built only if some lane outlasts its warm-up. A float overflow or NaN
    raises FloatingPointError where it happens, which is the same operation
    in both directions.

    With the controller on, a step updates the model only if its loss
    exceeds the mean of the last LOSS_CACHE losses: ties skip, and an
    empty cache updates. Every loss then enters the cache. An update counts
    the step first, then runs backward on the step's bytes, whose callback
    takes one Adam step on each weight as soon as its gradient is final, so
    the step holds one weight's gradient at a time."""
    metrics = StreamMetrics()
    window = header.config.window
    starts, sizes = lane_layout(header.original_length, header.lanes)
    for start, size in zip(starts.tolist(), sizes.tolist()):
        for i in range(start, start + min(size, window)):
            code(i, UNIFORM)
    metrics.warmup_bytes = int(np.minimum(sizes, window).sum())
    metrics.warmup_bits = shifts()

    end = int(sizes.max())
    if end <= window:
        return metrics
    model = TraceModel(header.config, header.seed)

    def update_weight(w, grad):
        adam_step(w.value, grad, w.m, w.v, model.steps, header.lr)

    cache = deque(maxlen=LOSS_CACHE)
    cols = np.arange(-window, 0, dtype=np.int64)
    for first in range(window, end, CHUNK_STEPS):
        last = min(first + CHUNK_STEPS, end)
        bits, updates, loss_sum, t0 = shifts(), model.steps, 0.0, time.perf_counter()
        for s in range(first, last):
            pos = starts[sizes > s] + s
            probs = forward_probs(model, buf[pos[:, None] + cols])
            for p, i in zip(probs, pos.tolist()):
                code(i, quantize(p))
            e = nll_loss(probs, buf[pos])
            loss_sum += e
            update = True
            if header.controller_enabled:
                update = not cache or e > math.fsum(cache) / len(cache)
                cache.append(e)
            if update:
                model.steps += 1
                backward(model, buf[pos], update_weight)
        metrics.chunks.append(ChunkMetrics(
            steps=last - first, bytes_in=int((np.clip(sizes, first, last) - first).sum()),
            bits_out=shifts() - bits, mean_loss=loss_sum / (last - first),
            skip_count=last - first - (model.steps - updates),
            wall_s=time.perf_counter() - t0))
    return metrics


def compress(data: bytes, config: ModelConfig = ModelConfig(), *,
             seed: int = 0, lanes: int = 64, lr: float = 1e-3,
             controller: bool = False) -> CompressResult:
    """Code `data` into a self-describing container.

    The stored learning rate is the float32 the header can carry, and the
    encoder optimizes with that exact value, so the decoder's replay is
    bit-identical. Raises ValueError before coding a byte if the header
    fails ContainerHeader.check, and FloatingPointError, writing nothing,
    if training overflows float32 (say, with a very large lr)."""
    with np.errstate(over="ignore"):
        lr32 = float(np.float32(lr))
    header = ContainerHeader(config=config, lanes=lanes, lr=lr32,
                             controller_enabled=controller, seed=seed,
                             original_length=len(data), data_checksum=zlib.crc32(data))
    header.check()
    enc = Encoder()

    def encode(i, cum):
        enc.encode_symbol(data[i], cum)

    metrics = _run(header, np.frombuffer(data, dtype=np.uint8), encode, enc.shifts)
    payload = enc.finish() if data else b""
    metrics.add_trailer(8 * len(payload))
    return CompressResult(container=header.pack(payload), metrics=metrics)


def decompress(container: bytes) -> DecompressResult:
    """Invert compress: parse and verify the frame, re-seed, replay, then
    verify the decoded bytes."""
    header, payload = ContainerHeader.unpack(container)
    out = np.zeros(header.original_length, dtype=np.uint8)
    dec = Decoder(payload)

    def decode(i, cum):
        out[i] = dec.decode_symbol(cum)

    try:
        metrics = _run(header, out, decode, dec.shifts)
    except ExhaustedStreamError as exc:
        raise TruncatedPayloadError(str(exc)) from exc
    except FloatingPointError as exc:
        raise ModelOverflowError(f"replayed model overflowed: {exc}") from exc
    metrics.add_trailer(8 * len(payload))
    data = out.tobytes()
    if zlib.crc32(data) != header.data_checksum:
        raise ChecksumMismatchError(
            f"decoded data crc {zlib.crc32(data):08x} != header {header.data_checksum:08x}")
    return DecompressResult(data=data, metrics=metrics)
