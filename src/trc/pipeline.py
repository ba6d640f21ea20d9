"""The dynamic compression loop and the container file format.

One file becomes B contiguous lanes coded side by side into a single
arithmetic stream by one shared model. Each lane's first c*g bytes are
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

Container layout, version 3 (little-endian, fixed width, 50 bytes, payload
immediately after): magic "TRCE", version u8, hidden u16, ffn u16, group
u16, context u16, ffn_repeats u16, heads u16, lanes u16, lr f32,
controller u8, cache u16, seed u64, original_length u64, data crc32 u32
(of the original bytes), payload crc32 u32. Version 2 had the same layout
but trained with float64 accumulation, so its payloads do not replay here.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .coder import (MAX_OVERDRAW, Decoder, Encoder, ExhaustedStreamError,
                    QuantizedDistribution, UNIFORM, quantize)
from .controller import DecisionStats, LossCache, should_backprop
from .controller import skip_fraction as _skip_fraction
from .model import ModelConfig, TraceModel, backward, check_size, forward_probs, nll_loss
from .nn import adam_step

MAGIC = b"TRCE"
VERSION = 3
_HEADER = struct.Struct("<4sB7HfBHQQII")
HEADER_SIZE = _HEADER.size
CHUNK_STEPS = 256
# The likeliest symbol a quantized distribution allows has frequency
# 65536 - 255, so every symbol costs at least log2(65536/65281) ~= 0.005625
# bits of renormalization shifts; rounded down to allow for range rounding.
_MIN_SYMBOL_BITS = 0.0056


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


@dataclass(frozen=True)
class ContainerHeader:
    config: ModelConfig
    lanes: int
    lr: float
    controller_enabled: bool
    cache_capacity: int
    seed: int
    original_length: int
    data_checksum: int
    checksum: int

    def pack(self) -> bytes:
        c = self.config
        return _HEADER.pack(
            MAGIC, VERSION, c.hidden_dim, c.ffn_dim, c.group_size,
            c.context_len, c.shared_ffn_repeats, c.num_heads, self.lanes,
            self.lr, int(self.controller_enabled), self.cache_capacity,
            self.seed, self.original_length, self.data_checksum, self.checksum)

    @classmethod
    def unpack(cls, blob: bytes) -> tuple["ContainerHeader", bytes]:
        """Split a container into (header, payload), checking every field.

        Magic and version are rejected before anything else is trusted; a
        field no compress call could have written raises ContainerError.
        Payload integrity (checksum) is the caller's second gate."""
        if len(blob) >= 4 and blob[:4] != MAGIC:
            raise BadMagicError(f"not a container: magic {blob[:4]!r}")
        if len(blob) < HEADER_SIZE:
            raise TruncatedPayloadError(
                f"container is {len(blob)} bytes, header alone needs {HEADER_SIZE}")
        (_, version, h, ffn, g, c, n, heads, lanes, lr, ctrl, cache,
         seed, length, data_crc, crc) = _HEADER.unpack_from(blob)
        if version != VERSION:
            raise UnsupportedVersionError(f"container version {version}, expected {VERSION}")
        try:
            config = ModelConfig(hidden_dim=h, ffn_dim=ffn, group_size=g,
                                 context_len=c, shared_ffn_repeats=n, num_heads=heads)
            check_size(config)
        except ValueError as exc:
            raise ContainerError(f"bad model shape: {exc}") from exc
        if lanes < 1 or cache < 1:
            raise ContainerError(f"lanes {lanes} and cache {cache} must be positive")
        if not (math.isfinite(lr) and lr > 0.0):
            raise ContainerError(f"learning rate {lr!r} is not finite and positive")
        if ctrl > 1:
            raise ContainerError(f"controller flag {ctrl} is neither 0 nor 1")
        payload = blob[HEADER_SIZE:]
        if length > (8 * len(payload) + MAX_OVERDRAW) / _MIN_SYMBOL_BITS:
            raise TruncatedPayloadError(
                f"a {len(payload)}-byte payload cannot carry {length} bytes")
        header = cls(config=config, lanes=lanes, lr=lr,
                     controller_enabled=bool(ctrl), cache_capacity=cache,
                     seed=seed, original_length=length, data_checksum=data_crc,
                     checksum=crc)
        return header, payload


def segment_lanes(length: int, lanes: int) -> list[tuple[int, int]]:
    """Contiguous balanced partition of [0, length): the first length % lanes
    lanes are one byte longer. Lanes beyond the input are empty and inactive."""
    if lanes < 1:
        raise ValueError(f"need at least one lane, got {lanes}")
    base, extra = divmod(length, lanes)
    out = []
    off = 0
    for i in range(lanes):
        size = base + (1 if i < extra else 0)
        out.append((off, size))
        off += size
    return out


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
    totals are carried separately so bits always reconcile.

    Bits are the coder's renormalization shifts, which the encoder and the
    decoder make at the same symbols, so both directions report equal
    traces apart from wall time. The seal and byte padding after the last
    symbol go to the last chunk (to warm-up if no chunk ran), so the total
    is 8 x payload bytes."""

    chunk_steps: int
    warmup_bytes: int = 0
    warmup_bits: int = 0
    chunks: list = field(default_factory=list)

    @property
    def total_bytes_in(self) -> int:
        return self.warmup_bytes + sum(c.bytes_in for c in self.chunks)

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


class DistributionProbe:
    """Order-sensitive digest of every (distribution, symbol) pair the coder
    handles, plus the ideal cost of that pairing in bits.

    Lets a test prove the decoder saw the exact frequency sequence the
    encoder used without holding a million arrays in memory."""

    __slots__ = ("digest", "count", "cost_bits")

    def __init__(self):
        self.digest = 0
        self.count = 0
        self.cost_bits = 0.0

    def observe(self, q: QuantizedDistribution, sym: int) -> None:
        self.digest = zlib.crc32(q.freq.astype("<u4").tobytes() + bytes([sym]),
                                 self.digest)
        self.count += 1
        self.cost_bits += 16.0 - math.log2(int(q.freq[sym]))


@dataclass
class CompressResult:
    container: bytes
    metrics: StreamMetrics
    stats: DecisionStats

    @property
    def skip_fraction(self) -> float:
        return _skip_fraction(self.stats) if self.stats.decisions else 0.0


@dataclass
class DecompressResult:
    data: bytes
    stats: DecisionStats
    metrics: StreamMetrics


def _check_job_args(lanes, lr, cache_capacity, seed, chunk_steps):
    if not 1 <= lanes <= 0xFFFF:
        raise ValueError(f"lanes must be in [1, 65535], got {lanes}")
    if not lr > 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 1 <= cache_capacity <= 0xFFFF:
        raise ValueError(f"cache capacity must be in [1, 65535], got {cache_capacity}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    if chunk_steps < 1:
        raise ValueError(f"chunk_steps must be positive, got {chunk_steps}")


def _run(header: ContainerHeader, buf: np.ndarray, code, shifts, chunk_steps: int,
         probe: DistributionProbe | None) -> tuple[StreamMetrics, DecisionStats]:
    """The lane loop of both directions.

    `code(i, q)` codes byte i of the file under q and returns it: the
    encoder reads it from `buf`, the decoder decodes it into `buf`. A step's
    histories lie before its positions in the same lanes, so they are known
    to both sides. `shifts()` is the coder's renormalization shift count."""
    model = TraceModel(header.config, header.seed)
    params = model.parameters()
    cache = LossCache(header.cache_capacity)
    stats = DecisionStats()
    metrics = StreamMetrics(chunk_steps=chunk_steps)
    window = header.config.window
    segs = np.array(segment_lanes(header.original_length, header.lanes), dtype=np.int64)
    warm = np.minimum(segs[:, 1], window)
    starts = segs[:, 0] + warm
    main_lens = segs[:, 1] - warm

    for off, n in zip(segs[:, 0].tolist(), warm.tolist()):
        for i in range(off, off + n):
            sym = code(i, UNIFORM)
            if probe is not None:
                probe.observe(UNIFORM, sym)
    metrics.warmup_bytes = int(warm.sum())
    metrics.warmup_bits = shifts()

    cols = np.arange(-window, 0, dtype=np.int64)
    max_steps = int(main_lens.max())
    steps = coded = skipped = 0
    loss_sum = 0.0
    bits_mark, chunk_start = metrics.warmup_bits, time.perf_counter()
    for s in range(max_steps):
        pos = starts[main_lens > s] + s
        probs = forward_probs(model, buf[pos[:, None] + cols].astype(np.int64))
        for p, i in zip(probs, pos.tolist()):
            q = quantize(p)
            sym = code(i, q)
            if probe is not None:
                probe.observe(q, sym)
        e, dlogits = nll_loss(probs, buf[pos].astype(np.int64))
        update = should_backprop(cache, e) if header.controller_enabled else True
        stats.record(update)
        if update:
            backward(model, dlogits)
            adam_step(params, header.lr)
        steps += 1
        coded += len(pos)
        loss_sum += e
        skipped += not update
        if steps == chunk_steps or s == max_steps - 1:
            now, bits = time.perf_counter(), shifts()
            metrics.chunks.append(ChunkMetrics(
                steps=steps, bytes_in=coded, bits_out=bits - bits_mark,
                mean_loss=loss_sum / steps, skip_count=skipped,
                wall_s=now - chunk_start))
            steps = coded = skipped = 0
            loss_sum = 0.0
            bits_mark, chunk_start = bits, now
    return metrics, stats


def compress(data: bytes, config: ModelConfig = ModelConfig(), *,
             seed: int, lanes: int = 64, lr: float = 1e-3,
             controller: bool = False, cache_capacity: int = 16,
             chunk_steps: int = CHUNK_STEPS,
             probe: DistributionProbe | None = None) -> CompressResult:
    """Code `data` into a self-describing container.

    The stored learning rate is the float32 the header can carry, and the
    encoder optimizes with that exact value, so the decoder's replay is
    bit-identical."""
    _check_job_args(lanes, lr, cache_capacity, seed, chunk_steps)
    check_size(config)
    lr32 = float(np.float32(lr))
    if not lr32 > 0.0:
        raise ValueError(f"learning rate {lr} rounds to zero in float32")
    header = ContainerHeader(config=config, lanes=lanes, lr=lr32,
                             controller_enabled=controller,
                             cache_capacity=cache_capacity, seed=seed,
                             original_length=len(data),
                             data_checksum=zlib.crc32(data), checksum=0)
    enc = Encoder()

    def encode(i, q):
        enc.encode_symbol(data[i], q)
        return data[i]

    metrics, stats = _run(header, np.frombuffer(data, dtype=np.uint8), encode,
                          enc.shifts, chunk_steps, probe)
    payload = enc.finish() if data else b""
    metrics.add_trailer(8 * len(payload))
    header = replace(header, checksum=zlib.crc32(payload))
    return CompressResult(container=header.pack() + payload, metrics=metrics, stats=stats)


def decompress(container: bytes,
               probe: DistributionProbe | None = None) -> DecompressResult:
    """Invert compress: parse, verify the payload, re-seed, replay, then
    verify the decoded bytes. Metrics are chunked every CHUNK_STEPS steps."""
    header, payload = ContainerHeader.unpack(container)
    if zlib.crc32(payload) != header.checksum:
        raise ChecksumMismatchError(
            f"payload crc {zlib.crc32(payload):08x} != header {header.checksum:08x}")
    out = np.zeros(header.original_length, dtype=np.uint8)
    dec = Decoder(payload)

    def decode(i, q):
        out[i] = sym = dec.decode_symbol(q)
        return sym

    try:
        metrics, stats = _run(header, out, decode, dec.shifts, CHUNK_STEPS, probe)
    except ExhaustedStreamError as exc:
        raise TruncatedPayloadError(str(exc)) from exc
    metrics.add_trailer(8 * len(payload))
    data = out.tobytes()
    if zlib.crc32(data) != header.data_checksum:
        raise ChecksumMismatchError(
            f"decoded data crc {zlib.crc32(data):08x} != header {header.data_checksum:08x}")
    return DecompressResult(data=data, stats=stats, metrics=metrics)
