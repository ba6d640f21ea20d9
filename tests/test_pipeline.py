"""End-to-end loop and container contracts.

The defining property is round-trip identity, or else a ContainerError;
around it sit the header frame, lane geometry, a record of every coded
(distribution, symbol) pair proving encoder and decoder saw identical
sequences, equal metrics in both directions, and bit conservation in the
metrics.
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_text, traced_peak
from oracles import OrderOneCounts
import trc
from trc.coder import Decoder, Encoder
from trc.model import (GRAD_BLOCK, MAX_PARAMETERS, MAX_STEP_FLOATS, ModelConfig, TraceModel,
                       Weight, backward, check_model, forward_probs, nll_loss, parameter_count,
                       weight_shapes)
from trc.nn import adam_step
from trc.pipeline import (
    BadMagicError,
    ChecksumMismatchError,
    ContainerError,
    ContainerHeader,
    HEADER_SIZE,
    MAGIC,
    ModelOverflowError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    VERSION,
    _HEADER,
    compress,
    decompress,
    lane_layout,
)

SMALL = ModelConfig(hidden_dim=16, ffn_dim=24, group_size=2, context_len=3,
                    shared_ffn_repeats=2, num_heads=2)  # window 6
TINY = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)  # window 32
ODD = ModelConfig(hidden_dim=12, ffn_dim=20, group_size=3, context_len=3,
                  shared_ffn_repeats=2, num_heads=3)  # the golden odd-shape config


def roundtrip(data, config=SMALL, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("lanes", 4)
    res = compress(data, config, **kw)
    out = decompress(res.container)
    return res, out


def seal(blob, payload):
    """The header fields in blob's bytes, magic and version aside, packed
    over payload with ContainerHeader.pack: the frame's CRC then matches, so
    a forged field or payload reaches the checks after it."""
    _, _, *wire = _HEADER.unpack_from(blob)
    k = len(dataclasses.fields(ModelConfig))
    return ContainerHeader(ModelConfig(*wire[:k]), *wire[k:]).pack(payload)


def _watch_forward_probs(monkeypatch):
    """The list to which each later call of trc.pipeline.forward_probs appends its lane count."""
    calls = []
    real_forward_probs = trc.pipeline.forward_probs

    def watched(model, histories):
        calls.append(len(histories))
        return real_forward_probs(model, histories)

    monkeypatch.setattr(trc.pipeline, "forward_probs", watched)
    return calls


def without_wall_time(metrics):
    return dataclasses.replace(
        metrics, warmup_s=0.0,
        chunks=[dataclasses.replace(c, wall_s=0.0) for c in metrics.chunks])


# ---------------------------------------------------------------------------
# lane geometry


def layout(length, lanes):
    """lane_layout as a list of (start, size) pairs."""
    starts, sizes = lane_layout(length, lanes)
    assert starts.dtype == sizes.dtype == np.int64
    return list(zip(starts.tolist(), sizes.tolist()))


def test_lane_layout_balanced_example():
    assert layout(10, 3) == [(0, 4), (4, 3), (7, 3)]


def test_lane_layout_single_lane():
    assert layout(999, 1) == [(0, 999)]


def test_lane_layout_more_lanes_than_bytes():
    assert layout(3, 5) == [(0, 1), (1, 1), (2, 1), (3, 0), (3, 0)]


def test_lane_layout_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(0, 5000))
        b = int(rng.integers(1, 70))
        segs = layout(n, b)
        assert len(segs) == b
        cursor = 0
        for off, size in segs:
            assert off == cursor
            cursor += size
        assert cursor == n
        sizes = [s for _, s in segs]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes


@pytest.mark.parametrize("length", [26, 27], ids=["sizes-7766", "sizes-7776"])
def test_lanes_that_straddle_the_window_run_one_step(monkeypatch, length):
    # SMALL's window is 6: four lanes of 7,7,6,6 or 7,7,7,6 bytes run one
    # main-loop step, over the lanes longer than the window, in both directions
    rows = _watch_forward_probs(monkeypatch)
    data = synthetic_text(length, seed=length)
    res = compress(data, SMALL, seed=3, lanes=4)
    assert rows == [length - 24]
    rows.clear()
    assert decompress(res.container).data == data
    assert rows == [length - 24]


# ---------------------------------------------------------------------------
# container frame


def test_header_packs_to_fixed_size_and_roundtrips():
    header = ContainerHeader(config=SMALL, lanes=4, lr=float(np.float32(0.001)),
                             controller_enabled=True, seed=0xDEADBEEFCAFE,
                             original_length=123456, data_checksum=0x55667788)
    blob = header.pack(b"xyz" * 1000)
    assert HEADER_SIZE == 48
    assert blob[:5] == MAGIC + bytes([VERSION]) and VERSION == 7
    # one CRC-32 seals the 44 bytes before it and the payload after it
    assert blob[44:48] == zlib.crc32(blob[:44] + blob[48:]).to_bytes(4, "little")
    parsed, payload = ContainerHeader.unpack(blob)
    assert parsed == header
    assert payload == b"xyz" * 1000


def test_header_learning_rate_is_exact_float32():
    res, _ = roundtrip(b"some bytes here", lr=0.001)
    header, _ = ContainerHeader.unpack(res.container)
    assert header.lr == float(np.float32(0.001))


def test_unpack_rejects_bad_magic():
    good = compress(b"hello world", SMALL, seed=1, lanes=2).container
    with pytest.raises(BadMagicError):
        ContainerHeader.unpack(b"NOPE" + good[4:])
    with pytest.raises(BadMagicError):
        decompress(b"GZIP" + good[4:])


def test_unpack_rejects_unsupported_version():
    good = bytearray(compress(b"hello world", SMALL, seed=1, lanes=2).container)
    for version in (1, 2, 3, 4, 5, 6, 99):
        good[4] = version
        with pytest.raises(UnsupportedVersionError):
            decompress(bytes(good))


_FIELD = {"hidden": 2, "group": 4, "lanes": 8, "lr": 9, "controller": 10, "length": 12}


@pytest.mark.parametrize("field, value", [
    ("lanes", 0), ("hidden", 0), ("hidden", 15), ("group", 0),
    ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
    ("controller", 2), ("length", 1 << 62), ("length", 80_000),
    ("hidden", 65534),  # a valid shape of about 1.7e10 parameters
])
def test_unpack_rejects_bad_header_fields(field, value):
    # sealed under a matching CRC, the forged field reaches the check that
    # refuses it: the payload bound for a length, check() for the rest
    good = compress(b"hello world", SMALL, seed=1, lanes=2).container
    fields = list(_HEADER.unpack_from(good))
    fields[_FIELD[field]] = value
    with pytest.raises(ContainerError) as exc:
        decompress(seal(_HEADER.pack(*fields), good[HEADER_SIZE:]))
    assert exc.type is (TruncatedPayloadError if field == "length" else ContainerError)


# A one-byte window and a 65535-wide FFN over 65535 two-byte lanes: about
# 131K parameters, but a first step of 4.3G floats (17 GB) per FFN array.
WIDE_STEP = ModelConfig(hidden_dim=1, ffn_dim=65535, group_size=1, context_len=1,
                        shared_ffn_repeats=1, num_heads=1)


def test_step_size_is_bounded_from_the_header():
    length = 2 * 65535
    assert parameter_count(WIDE_STEP) < MAX_PARAMETERS
    assert 65535 * 3 * 65535 > MAX_STEP_FLOATS
    header = ContainerHeader(config=WIDE_STEP, lanes=65535, lr=0.5,
                             controller_enabled=False, seed=0,
                             original_length=length, data_checksum=0)
    with pytest.raises(ContainerError, match="floats"):
        ContainerHeader.unpack(header.pack(bytes(70_000)))
    with pytest.raises(ValueError, match="floats"):
        compress(bytes(length), WIDE_STEP, seed=0, lanes=65535)
    # the same header over fewer lanes, and the paper default at 64 lanes
    # over a megabyte, pass
    for config, lanes in ((WIDE_STEP, 64), (ModelConfig(), 64)):
        ok = dataclasses.replace(header, config=config, lanes=lanes,
                                 original_length=1 << 20)
        assert ContainerHeader.unpack(ok.pack(bytes(1 << 18)))[0] == ok


@pytest.mark.parametrize("active", [1363, 1364])
def test_step_size_counts_only_the_lanes_that_run_steps(active):
    # Over 65535 lanes, WIDE_STEP's step table holds 3f + 10h + 256 = 196,871
    # floats per active lane, its (B, f) gradient buffer among them, and
    # check_model adds 14 per lane, so 1,363 lanes of two bytes (the rest one,
    # within the window) fit MAX_STEP_FLOATS and 1,364 do not. The header that
    # fits is only unpacked: sealed under a matching CRC, its decode would
    # replay.
    assert 1363 * 196_885 <= MAX_STEP_FLOATS < 1364 * 196_885
    header = ContainerHeader(config=WIDE_STEP, lanes=65535, lr=0.5,
                             controller_enabled=False, seed=0,
                             original_length=65535 + active, data_checksum=0)
    container = header.pack(bytes(100))
    if active == 1363:
        assert ContainerHeader.unpack(container)[0] == header
    else:
        with pytest.raises(ContainerError, match="over 1364 lanes"):
            decompress(container)


def _step_peak(config, lanes):
    """tracemalloc's peak over three steps (forward pass, loss, backward
    with Adam) over `lanes` lanes of one freshly built model, so a step
    runs while the previous one's arrays are alive, as in a job."""
    model = TraceModel(config, seed=1)
    rng = np.random.default_rng(lanes)
    histories = rng.integers(0, 256, (lanes, config.window), dtype=np.uint8)
    targets = rng.integers(0, 256, lanes, dtype=np.uint8)

    def update_weight(w, grad):
        adam_step(w.value, grad, w.m, w.v, model.steps, 1e-3)

    with traced_peak() as peak:
        for _ in range(3):
            nll_loss(forward_probs(model, histories), targets)
            model.steps += 1
            backward(model, targets, update_weight)
        return peak()


@pytest.mark.parametrize("config", [TINY, ODD], ids=["tiny", "odd-shape"])
def test_step_cap_counts_at_least_what_a_step_holds(config):
    # The peak's growth from 64 to 128 lanes is what a running step holds
    # per lane, in float32s. The cap refuses the first lane count at which
    # that passes MAX_STEP_FLOATS, and it passes one at which 1.25 times
    # that fits.
    slope = (_step_peak(config, 128) - _step_peak(config, 64)) / 64 / 4
    with pytest.raises(ValueError, match="floats"):
        check_model(config, MAX_STEP_FLOATS // math.floor(slope) + 1)
    check_model(config, int(MAX_STEP_FLOATS // (1.25 * slope)))


def test_the_shared_ffn_inputs_count_towards_the_step_cap():
    # 65535 applications of a 2048-wide FFN input with one hidden unit keep
    # 2 x 65535 x 2048 floats per lane in ys and dys, past the cap alone
    deep = ModelConfig(hidden_dim=2048, ffn_dim=1, group_size=1, context_len=1,
                       shared_ffn_repeats=65535, num_heads=1)
    assert parameter_count(deep) < MAX_PARAMETERS
    header = ContainerHeader(config=deep, lanes=1, lr=0.5, controller_enabled=False,
                             seed=0, original_length=2, data_checksum=0)
    with pytest.raises(ContainerError, match="over 1 lanes"):
        ContainerHeader.unpack(header.pack(bytes(8)))


def test_a_length_past_int64_is_refused_before_the_lane_layout():
    header = ContainerHeader(config=SMALL, lanes=1, lr=0.5, controller_enabled=False,
                             seed=0, original_length=(1 << 64) - 1, data_checksum=0)
    with pytest.raises(TruncatedPayloadError):
        decompress(header.pack(bytes(8)))


def test_unpack_rejects_truncated_container():
    good = compress(b"hello world", SMALL, seed=1, lanes=2).container
    with pytest.raises(TruncatedPayloadError):
        ContainerHeader.unpack(good[:HEADER_SIZE - 1])
    with pytest.raises(TruncatedPayloadError):
        decompress(b"TR")
    cut = compress(synthetic_text(600, seed=8), SMALL, seed=1, lanes=4).container
    with pytest.raises(TruncatedPayloadError):
        decompress(seal(cut, cut[HEADER_SIZE:(HEADER_SIZE + len(cut)) // 2]))


def test_payload_bit_flip_fails_checksum(monkeypatch):
    # the frame's CRC covers the payload, so the damage is found before any
    # step is replayed
    good = bytearray(compress(b"a" * 300, SMALL, seed=1, lanes=2).container)
    good[HEADER_SIZE + 10] ^= 0x01
    calls = _watch_forward_probs(monkeypatch)
    with pytest.raises(ChecksumMismatchError):
        decompress(bytes(good))
    assert calls == []


def test_payload_bit_flips_never_decode_to_wrong_bytes():
    # Flips sealed under a matching CRC stand in for any encoder/decoder
    # divergence: each must give back the input or raise ContainerError.
    data = synthetic_text(600, seed=8)
    good = compress(data, SMALL, seed=1, lanes=8, controller=True).container
    payload = good[HEADER_SIZE:]
    kinds = set()
    for bit in np.random.default_rng(40).choice(8 * len(payload), 40, replace=False):
        bad = bytearray(payload)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        try:
            out = decompress(seal(good, bytes(bad)))
        except ContainerError as exc:
            kinds.add(type(exc))
        else:
            assert out.data == data
    assert kinds == {ChecksumMismatchError, TruncatedPayloadError}


def _decode_outcome(container, data):
    """None if container decodes to data, else the ContainerError's type;
    wrong bytes and any other exception fail the test."""
    try:
        out = decompress(container)
    except ContainerError as exc:
        return type(exc)
    assert out.data == data
    return None


def test_header_mutations_and_truncations_never_decode_to_wrong_bytes(monkeypatch):
    # Every header byte XORed with 0x01 and with 0xFF fails before any
    # replay: at magic, at version, or at the frame's CRC. Each such header,
    # sealed again, must decode to the input or raise ContainerError, as must
    # the container cut at every header offset, and cut at 10 payload
    # offsets both as is and sealed again. Legal but costly sealed headers
    # are kept: ffn 64 ^ 0xFF00 = 65344 builds a 4.2M-parameter model and
    # runs about 3 s, and shared_ffn_repeats 253 or 258 overflows float32
    # within a step.
    data = synthetic_text(600, seed=8)
    good = compress(data, TINY, seed=1, lanes=4, controller=True).container
    payload = good[HEADER_SIZE:]
    calls = _watch_forward_probs(monkeypatch)
    kinds = set()
    for i in range(HEADER_SIZE):
        for mask in (0x01, 0xFF):
            bad = bytearray(good)
            bad[i] ^= mask
            kind = _decode_outcome(bytes(bad), data)
            assert kind is (BadMagicError if i < 4 else UnsupportedVersionError if i == 4
                            else ChecksumMismatchError)
            assert calls == []
            kinds.add(kind)
            kinds.add(_decode_outcome(seal(bytes(bad), payload), data))
            calls.clear()
    for cut in range(HEADER_SIZE):
        kinds.add(_decode_outcome(good[:cut], data))
    for cut in np.linspace(0, len(payload) - 1, 10).astype(int).tolist():
        kinds.add(_decode_outcome(good[:HEADER_SIZE + cut], data))
        kinds.add(_decode_outcome(seal(good, payload[:cut]), data))
    assert kinds - {None} == {BadMagicError, UnsupportedVersionError, ContainerError,
                              ChecksumMismatchError, TruncatedPayloadError,
                              ModelOverflowError}


@pytest.mark.parametrize("offset, field", [(19, 9), (24, 11)], ids=["lr", "seed"])
def test_a_damaged_header_fails_before_replay(monkeypatch, offset, field):
    # one byte of the f32 lr at bytes 19-22, or of the u64 seed at 24-31,
    # of a container whose four lanes each run past their 32-byte window
    data = synthetic_text(600, seed=8)
    good = compress(data, TINY, seed=1, lanes=4).container
    bad = bytearray(good)
    bad[offset] ^= 0x01
    changed = [a != b for a, b in zip(_HEADER.unpack_from(good), _HEADER.unpack_from(bad))]
    assert changed.index(True) == field and changed.count(True) == 1
    calls = _watch_forward_probs(monkeypatch)
    with pytest.raises(ChecksumMismatchError):
        decompress(bytes(bad))
    assert calls == []
    assert decompress(good).data == data
    assert calls


def test_compress_refuses_a_job_that_overflows_float32():
    with pytest.raises(FloatingPointError):
        compress(synthetic_text(200, seed=3), TINY, seed=1, lanes=2, lr=1e30)


def test_container_errors_share_a_base():
    for err in (BadMagicError, UnsupportedVersionError, ChecksumMismatchError,
                TruncatedPayloadError, ModelOverflowError):
        assert issubclass(err, ContainerError)
        assert issubclass(err, ValueError)


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_empty_input():
    res, out = roundtrip(b"")
    assert out.data == b""
    assert len(res.container) == HEADER_SIZE
    assert res.metrics.total_bits_out == 0


def test_inputs_within_warm_up_never_build_the_model(monkeypatch):
    # lanes x window bytes code only warm-up symbols; one byte more needs a
    # model step
    def no_model(*args):
        raise AssertionError("model built")

    monkeypatch.setattr(trc.pipeline, "TraceModel", no_model)
    for data in (b"", synthetic_text(4 * TINY.window, seed=2)):
        res = compress(data, TINY, seed=1, lanes=4)
        assert decompress(res.container).data == data
    with pytest.raises(AssertionError, match="model built"):
        compress(synthetic_text(4 * TINY.window + 1, seed=2), TINY, seed=1, lanes=4)


def test_roundtrip_tiny_inputs_all_lane_counts():
    for n in (1, 2, 5, 6, 7, 13):
        data = bytes(range(40, 40 + n))
        for lanes in (1, 2, 3, 11):
            res, out = roundtrip(data, lanes=lanes)
            assert out.data == data, f"n={n} lanes={lanes}"


def test_roundtrip_random_binary():
    data = np.random.default_rng(11).integers(0, 256, 2048, dtype=np.uint8).tobytes()
    _, out = roundtrip(data, lanes=4)
    assert out.data == data


def test_roundtrip_text_with_controller():
    data = synthetic_text(3000, seed=5)
    res, out = roundtrip(data, lanes=6, controller=True)
    assert out.data == data
    assert res.stats.decisions > 0
    assert 0 <= res.stats.skipped <= res.stats.decisions


def test_roundtrip_matches_decoder_stats():
    cases = [(synthetic_text(2500, seed=9), 5, True), (b"", 3, False), (b"abc", 1, True)]
    cases += [(synthetic_text(600, seed=lanes), lanes, controller)
              for lanes in (1, 3, 11) for controller in (False, True)]
    for data, lanes, controller in cases:
        res = compress(data, SMALL, seed=3, lanes=lanes, controller=controller)
        out = decompress(res.container)
        assert out.data == data
        assert out.stats == res.stats
        assert without_wall_time(out.metrics) == without_wall_time(res.metrics)


def test_roundtrip_all_byte_values():
    data = bytes(range(256)) * 4
    _, out = roundtrip(data, lanes=3)
    assert out.data == data


def test_short_input_single_lane_costs_about_one_byte_each():
    data = b"abc"  # below the 6-byte window: warm-up only
    res = compress(data, SMALL, seed=1, lanes=1)
    payload = len(res.container) - HEADER_SIZE
    assert 3 <= payload <= 7
    assert res.metrics.warmup_bytes == 3
    assert res.metrics.chunks == []
    assert res.metrics.total_bits_out == 8 * payload


# ---------------------------------------------------------------------------
# determinism and the distribution sequence


def test_compress_is_deterministic():
    data = synthetic_text(1500, seed=2)
    a = compress(data, SMALL, seed=42, lanes=4, controller=True)
    b = compress(data, SMALL, seed=42, lanes=4, controller=True)
    assert a.container == b.container


_COMPRESS_STDIN = """\
import sys
from trc.model import ModelConfig
from trc.pipeline import compress
config = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)
sys.stdout.buffer.write(compress(sys.stdin.buffer.read(), config, seed=3, lanes=4).container)
"""


def test_replay_is_bit_identical_across_calls_and_processes():
    # float32 sgemm carries the replay contract: the same input must give
    # the same container however the process's buffers happen to be laid out
    config = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)
    data = synthetic_text(900, seed=12)
    first = compress(data, config, seed=3, lanes=4).container
    second = compress(data, config, seed=3, lanes=4).container
    fresh = subprocess.run(
        [sys.executable, "-c", _COMPRESS_STDIN], input=data, capture_output=True,
        check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(trc.__file__).resolve().parent.parent)},
    ).stdout
    assert first == second == fresh
    for container in (first, second, fresh):
        assert decompress(container).data == data


_COMPRESS_PAPER_LANES = """\
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from conftest import synthetic_text, traced_peak
from trc.model import ModelConfig
from trc.pipeline import compress, decompress
data = synthetic_text(64 * 40, seed=4)
container = compress(data, ModelConfig(), seed=0, lanes=64).container
assert decompress(container).data == data
print(hashlib.sha256(container).hexdigest())
"""


def test_replay_is_bit_identical_across_blas_thread_counts():
    # the paper default over 64 lanes runs products large enough for
    # OpenBLAS to split over threads; the thread count must not reach the
    # bits. It is set before numpy loads, in a fresh process each time.
    tests = Path(__file__).resolve().parent
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(tests)}
        run = subprocess.run(
            [sys.executable, "-c", _COMPRESS_PAPER_LANES,
             str(Path(trc.__file__).resolve().parent.parent)],
            capture_output=True, check=True, timeout=300, env=env, text=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def _at_shift(a, shift):
    """A copy of a whose data starts `shift` bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + shift
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


@functools.cache
def _unshifted_container(config, lanes):
    return compress(synthetic_text(360, seed=26), config, seed=5, lanes=lanes).container


@pytest.mark.parametrize("config, lanes", [(ODD, 3), (TINY, 4)], ids=["odd-shape", "tiny"])
@pytest.mark.parametrize("shift", range(0, 64, 4))
def test_container_does_not_depend_on_where_the_weights_lie(monkeypatch, config, lanes,
                                                             shift):
    # each weight's value and moments are arrays of their own, placed by the
    # allocator in the encoder and in the decoder alike, so no layout fixes
    # their alignment: the bits must not depend on it
    data = synthetic_text(360, seed=26)
    want = _unshifted_container(config, lanes)
    real_model = trc.pipeline.TraceModel

    def shifted_model(config, seed):
        model = real_model(config, seed)
        for name in weight_shapes(config):
            w = getattr(model, name)
            setattr(model, name, Weight(*(_at_shift(a, shift) for a in w)))
            assert all(a.ctypes.data % 64 == shift for a in getattr(model, name))
        return model

    monkeypatch.setattr(trc.pipeline, "TraceModel", shifted_model)
    res = compress(data, config, seed=5, lanes=lanes)
    assert res.container == want
    assert decompress(res.container).data == data


def test_different_seed_changes_container():
    data = synthetic_text(1500, seed=2)
    a = compress(data, SMALL, seed=1, lanes=4)
    b = compress(data, SMALL, seed=2, lanes=4)
    assert a.container != b.container


class CodingRecord:
    """Order-sensitive digest of every (distribution, symbol) pair the coder
    handles, plus the ideal cost of that pairing in bits. With `keep`, each
    pair is also kept, the table as a list, in `pairs`."""

    def __init__(self, keep: bool = False):
        self.digest = 0
        self.count = 0
        self.cost_bits = 0.0
        self.pairs = [] if keep else None

    def observe(self, cum, sym):
        self.digest = zlib.crc32(cum.astype("<u4").tobytes() + bytes([sym]), self.digest)
        self.count += 1
        self.cost_bits += math.log2(int(cum[256])) - math.log2(int(cum[sym + 1] - cum[sym]))
        if self.pairs is not None:
            self.pairs.append((cum.tolist(), sym))

    def watch(self, monkeypatch):
        """Observe every symbol the Encoder and Decoder classes code until
        the test ends."""
        encode_symbol, decode_symbol = Encoder.encode_symbol, Decoder.decode_symbol

        def encode(coder, sym, cum):
            self.observe(cum, sym)
            encode_symbol(coder, sym, cum)

        def decode(coder, cum):
            sym = decode_symbol(coder, cum)
            self.observe(cum, sym)
            return sym

        monkeypatch.setattr(Encoder, "encode_symbol", encode)
        monkeypatch.setattr(Decoder, "decode_symbol", decode)
        return self


def test_encoder_and_decoder_see_identical_distributions(monkeypatch):
    data = synthetic_text(2000, seed=13)
    for controller in (False, True):
        with monkeypatch.context() as patch:
            enc_record = CodingRecord().watch(patch)
            res = compress(data, SMALL, seed=5, lanes=4, controller=controller)
        with monkeypatch.context() as patch:
            dec_record = CodingRecord().watch(patch)
            out = decompress(res.container)
        assert out.data == data
        assert enc_record.count == len(data)
        assert dec_record.count == enc_record.count
        assert dec_record.digest == enc_record.digest
        assert dec_record.cost_bits == pytest.approx(enc_record.cost_bits)


@pytest.mark.parametrize("data, config, lanes, halvings", [
    (bytes(4096), TINY, 128, 2),
    (synthetic_text(2000, seed=19), SMALL, 5, 0),
], ids=["zeros-warm-up-only", "text"])
def test_warm_up_codes_under_the_oracles_count_rows(monkeypatch, data, config, lanes, halvings):
    # 4,096 zero bytes over 128 lanes are warm-up only at TINY's window of
    # 32: row 0 takes 3,968 hits, passes 2^16 at the 2,041st and again about
    # 1,020 hits after its halving. The text runs main-loop steps after its
    # warm-up
    with monkeypatch.context() as patch:
        enc_record = CodingRecord(keep=True).watch(patch)
        res = compress(data, config, seed=2, lanes=lanes)
    with monkeypatch.context() as patch:
        dec_record = CodingRecord(keep=True).watch(patch)
        assert decompress(res.container).data == data
    oracle = OrderOneCounts()
    starts, sizes = lane_layout(len(data), lanes)
    want = list(oracle.warm_up(data, starts.tolist(), np.minimum(sizes, config.window).tolist()))
    assert len(want) == res.metrics.warmup_bytes
    assert enc_record.pairs[:len(want)] == want
    assert dec_record.pairs[:len(want)] == want
    assert oracle.halvings == halvings


def test_payload_tracks_ideal_cost(monkeypatch):
    data = synthetic_text(2000, seed=17)
    lanes = 4
    record = CodingRecord().watch(monkeypatch)
    res = compress(data, SMALL, seed=5, lanes=lanes)
    payload_bits = 8 * (len(res.container) - HEADER_SIZE)
    assert payload_bits <= record.cost_bits + 32 + 32 * lanes
    assert payload_bits >= record.cost_bits - 64


# ---------------------------------------------------------------------------
# metrics


def test_metrics_conserve_bits(monkeypatch):
    monkeypatch.setattr(trc.pipeline, "CHUNK_STEPS", 32)
    for n, lanes in ((500, 2), (2048, 7), (100, 25)):
        data = synthetic_text(n, seed=n)
        res = compress(data, SMALL, seed=1, lanes=lanes)
        payload = len(res.container) - HEADER_SIZE
        assert res.metrics.total_bits_out == 8 * payload
        assert res.metrics.warmup_bytes + sum(c.bytes_in for c in res.metrics.chunks) == n


def test_metrics_chunk_structure(monkeypatch):
    monkeypatch.setattr(trc.pipeline, "CHUNK_STEPS", 100)
    data = synthetic_text(1000, seed=4)
    res = compress(data, SMALL, seed=1, lanes=2)
    main_steps = int(lane_layout(1000, 2)[1].max()) - SMALL.window
    chunks = res.metrics.chunks
    assert sum(c.steps for c in chunks) == main_steps
    assert all(c.steps <= 100 for c in chunks)
    assert all(c.steps == 100 for c in chunks[:-1])
    assert all(c.bits_out >= 0 for c in chunks)
    assert all(c.wall_s >= 0.0 for c in chunks)
    assert res.metrics.warmup_s > 0.0
    assert all(np.isfinite(c.mean_loss) and c.mean_loss > 0 for c in chunks)
    assert sum(c.bytes_in for c in chunks) == 1000 - res.metrics.warmup_bytes


def _fresh_mean_gate(losses, capacity):
    """Update iff no loss came before, or e beats the mean of the last
    `capacity` losses."""
    out = []
    for i, e in enumerate(losses):
        recent = losses[max(0, i - capacity):i]
        out.append(not recent or e > math.fsum(recent) / len(recent))
    return out


_ALTERNATING = [1.0 if i % 2 else 3.0 for i in range(1000)]
_RANDOM = (np.random.default_rng(23).random(2000) * 8.0).tolist()


@pytest.mark.parametrize("capacity, losses, skip_range", [
    (16, [1.0, 2.0, 3.0, 2.5], (0.0, 0.0)),
    (16, [5.0, 5.0, 5.0, 4.0], None),
    (8, [2.0, 2.0, 2.0], None),
    (8, [3.0] * 5 + [3.0001, 2.9999], None),
    (4, [0.0], (0.0, 0.0)),
    (1, [5.0, 6.0, 5.5, 5.6], None),
    (2, [1.0, 9.0, 2.0, 5.4], None),
    # 2.8 beats the mean of all four earlier losses (2.5) but not of the
    # last three (3.0): it is skipped only if 1.0 was evicted.
    (3, [1.0, 2.0, 3.0, 4.0, 2.8], None),
    (16, [3.5] * 100, (0.99, 0.99)),
    (16, _ALTERNATING, (0.4, 0.6)),
    (16, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0, 0.0, 0.0, 0.0], (0.4, 0.4)),
    (16, _RANDOM, None),
], ids=["above-mean", "below-mean", "tie", "3.0001-vs-3.0", "empty-cache",
        "capacity-1", "capacity-2", "capacity-3-eviction", "constant",
        "alternating", "skip-fraction-0.4", "random-2000"])
def test_gate_updates_iff_loss_beats_the_cache_mean(monkeypatch, capacity, losses,
                                                    skip_range):
    # One step per chunk, so each chunk's skip_count is one decision; the
    # scripted losses drive the gate, and backward forms the real gradient
    # from the step's bytes.
    monkeypatch.setattr(trc.pipeline, "CHUNK_STEPS", 1)
    monkeypatch.setattr(trc.pipeline, "LOSS_CACHE", capacity)
    script = iter(losses)

    def scripted(probs, targets):
        return next(script)

    monkeypatch.setattr(trc.pipeline, "nll_loss", scripted)
    data = synthetic_text(EDGE.window + len(losses), seed=len(losses))
    res = compress(data, EDGE, seed=1, lanes=1, controller=True)
    decisions = [c.skip_count == 0 for c in res.metrics.chunks]
    assert decisions == _fresh_mean_gate(losses, capacity)
    assert (res.stats.decisions, res.stats.skipped) == (len(losses), decisions.count(False))
    if skip_range is not None:
        assert skip_range[0] <= res.skip_fraction <= skip_range[1]


def test_gated_run_takes_one_adam_step_per_update(monkeypatch):
    # each update takes one Adam step per weight, and the model's one step
    # count goes 1, 2, ... over the updates alone, in both directions
    calls = []
    real_adam_step = trc.pipeline.adam_step

    def counted(value, grad, m, v, t, lr):
        calls.append(t)
        real_adam_step(value, grad, m, v, t, lr)

    monkeypatch.setattr(trc.pipeline, "adam_step", counted)
    data = synthetic_text(1200, seed=21)
    res = compress(data, SMALL, seed=2, lanes=3, controller=True)
    updates = res.stats.decisions - res.stats.skipped
    assert res.stats.skipped > 0 and updates > 0
    want = [t for t in range(1, updates + 1) for _ in weight_shapes(SMALL)]
    assert calls == want
    calls.clear()
    assert decompress(res.container).data == data
    assert calls == want


@pytest.mark.parametrize("ffn_dim, grad, ffn_arrays, slack", [
    (1024, 64 * 1024, 5, 1.2),
    (16384, GRAD_BLOCK, 4, 1.1),
], ids=["whole-weight", "row-blocks"])
def test_compress_peak_is_the_parameters_one_gradient_and_one_step(ffn_dim, grad, ffn_arrays,
                                                                   slack):
    # numpy reports its buffers to tracemalloc. At these shapes the
    # parameters and the FFN arrays dominate, so the peak of one compress is
    # close to the weights' values and Adam moments, one gradient, and what
    # one step holds: (B, f) FFN arrays and the (B, c, h) window with its
    # keys and values.
    # - whole-weight: w1 (64 x 1024) is one GRAD_BLOCK or less, so the
    #   gradient is the whole weight's. The step counts us, ths and one
    #   (B, f) application array. A gradient for every weight would add a
    #   fourth parameter-sized set of arrays, 23% of that sum, and a third
    #   (N, B, f) array, as when each step kept GELU's output, about 5%;
    #   either breaks the bound.
    # - row-blocks: w1 (64 x 16384) is four GRAD_BLOCKs, so the gradient is
    #   one block, which also holds the (B, f) application. The step counts
    #   us and ths alone. A whole w1 gradient and an application array of
    #   its own, about 14% of that sum, break the bound.
    config = ModelConfig(hidden_dim=64, ffn_dim=ffn_dim, num_heads=4)
    lanes = 16
    data = synthetic_text(lanes * 40, seed=23)
    step = lanes * (ffn_arrays * config.ffn_dim + 3 * config.context_len * config.hidden_dim)
    with traced_peak() as peak:
        res = compress(data, config, seed=3, lanes=lanes)
    assert res.stats.decisions == 40 - config.window
    assert peak() <= slack * 4 * (3 * parameter_count(config) + grad + step)


def test_quantize_is_called_once_per_main_loop_byte_on_the_steps_float32_rows(monkeypatch):
    # trc.pipeline.quantize is the seam the benchmark's tracer counts: one
    # call per lane per main-loop step, in both directions and with lanes
    # of uneven length, each on one float32 row of the step's probabilities
    # as the forward pass made them, with no widened copy
    rows = []
    real_quantize = trc.pipeline.quantize

    def watched(p):
        rows.append(p)
        return real_quantize(p)

    monkeypatch.setattr(trc.pipeline, "quantize", watched)
    data = synthetic_text(1000, seed=22)
    res = compress(data, SMALL, seed=4, lanes=3)
    compress_rows = rows[:]
    rows.clear()
    assert decompress(res.container).data == data
    assert res.metrics.warmup_bytes == 3 * SMALL.window
    for seen in (compress_rows, rows):
        assert len(seen) == len(data) - res.metrics.warmup_bytes
        assert all(p.dtype == np.float32 and p.shape == (256,) for p in seen)


def test_learnable_stream_loss_declines(monkeypatch):
    monkeypatch.setattr(trc.pipeline, "CHUNK_STEPS", 200)
    data = b"abcdefgh" * 500  # 4000 bytes of pure structure
    res = compress(data, SMALL, seed=3, lanes=2)
    chunks = res.metrics.chunks
    assert len(chunks) >= 3
    assert chunks[-1].mean_loss < chunks[0].mean_loss


def test_skip_fraction_zero_when_controller_off():
    data = synthetic_text(800, seed=6)
    res = compress(data, SMALL, seed=2, lanes=2, controller=False)
    assert res.skip_fraction == 0.0
    assert res.stats.skipped == 0
    assert res.stats.decisions > 0


# ---------------------------------------------------------------------------
# argument validation


def test_compress_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, lanes=0)
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, lanes=70000)
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, lr=0.0)
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, lr=-0.5)
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=-1)
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1 << 64)


def test_compress_rejects_model_over_the_size_cap():
    big = ModelConfig(hidden_dim=2048, ffn_dim=14336, group_size=1, num_heads=1)
    assert MAX_PARAMETERS < parameter_count(big) < 2 * MAX_PARAMETERS
    with pytest.raises(ValueError):
        compress(b"x", big, seed=1)


def test_compress_rejects_lr_that_vanishes_in_float32():
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, lr=1e-60)


# Window 2 at one lane: b"" codes nothing, b"ab" only warm-up bytes and
# b"abcdefgh" six main-loop steps.
EDGE = ModelConfig(hidden_dim=2, ffn_dim=2, group_size=1, context_len=2,
                   shared_ffn_repeats=1, num_heads=1)
_U16 = ("hidden_dim", "ffn_dim", "group_size", "context_len", "shared_ffn_repeats",
        "num_heads", "lanes")


@pytest.mark.parametrize("data", [b"", b"ab", b"abcdefgh"], ids=["empty", "warmup", "main"])
@pytest.mark.parametrize("setting", [
    *({"lr": v} for v in (float(np.finfo(np.float32).max), 1e39, float("inf"), 1e-60)),
    *({name: v} for name in _U16 for v in (0xFFFF, 0x10000, 2.5)),
    {"lanes": True}, {"seed": (1 << 64) - 1}, {"seed": 1 << 64}, {"seed": 1.5},
    {"controller": 2},
], ids=lambda setting: ",".join(f"{k}={v}" for k, v in setting.items()))
def test_compress_writes_only_what_unpack_accepts(monkeypatch, data, setting):
    # A job either fails ValueError before a symbol is coded, or stops with
    # FloatingPointError and writes nothing (a huge lr or a deep shared FFN
    # overflows float32), or gives a container that decodes to `data`. A
    # float, a bool or a controller flag of 2 must end one of these ways too,
    # not in struct.error, TypeError or a container decompress refuses.
    record = CodingRecord().watch(monkeypatch)
    job = {"seed": 1, "lanes": 1, **setting}
    fields = {k: job.pop(k) for k in setting if hasattr(EDGE, k)}
    try:
        res = compress(data, dataclasses.replace(EDGE, **fields), **job)
    except ValueError:
        assert record.count == 0
        return
    except FloatingPointError:
        return
    assert decompress(res.container).data == data


def test_controller_only_changes_update_schedule():
    # both settings must stay losslessly decodable on the same input
    data = synthetic_text(1600, seed=30)
    for controller in (False, True):
        res = compress(data, SMALL, seed=9, lanes=4, controller=controller)
        assert decompress(res.container).data == data
