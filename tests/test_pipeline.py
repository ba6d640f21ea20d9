"""End-to-end loop and container contracts.

The defining property is round-trip identity, or else a ContainerError;
around it sit the header frame, lane geometry, the probe proving encoder
and decoder saw identical distribution sequences, equal metrics in both
directions, and bit conservation in the metrics.
"""

import dataclasses
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from conftest import synthetic_text
import trc
from trc.model import MAX_PARAMETERS, ModelConfig, parameter_count
from trc.pipeline import (
    BadMagicError,
    ChecksumMismatchError,
    ContainerError,
    ContainerHeader,
    DistributionProbe,
    HEADER_SIZE,
    MAGIC,
    TruncatedPayloadError,
    UnsupportedVersionError,
    _HEADER,
    compress,
    decompress,
    segment_lanes,
)

SMALL = ModelConfig(hidden_dim=16, ffn_dim=24, group_size=2, context_len=3,
                    shared_ffn_repeats=2, num_heads=2)  # window 6


def roundtrip(data, config=SMALL, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("lanes", 4)
    res = compress(data, config, **kw)
    out = decompress(res.container)
    return res, out


def reseal(container, payload):
    """Swap in a new payload under a matching payload CRC, so it passes the
    first integrity gate and reaches the decoder."""
    header, _ = ContainerHeader.unpack(container)
    return dataclasses.replace(header, checksum=zlib.crc32(payload)).pack() + payload


def without_wall_time(metrics):
    return dataclasses.replace(
        metrics, chunks=[dataclasses.replace(c, wall_s=0.0) for c in metrics.chunks])


# ---------------------------------------------------------------------------
# lane geometry


def test_segment_lanes_balanced_example():
    assert segment_lanes(10, 3) == [(0, 4), (4, 3), (7, 3)]


def test_segment_lanes_single_lane():
    assert segment_lanes(999, 1) == [(0, 999)]


def test_segment_lanes_more_lanes_than_bytes():
    segs = segment_lanes(3, 5)
    assert segs == [(0, 1), (1, 1), (2, 1), (3, 0), (3, 0)]


def test_segment_lanes_rejects_zero_lanes():
    with pytest.raises(ValueError):
        segment_lanes(10, 0)


def test_segment_lanes_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(0, 5000))
        b = int(rng.integers(1, 70))
        segs = segment_lanes(n, b)
        assert len(segs) == b
        cursor = 0
        for off, size in segs:
            assert off == cursor
            cursor += size
        assert cursor == n
        sizes = [s for _, s in segs]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(sizes, reverse=True) == sizes


# ---------------------------------------------------------------------------
# container frame


def test_header_packs_to_fixed_size_and_roundtrips():
    header = ContainerHeader(config=SMALL, lanes=4, lr=float(np.float32(0.001)),
                             controller_enabled=True, cache_capacity=16,
                             seed=0xDEADBEEFCAFE, original_length=123456,
                             data_checksum=0x55667788, checksum=0x11223344)
    blob = header.pack()
    assert len(blob) == HEADER_SIZE == 50
    assert blob[:4] == MAGIC
    parsed, payload = ContainerHeader.unpack(blob + b"xyz" * 1000)
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
    for version in (1, 2, 99):
        good[4] = version
        with pytest.raises(UnsupportedVersionError):
            decompress(bytes(good))


_FIELD = {"hidden": 2, "group": 4, "lanes": 8, "lr": 9, "controller": 10,
          "cache": 11, "length": 13}


@pytest.mark.parametrize("field, value", [
    ("lanes", 0), ("cache", 0), ("hidden", 0), ("hidden", 15), ("group", 0),
    ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")), ("lr", float("inf")),
    ("controller", 2), ("length", 1 << 62), ("length", 80_000),
    ("hidden", 65534),  # a valid shape of about 1.7e10 parameters
])
def test_unpack_rejects_bad_header_fields(field, value):
    good = compress(b"hello world", SMALL, seed=1, lanes=2).container
    fields = list(_HEADER.unpack_from(good))
    fields[_FIELD[field]] = value
    with pytest.raises(ContainerError):
        decompress(_HEADER.pack(*fields) + good[HEADER_SIZE:])


def test_unpack_rejects_truncated_container():
    good = compress(b"hello world", SMALL, seed=1, lanes=2).container
    with pytest.raises(TruncatedPayloadError):
        ContainerHeader.unpack(good[:HEADER_SIZE - 1])
    with pytest.raises(TruncatedPayloadError):
        decompress(b"TR")
    cut = compress(synthetic_text(600, seed=8), SMALL, seed=1, lanes=4).container
    with pytest.raises(TruncatedPayloadError):
        decompress(reseal(cut, cut[HEADER_SIZE:(HEADER_SIZE + len(cut)) // 2]))


def test_payload_bit_flip_fails_checksum():
    good = bytearray(compress(b"a" * 300, SMALL, seed=1, lanes=2).container)
    good[HEADER_SIZE + 10] ^= 0x01
    with pytest.raises(ChecksumMismatchError):
        decompress(bytes(good))


def test_payload_bit_flips_never_decode_to_wrong_bytes():
    # Flips under a resealed payload CRC stand in for any encoder/decoder
    # divergence: each must give back the input or raise ContainerError.
    data = synthetic_text(600, seed=8)
    good = compress(data, SMALL, seed=1, lanes=8, controller=True).container
    payload = good[HEADER_SIZE:]
    kinds = set()
    for bit in np.random.default_rng(40).choice(8 * len(payload), 40, replace=False):
        bad = bytearray(payload)
        bad[bit // 8] ^= 0x80 >> (bit % 8)
        try:
            out = decompress(reseal(good, bytes(bad)))
        except ContainerError as exc:
            kinds.add(type(exc))
        else:
            assert out.data == data
    assert kinds == {ChecksumMismatchError, TruncatedPayloadError}


def test_container_errors_share_a_base():
    for err in (BadMagicError, UnsupportedVersionError, ChecksumMismatchError,
                TruncatedPayloadError):
        assert issubclass(err, ContainerError)
        assert issubclass(err, ValueError)


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_empty_input():
    res, out = roundtrip(b"")
    assert out.data == b""
    assert len(res.container) == HEADER_SIZE
    assert res.metrics.total_bits_out == 0


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
    res, out = roundtrip(data, lanes=6, controller=True, cache_capacity=8)
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


def test_different_seed_changes_container():
    data = synthetic_text(1500, seed=2)
    a = compress(data, SMALL, seed=1, lanes=4)
    b = compress(data, SMALL, seed=2, lanes=4)
    assert a.container != b.container


def test_encoder_and_decoder_see_identical_distributions():
    data = synthetic_text(2000, seed=13)
    for controller in (False, True):
        enc_probe = DistributionProbe()
        res = compress(data, SMALL, seed=5, lanes=4, controller=controller,
                       probe=enc_probe)
        dec_probe = DistributionProbe()
        out = decompress(res.container, probe=dec_probe)
        assert out.data == data
        assert enc_probe.count == len(data)
        assert dec_probe.count == enc_probe.count
        assert dec_probe.digest == enc_probe.digest
        assert dec_probe.cost_bits == pytest.approx(enc_probe.cost_bits)


def test_payload_tracks_ideal_cost():
    data = synthetic_text(2000, seed=17)
    lanes = 4
    probe = DistributionProbe()
    res = compress(data, SMALL, seed=5, lanes=lanes, probe=probe)
    payload_bits = 8 * (len(res.container) - HEADER_SIZE)
    assert payload_bits <= probe.cost_bits + 32 + 32 * lanes
    assert payload_bits >= probe.cost_bits - 64


# ---------------------------------------------------------------------------
# metrics


def test_metrics_conserve_bits():
    for n, lanes in ((500, 2), (2048, 7), (100, 25)):
        data = synthetic_text(n, seed=n)
        res = compress(data, SMALL, seed=1, lanes=lanes, chunk_steps=32)
        payload = len(res.container) - HEADER_SIZE
        assert res.metrics.total_bits_out == 8 * payload
        assert res.metrics.total_bytes_in == n


def test_metrics_chunk_structure():
    data = synthetic_text(1000, seed=4)
    res = compress(data, SMALL, seed=1, lanes=2, chunk_steps=100)
    segs = segment_lanes(1000, 2)
    main_steps = max(size - SMALL.window for _, size in segs)
    chunks = res.metrics.chunks
    assert sum(c.steps for c in chunks) == main_steps
    assert all(c.steps <= 100 for c in chunks)
    assert all(c.steps == 100 for c in chunks[:-1])
    assert all(c.bits_out >= 0 for c in chunks)
    assert all(c.wall_s >= 0.0 for c in chunks)
    assert all(np.isfinite(c.mean_loss) and c.mean_loss > 0 for c in chunks)
    assert sum(c.bytes_in for c in chunks) == 1000 - res.metrics.warmup_bytes


def test_metrics_skip_counts_match_stats():
    data = synthetic_text(1200, seed=21)
    res = compress(data, SMALL, seed=2, lanes=3, controller=True, chunk_steps=50)
    assert sum(c.skip_count for c in res.metrics.chunks) == res.stats.skipped
    assert sum(c.steps for c in res.metrics.chunks) == res.stats.decisions


def test_learnable_stream_loss_declines():
    data = b"abcdefgh" * 500  # 4000 bytes of pure structure
    res = compress(data, SMALL, seed=3, lanes=2, chunk_steps=200)
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
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, cache_capacity=0)
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, chunk_steps=0)


def test_compress_rejects_model_over_the_size_cap():
    big = ModelConfig(hidden_dim=2048, ffn_dim=14336, group_size=1, num_heads=1)
    assert MAX_PARAMETERS < parameter_count(big) < 2 * MAX_PARAMETERS
    with pytest.raises(ValueError):
        compress(b"x", big, seed=1)


def test_compress_rejects_lr_that_vanishes_in_float32():
    with pytest.raises(ValueError):
        compress(b"x", SMALL, seed=1, lr=1e-60)


def test_controller_only_changes_update_schedule():
    # both settings must stay losslessly decodable on the same input
    data = synthetic_text(1600, seed=30)
    for controller in (False, True):
        res = compress(data, SMALL, seed=9, lanes=4, controller=controller)
        assert decompress(res.container).data == data
