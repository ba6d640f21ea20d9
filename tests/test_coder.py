"""Quantization and arithmetic-coding contracts.

Oracles: the closed-form floor rule for quantize, round-trip identity, and
the cross-entropy bound computed alongside each encode.
"""

import math

import numpy as np
import pytest

from trc.coder import (
    TOTAL,
    Decoder,
    Encoder,
    ExhaustedStreamError,
    QuantizedDistribution,
    UNIFORM,
    quantize,
)

# ---------------------------------------------------------------------------
# QuantizedDistribution


def test_distribution_validates_shape_sum_and_floor():
    with pytest.raises(ValueError):
        QuantizedDistribution(np.ones(255, dtype=np.int64))
    with pytest.raises(ValueError):
        QuantizedDistribution(np.full(256, 256, dtype=np.int64) + 1)
    bad = np.full(256, 256, dtype=np.int64)
    bad[0] = 0
    bad[1] = 512
    with pytest.raises(ValueError):
        QuantizedDistribution(bad)


def test_distribution_cumulative_structure():
    q = UNIFORM
    assert q.cum[0] == 0
    assert q.cum[256] == TOTAL
    assert np.all(np.diff(q.cum) >= 1)
    assert np.array_equal(np.diff(q.cum), q.freq)


# ---------------------------------------------------------------------------
# quantize


def test_quantize_uniform_gives_256_each():
    q = quantize(np.full(256, 1.0 / 256.0))
    assert np.all(q.freq == 256)


def test_quantize_near_one_hot():
    delta = 1e-9
    p = np.full(256, delta)
    p[0] = 1.0 - 255 * delta
    q = quantize(p)
    assert q.freq[0] == TOTAL - 255
    assert np.all(q.freq[1:] == 1)
    assert int(q.freq.sum()) == TOTAL


def test_quantize_follows_floor_rule_with_leftover_to_argmax():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        raw = rng.random(256) + 1e-9
        p = raw / raw.sum()
        q = quantize(p)
        assert int(q.freq.sum()) == TOTAL
        assert q.freq.min() >= 1
        base = 1 + np.floor(p * float(TOTAL - 256)).astype(np.int64)
        leftover = TOTAL - int(base.sum())
        want = base.copy()
        want[int(np.argmax(p))] += leftover
        assert np.array_equal(q.freq, want)


def test_quantize_deterministic_and_dtype_stable():
    p32 = (np.random.default_rng(9).random(256).astype(np.float32) + 1e-6)
    p32 /= p32.sum()
    a = quantize(p32)
    b = quantize(p32)
    assert np.array_equal(a.freq, b.freq)


def test_quantize_rejects_bad_input():
    p = np.full(256, 1.0 / 256.0)
    bad = p.copy()
    bad[3] = 0.0
    with pytest.raises(ValueError):
        quantize(bad)
    bad = p.copy()
    bad[3] = -bad[3]
    with pytest.raises(ValueError):
        quantize(bad)
    with pytest.raises(ValueError):
        quantize(p * 0.9)
    with pytest.raises(ValueError):
        quantize(p * 1.1)
    with pytest.raises(ValueError):
        quantize(np.full(128, 1.0 / 128.0))


def test_quantize_output_passes_full_validation():
    # quantize builds its result without QuantizedDistribution's checks, so
    # every output must pass them: random, near-one-hot, and sums off by
    # just under the 1e-4 quantize allows, in float64 and float32
    rng = np.random.default_rng(19)
    inputs = []
    for _ in range(200):
        raw = rng.random(256) + 1e-9
        inputs.append(raw / raw.sum())
    for hot in rng.integers(0, 256, 50):
        p = np.full(256, 1e-12)
        p[hot] = 1.0 - 255e-12
        inputs.append(p)
    for sign in (1.0, -1.0):
        for _ in range(50):
            raw = rng.random(256) ** 8 + 1e-9
            inputs.append(raw / raw.sum() * (1.0 + sign * 0.99e-4))
    inputs += [p.astype(np.float32) for p in inputs[::5]]
    for p in inputs:
        q = quantize(p)
        full = QuantizedDistribution(q.freq)
        assert np.array_equal(full.cum, q.cum)


# ---------------------------------------------------------------------------
# helpers


def skewed_q(hot: int, p_hot: float = 0.99) -> QuantizedDistribution:
    p = np.full(256, (1.0 - p_hot) / 255.0)
    p[hot] = p_hot
    return quantize(p)


def random_q(rng) -> QuantizedDistribution:
    raw = rng.random(256) + 1e-6
    return quantize(raw / raw.sum())


# ---------------------------------------------------------------------------
# round trips


def test_roundtrip_every_byte_value_single_symbol():
    qs = [UNIFORM, skewed_q(0), skewed_q(255), random_q(np.random.default_rng(1))]
    for q in qs:
        for sym in range(256):
            enc = Encoder()
            enc.encode_symbol(sym, q)
            payload = enc.finish()
            assert Decoder(payload).decode_symbol(q) == sym


def test_roundtrip_uniform_zero_stream():
    enc = Encoder()
    for _ in range(5):
        enc.encode_symbol(0, UNIFORM)
    dec = Decoder(enc.finish())
    assert [dec.decode_symbol(UNIFORM) for _ in range(5)] == [0] * 5


def test_roundtrip_100k_random_symbols_random_distributions():
    n = 100_000
    sym_rng = np.random.default_rng(100)
    q_rng = np.random.default_rng(200)
    enc = Encoder()
    symbols = []
    for _ in range(n):
        q = random_q(q_rng)
        s = int(sym_rng.integers(0, 256))
        symbols.append(s)
        enc.encode_symbol(s, q)
    payload = enc.finish()

    q_rng = np.random.default_rng(200)  # replay the same distribution stream
    dec = Decoder(payload)
    for i in range(n):
        q = random_q(q_rng)
        assert dec.decode_symbol(q) == symbols[i], f"mismatch at position {i}"


def test_encoder_decoder_state_trajectories_match():
    rng = np.random.default_rng(5)
    enc = Encoder()
    enc_states = []
    symbols = rng.integers(0, 256, 500)
    qs = [random_q(rng) for _ in range(16)]
    for i, s in enumerate(symbols):
        enc.encode_symbol(int(s), qs[i % 16])
        enc_states.append((enc.low, enc.high))
    payload = enc.finish()
    dec = Decoder(payload)
    for i in range(500):
        got = dec.decode_symbol(qs[i % 16])
        assert got == int(symbols[i])
        assert (dec.low, dec.high) == enc_states[i]


# ---------------------------------------------------------------------------
# size bounds


def cross_entropy_bits(symbols, qs):
    return sum(-math.log2(int(q.freq[s]) / TOTAL) for s, q in zip(symbols, qs))


def test_uniform_coding_costs_one_byte_per_symbol():
    n = 1000
    data = np.random.default_rng(7).integers(0, 256, n)
    enc = Encoder()
    for s in data:
        enc.encode_symbol(int(s), UNIFORM)
    payload = enc.finish()
    assert n <= len(payload) <= n + 4


def test_skewed_stream_compresses_hard():
    q = skewed_q(65)
    enc = Encoder()
    for _ in range(1000):
        enc.encode_symbol(65, q)
    payload = enc.finish()
    assert len(payload) < 30


def test_payload_within_entropy_bound():
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = 2000
        qs = [random_q(rng) for _ in range(50)]
        seq_q = [qs[int(rng.integers(0, 50))] for _ in range(n)]
        symbols = [int(rng.integers(0, 256)) for _ in range(n)]
        enc = Encoder()
        for s, q in zip(symbols, seq_q):
            enc.encode_symbol(s, q)
        payload = enc.finish()
        h = cross_entropy_bits(symbols, seq_q)
        assert 8 * len(payload) <= h + 32
        assert 8 * len(payload) >= h - 64  # sanity: can't beat the model


def test_bits_written_matches_payload_length():
    enc = Encoder()
    for s in range(300):
        enc.encode_symbol(s % 256, UNIFORM)
    payload = enc.finish()
    assert enc.bits_written == 8 * len(payload)


# ---------------------------------------------------------------------------
# stream edge cases


def test_finish_only_stream_is_tiny():
    payload = Encoder().finish()
    assert len(payload) <= 4


def test_finish_twice_raises():
    enc = Encoder()
    enc.encode_symbol(1, UNIFORM)
    enc.finish()
    with pytest.raises(ValueError):
        enc.finish()


def test_encode_after_finish_raises():
    enc = Encoder()
    enc.finish()
    with pytest.raises(ValueError):
        enc.encode_symbol(0, UNIFORM)


def test_corrupted_payload_decodes_totally():
    data = np.random.default_rng(13).integers(0, 256, 1000)
    enc = Encoder()
    for s in data:
        enc.encode_symbol(int(s), UNIFORM)
    payload = bytearray(enc.finish())
    payload[100] ^= 0xFF
    payload[500] ^= 0x0F
    dec = Decoder(bytes(payload))
    out = [dec.decode_symbol(UNIFORM) for _ in range(1000)]
    assert len(out) == 1000
    assert all(0 <= s <= 255 for s in out)
    assert out != [int(s) for s in data]


def test_decoding_past_the_stream_raises():
    dec = Decoder(b"")
    with pytest.raises(ExhaustedStreamError):
        for _ in range(20):
            dec.decode_symbol(UNIFORM)


def test_overdraw_not_triggered_by_normal_padding():
    # decoding exactly what was encoded must never exhaust, even for one symbol
    for sym in (0, 128, 255):
        enc = Encoder()
        enc.encode_symbol(sym, UNIFORM)
        dec = Decoder(enc.finish())
        assert dec.decode_symbol(UNIFORM) == sym
