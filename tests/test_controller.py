"""Gating semantics: threshold math, FIFO eviction, and the skip statistics."""

import numpy as np
import pytest

from trc.controller import (
    DecisionStats,
    LossCache,
    should_backprop,
    skip_fraction,
)


def test_decision_above_mean_backprops():
    cache = LossCache(capacity=16)
    for e in (1.0, 2.0, 3.0):
        cache.push(e)
    assert should_backprop(cache, 2.5) is True
    assert cache.entries == (1.0, 2.0, 3.0, 2.5)


def test_decision_below_mean_skips():
    cache = LossCache(capacity=16)
    for e in (5.0, 5.0, 5.0):
        cache.push(e)
    assert should_backprop(cache, 4.0) is False


def test_empty_cache_always_backprops():
    cache = LossCache(capacity=4)
    assert should_backprop(cache, 0.0) is True
    assert cache.entries == (0.0,)


def test_tie_with_mean_skips():
    cache = LossCache(capacity=8)
    cache.push(2.0)
    cache.push(2.0)
    assert should_backprop(cache, 2.0) is False


def test_decision_monotone_in_e():
    for e, want in ((3.0001, True), (3.0, False), (2.9999, False)):
        cache = LossCache(capacity=8)
        for _ in range(5):
            cache.push(3.0)
        assert should_backprop(cache, e) is want


def test_fifo_eviction_at_capacity():
    cache = LossCache(capacity=3)
    for e in (1.0, 2.0, 3.0):
        cache.push(e)
    cache.push(4.0)
    assert cache.entries == (2.0, 3.0, 4.0)
    assert len(cache) == 3


def test_fifo_capacity_one_tracks_last_value():
    cache = LossCache(capacity=1)
    should_backprop(cache, 5.0)
    assert should_backprop(cache, 6.0) is True   # 6 > mean([5])
    assert should_backprop(cache, 5.5) is False  # 5.5 < mean([6])
    assert cache.entries == (5.5,)


def test_fifo_capacity_two():
    cache = LossCache(capacity=2)
    for e in (1.0, 9.0, 2.0):
        cache.push(e)
    assert cache.entries == (9.0, 2.0)


def test_running_sum_stays_exact_enough():
    rng = np.random.default_rng(23)
    cache = LossCache(capacity=16)
    for e in rng.random(10_000) * 8.0:
        cache.push(float(e))
        assert abs(cache.mean() - float(np.mean(cache.entries))) < 1e-9


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        LossCache(capacity=0)
    with pytest.raises(ValueError):
        LossCache(capacity=-3)


def test_mean_of_empty_cache_raises():
    with pytest.raises(ValueError):
        LossCache(capacity=4).mean()


def test_replay_gives_identical_decisions():
    rng = np.random.default_rng(29)
    losses = [float(e) for e in rng.random(500) * 6.0]

    def run():
        cache = LossCache(capacity=16)
        return [should_backprop(cache, e) for e in losses]

    assert run() == run()


def test_constant_loss_stream_skips_after_first():
    cache = LossCache(capacity=16)
    stats = DecisionStats()
    for _ in range(100):
        stats.record(should_backprop(cache, 3.5))
    assert stats.decisions == 100
    assert stats.skipped == 99
    assert abs(skip_fraction(stats) - 0.99) < 1e-12


def test_alternating_losses_skip_about_half():
    cache = LossCache(capacity=16)
    stats = DecisionStats()
    for i in range(1000):
        stats.record(should_backprop(cache, 1.0 if i % 2 else 3.0))
    assert 0.4 <= skip_fraction(stats) <= 0.6


def test_skip_fraction_values():
    stats = DecisionStats(decisions=10, skipped=4)
    assert skip_fraction(stats) == 0.4
    stats = DecisionStats(decisions=5, skipped=0)
    assert skip_fraction(stats) == 0.0


def test_skip_fraction_zero_decisions_raises():
    with pytest.raises(ValueError):
        skip_fraction(DecisionStats())
