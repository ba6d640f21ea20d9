"""Backprop gating: a FIFO cache of recent losses whose mean is the bar a
new loss must clear for the step to earn a parameter update.

Push and threshold are O(1) via a running sum. Ties skip, so a perfectly
flat loss stream stops updating; an empty cache always updates, because a
cold model has everything to learn.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class LossCache:
    """Bounded FIFO of cross-entropy values with an O(1) mean."""

    __slots__ = ("capacity", "_entries", "_sum")

    def __init__(self, capacity: int = 16):
        if not isinstance(capacity, int) or capacity <= 0:
            raise ValueError(f"capacity must be a positive int, got {capacity!r}")
        self.capacity = capacity
        self._entries = deque()
        self._sum = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    def push(self, e: float) -> None:
        self._entries.append(e)
        self._sum += e
        if len(self._entries) > self.capacity:
            self._sum -= self._entries.popleft()

    def mean(self) -> float:
        if not self._entries:
            raise ValueError("empty cache has no mean")
        return self._sum / len(self._entries)


def should_backprop(cache: LossCache, e: float) -> bool:
    """Decide, then record: returns True when e exceeds the cache mean (or
    the cache is empty); e always enters the cache afterwards, evicting the
    eldest entry at capacity."""
    decision = True if len(cache) == 0 else e > cache.mean()
    cache.push(e)
    return decision


@dataclass
class DecisionStats:
    decisions: int = 0
    skipped: int = 0

    def record(self, backprop: bool) -> None:
        self.decisions += 1
        if not backprop:
            self.skipped += 1


def skip_fraction(stats: DecisionStats) -> float:
    if stats.decisions <= 0:
        raise ValueError("no decisions recorded")
    return stats.skipped / stats.decisions
