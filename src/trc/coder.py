"""32-bit integer arithmetic coder and the probability-to-frequency bridge.

Frequencies carry 16 bits of precision, so range*frequency products stay
within 48 bits and all arithmetic is exact in 64-bit integers. The encoder
and decoder renormalize identically; compressed size tracks the cross
entropy of the supplied distributions to within a small constant.
"""

from __future__ import annotations

import numpy as np

TOTAL = 1 << 16
_MASK = (1 << 32) - 1
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_Q = 3 << 30
MAX_OVERDRAW = 64  # zero bits the decoder reads past the payload before giving up


class ExhaustedStreamError(ValueError):
    """Decoder ran off the end of the payload by more than its padding slack."""


class QuantizedDistribution:
    """256 positive integer frequencies summing to exactly 2^16."""

    __slots__ = ("freq", "cum")

    def __init__(self, freq):
        freq = np.asarray(freq, dtype=np.int64)
        if freq.shape != (256,):
            raise ValueError(f"need 256 frequencies, got shape {freq.shape}")
        if freq.min() < 1:
            raise ValueError("every symbol needs frequency >= 1")
        total = int(freq.sum())
        if total != TOTAL:
            raise ValueError(f"frequencies sum to {total}, need {TOTAL}")
        self._set(freq)

    @classmethod
    def _trusted(cls, freq: np.ndarray) -> "QuantizedDistribution":
        """Wrap int64 frequencies already known to be valid, skipping the
        checks; for quantize, whose output is valid by construction."""
        q = cls.__new__(cls)
        q._set(freq)
        return q

    def _set(self, freq: np.ndarray) -> None:
        self.freq = freq
        cum = np.empty(257, dtype=np.int64)
        cum[0] = 0
        np.cumsum(freq, out=cum[1:])
        self.cum = cum


def quantize(p) -> QuantizedDistribution:
    """freq[i] = 1 + floor(p[i] * (2^16 - 256)); the leftover (which may be
    slightly negative when sum(p) > 1) goes to the most probable symbol,
    lowest index on ties. Total lands on 2^16 exactly."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (256,):
        raise ValueError(f"need 256 probabilities, got shape {p.shape}")
    if p.min() <= 0.0:
        raise ValueError("probabilities must be strictly positive")
    s = float(p.sum())
    if abs(s - 1.0) > 1e-4:
        raise ValueError(f"probabilities sum to {s!r}, outside 1 +/- 1e-4")
    freq = 1 + np.floor(p * float(TOTAL - 256)).astype(np.int64)
    leftover = TOTAL - int(freq.sum())
    if leftover:
        # argmax freq >= 256 while |leftover| <= ~262, so this stays positive
        freq[int(np.argmax(p))] += leftover
    return QuantizedDistribution._trusted(freq)


UNIFORM = quantize(np.full(256, 1.0 / 256.0))


class Encoder:
    """Streaming arithmetic encoder; finish() seals and returns the payload."""

    __slots__ = ("low", "high", "pending_bits", "bits_written",
                 "_buf", "_acc", "_nbits", "_finished")

    def __init__(self):
        self.low = 0
        self.high = _MASK
        self.pending_bits = 0
        self.bits_written = 0
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0
        self._finished = False

    def _emit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | bit
        self._nbits += 1
        self.bits_written += 1
        if self._nbits == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def _emit_with_pending(self, bit: int) -> None:
        self._emit(bit)
        flip = bit ^ 1
        for _ in range(self.pending_bits):
            self._emit(flip)
        self.pending_bits = 0

    def encode_symbol(self, sym: int, q: QuantizedDistribution) -> None:
        if self._finished:
            raise ValueError("encoder already finished")
        cl = int(q.cum[sym])
        ch = int(q.cum[sym + 1])
        rng = self.high - self.low + 1
        self.high = self.low + (rng * ch >> 16) - 1
        self.low = self.low + (rng * cl >> 16)
        while True:
            if self.high < _HALF:
                self._emit_with_pending(0)
            elif self.low >= _HALF:
                self._emit_with_pending(1)
                self.low -= _HALF
                self.high -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_Q:
                self.pending_bits += 1
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1

    def shifts(self) -> int:
        """Renormalization shifts so far: each one has emitted a bit or
        deferred one. The decoder's count follows the same trajectory."""
        return self.bits_written + self.pending_bits

    def finish(self) -> bytes:
        """Seal the stream. The interval always contains one-half at this
        point (low < HALF <= high), so a single 1 bit plus the deferred
        complement bits pins the value; byte padding with zeros keeps it
        exact. Callable once."""
        if self._finished:
            raise ValueError("finish called twice")
        self._finished = True
        self._emit_with_pending(1)
        while self._nbits:
            self._emit(0)
        return bytes(self._buf)


class Decoder:
    """Mirror of Encoder over a fixed payload; total for arbitrary bytes.

    Reads past the end yield zero bits, which is exactly what the encoder's
    byte padding implies; more than MAX_OVERDRAW such reads means the caller is
    decoding symbols that were never encoded."""

    __slots__ = ("low", "high", "value", "_data", "_bitpos", "_overdrawn")

    def __init__(self, payload: bytes):
        self.low = 0
        self.high = _MASK
        self._data = payload
        self._bitpos = 0
        self._overdrawn = 0
        self.value = 0
        for _ in range(32):
            self.value = (self.value << 1) | self._next_bit()

    def _next_bit(self) -> int:
        byte_i = self._bitpos >> 3
        if byte_i >= len(self._data):
            self._overdrawn += 1
            if self._overdrawn > MAX_OVERDRAW:
                raise ExhaustedStreamError(
                    f"needed {self._overdrawn} bits past the end of a "
                    f"{len(self._data)}-byte payload")
            return 0
        bit = (self._data[byte_i] >> (7 - (self._bitpos & 7))) & 1
        self._bitpos += 1
        return bit

    def shifts(self) -> int:
        """Renormalization shifts so far: one bit read each, past the 32
        that primed `value`; equals the encoder's count at every symbol."""
        return self._bitpos + self._overdrawn - 32

    def decode_symbol(self, q: QuantizedDistribution) -> int:
        rng = self.high - self.low + 1
        target = ((self.value - self.low + 1) * TOTAL - 1) // rng
        sym = int(np.searchsorted(q.cum, target, side="right")) - 1
        cl = int(q.cum[sym])
        ch = int(q.cum[sym + 1])
        self.high = self.low + (rng * ch >> 16) - 1
        self.low = self.low + (rng * cl >> 16)
        while True:
            if self.high < _HALF:
                pass
            elif self.low >= _HALF:
                self.low -= _HALF
                self.high -= _HALF
                self.value -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_Q:
                self.low -= _QUARTER
                self.high -= _QUARTER
                self.value -= _QUARTER
            else:
                break
            self.low <<= 1
            self.high = (self.high << 1) | 1
            self.value = (self.value << 1) | self._next_bit()
        return sym
