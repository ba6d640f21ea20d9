"""Byte-wise range coder and the probability-to-frequency bridge.

The coder is a carryless range coder (G. N. N. Martin, "Range encoding",
1979, in Subbotin's carryless form). Its state is an interval
[low, low + range) inside [0, 2^32). Coding a symbol narrows the interval
to the symbol's share, using the exact quotients range * cum // T, where
T = cum[256] is the table's total, at most 2^16: the products stay within
48 bits, so all arithmetic is exact in Python integers and identical in both
directions, and at T = 2^16 each quotient is the shift range * cum >> 16.
Whenever the top bytes of low and low + range - 1 agree, that byte is
settled and leaves the state, so renormalization moves a whole byte at a
time and keeps no pending state. A range below 2^16 that still straddles a
byte boundary is cut to the next 2^16 boundary, which costs a little coding
efficiency and never carries. Compressed size tracks the cross entropy of
the supplied distributions to within a small constant.

The decoder is total: on any payload it returns a symbol for every call, or
raises ExhaustedStreamError once it has read more than MAX_OVERDRAW bytes
past the end. It never leaves its state space, because it takes
code - low modulo 2^32 and clamps the target frequency into [0, T).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

TOTAL = 1 << 16  # quantize's total, and the largest total a table may have
_MASK = (1 << 32) - 1
_TOP = 1 << 24  # unit of the top byte of a 32-bit value
_BOT = 1 << 16  # least range that codes every frequency >= 1 to a nonempty range
MAX_OVERDRAW = 8  # zero bytes the decoder reads past the payload before giving up
_SCALE = float(TOTAL - 256)  # quantize's share above the 1 each symbol keeps
_RAMP = np.arange(257, dtype=np.int64)  # those 1s, accumulated


class ExhaustedStreamError(ValueError):
    """Decoder ran off the end of the payload by more than its padding slack."""


def quantize(p) -> np.ndarray:
    """The coder's distribution for probabilities p: 257 int64 cumulative
    frequencies cum, with cum[0] = 0, cum[256] = 2^16 and symbol s owning
    [cum[s], cum[s+1]), at least 1 wide.

    freq[i] = 1 + floor(p[i] * (2^16 - 256)); the leftover (which may be
    slightly negative when sum(p) > 1) goes to the most probable symbol,
    lowest index on ties. Total lands on 2^16 exactly.

    cum is built in place, with no freq array: the floors are cast straight
    into cum[1:] (truncation is floor, as every p[i] > 0), accumulated, and
    raised by k for the 1s, so cum[k] = k + sum_{i<k} floor(p[i] * 65280);
    the leftover is then added to cum[argmax + 1:]. The pipeline hands it
    the model's float32 rows; p is widened to float64 first, which is
    exact, so a float32 p gives the same table as its float64 copy."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (256,):
        raise ValueError(f"need 256 probabilities, got shape {p.shape}")
    # written so that NaN fails both checks; the ufunc reductions are what
    # p.min() and p.sum() call, without their Python wrappers
    if not np.minimum.reduce(p) > 0.0:
        raise ValueError("probabilities must be strictly positive")
    s = float(np.add.reduce(p))
    if not abs(s - 1.0) <= 1e-4:
        raise ValueError(f"probabilities sum to {s!r}, outside 1 +/- 1e-4")
    cum = np.zeros(257, dtype=np.int64)
    np.multiply(p, _SCALE, out=cum[1:], casting="unsafe")
    np.add.accumulate(cum, out=cum)
    cum += _RAMP
    leftover = TOTAL - int(cum[256])
    if leftover:
        # argmax freq >= 256 while |leftover| <= ~262, so this stays positive
        cum[p.argmax() + 1:] += leftover
    return cum


def max_symbols(payload_bytes: int) -> int:
    """The most symbols a Decoder over a payload of this many bytes can
    return before it raises ExhaustedStreamError.

    A symbol shrinks the range by a factor below 65282/65536, more than
    0.0056 bits: under a table of total T <= 2^16 the likeliest frequency
    is T - 255, a share of at most 1 - 255/2^16, and flooring both ends of
    the share adds less than 1 to the range, which is at least 2^16 before
    every symbol, so less than 1/2^16 of it. Each byte shifted in widens the
    range by 8 bits. The range starts at 2^32 and is at least 2^16 after
    every symbol, and the decoder shifts in at most
    payload_bytes + MAX_OVERDRAW - 4 bytes, so k symbols need
    0.0056 k < 16 + 8 (payload_bytes + MAX_OVERDRAW - 4)."""
    return (8 * (payload_bytes + MAX_OVERDRAW) - 16) * 10_000 // 56


class Encoder:
    """Streaming range encoder; finish() seals and returns the payload."""

    __slots__ = ("low", "range", "_buf", "_finished")

    def __init__(self):
        self.low = 0
        self.range = 1 << 32
        self._buf = bytearray()
        self._finished = False

    def encode_symbol(self, sym: int, cum: np.ndarray) -> None:
        """Code sym under cum: 257 cumulative frequencies from cum[0] = 0,
        every symbol at least 1 wide, and a total T = cum[256] of at most
        2^16, which the range, at least 2^16, then always splits into
        nonempty shares."""
        if self._finished:
            raise ValueError("encoder already finished")
        rng, total = self.range, int(cum[256])
        lo = rng * int(cum[sym]) // total
        low = self.low + lo
        rng = rng * int(cum[sym + 1]) // total - lo
        while True:
            if (low ^ (low + rng - 1)) >= _TOP:
                if rng >= _BOT:
                    break
                rng = _BOT - (low & (_BOT - 1))
            self._buf.append(low >> 24)
            low = (low << 8) & _MASK
            rng <<= 8
        self.low, self.range = low, rng

    def shifts(self) -> int:
        """Bits shifted out so far, 8 per byte; the decoder's count follows
        the same trajectory, and after finish() it is 8 x payload bytes."""
        return 8 * len(self._buf)

    def finish(self) -> bytes:
        """Seal the stream. The interval straddles a byte boundary, so it
        holds the multiple of 2^24 at or above low; its top byte, followed
        by the zeros the decoder reads past the end, pins that value.
        Callable once."""
        if self._finished:
            raise ValueError("finish called twice")
        self._finished = True
        self._buf.append((self.low + _TOP - 1) >> 24)
        return bytes(self._buf)


class Decoder:
    """Mirror of Encoder over a fixed payload; total for arbitrary bytes.

    The payload is read with MAX_OVERDRAW zero bytes appended, the zeros
    the encoder's seal implies; a read past them means the caller is
    decoding symbols that were never encoded."""

    __slots__ = ("low", "range", "code", "_data", "_pos")

    def __init__(self, payload: bytes):
        self.low = 0
        self.range = 1 << 32
        self._data = bytes(payload) + bytes(MAX_OVERDRAW)
        self.code = int.from_bytes(self._data[:4], "big")
        self._pos = 4

    def shifts(self) -> int:
        """Bits shifted in so far, 8 per byte past the 4 that primed `code`;
        equals the encoder's count at every symbol."""
        return 8 * (self._pos - 4)

    def decode_symbol(self, cum: np.ndarray) -> int:
        low, rng = self.low, self.range
        # the symbol is the last whose rng * cum // T is at most code - low,
        # that is, whose cum is at most target; a memoryview's items are
        # Python ints, so bisect's probes box no numpy scalars
        cum = memoryview(cum)
        total = cum[256]
        offset = (self.code - low) & _MASK
        target = min(((offset + 1) * total - 1) // rng, total - 1)
        sym = bisect_right(cum, target) - 1
        lo = rng * cum[sym] // total
        low += lo
        rng = rng * cum[sym + 1] // total - lo
        while True:
            if (low ^ (low + rng - 1)) >= _TOP:
                if rng >= _BOT:
                    break
                rng = _BOT - (low & (_BOT - 1))
            try:
                self.code = ((self.code << 8) | self._data[self._pos]) & _MASK
            except IndexError:
                raise ExhaustedStreamError(
                    f"needed {MAX_OVERDRAW + 1} bytes past the end of a "
                    f"{len(self._data) - MAX_OVERDRAW}-byte payload") from None
            self._pos += 1
            low = (low << 8) & _MASK
            rng <<= 8
        self.low, self.range = low, rng
        return sym
