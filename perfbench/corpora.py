"""Seeded inputs for the benchmark workloads.

`synthetic_text` reproduces `tests/conftest.synthetic_text` byte for byte, so
figures measured here stay comparable with the ones quoted in ROADMAP.md.
`binary_records` is a non-text input whose per-byte predictability differs
sharply by field, which is what makes the loss-cache controller skip updates.
"""

from __future__ import annotations

import random
import struct

_WORDS = (
    "the of and to a in that it was for on with as his they at be this have "
    "from or one had by word but not what all were when we there can an your "
    "which their said if do will each about how up out them then she many some "
    "so these would other into has more her two like him see time could no "
    "make than first been its who now people my made over did down only way "
    "find use may water long little very after called just where most know get "
    "through back much before go good new write our used me man too any day "
    "same right look think also around another came come work three must "
    "because does part even place well such here take why things help put "
    "years different away again off went old number great tell men say small "
    "every found still between name should home big give air line set own "
    "under read last never us left end along while might next sound below saw "
    "something thought both few those always looked show large often together "
    "asked house world going want school important until form food keep "
    "children feet land side without boy once animal life enough took four "
    "head above kind began almost live page got earth need far hand high year "
    "mother light country father let night picture being study second soon "
    "story since white ever paper hard near sentence better best across "
    "during today however sure knew tried told young sun thing whole hear "
    "example heard several change answer room sea against top turned learn "
    "point city play toward five himself usually money seen didn't car morning "
    "i'm body upon family later turn move face door cut done group true half"
).split()


def synthetic_text(n_bytes: int, seed: int) -> bytes:
    """Deterministic English-like filler: Zipf-ish word choice, sentences,
    paragraphs, numbers, names and ordinary punctuation."""
    rng = random.Random(seed)
    weights = [1.0 / (i + 3) for i in range(len(_WORDS))]
    out = []
    size = 0
    sentence_left = rng.randint(4, 9)
    while size < n_bytes + 64:
        words = rng.choices(_WORDS, weights=weights, k=rng.randint(5, 12))
        for i in range(len(words)):
            r = rng.random()
            if r < 0.065:
                words[i] = str(rng.randint(1, 9999))
            elif r < 0.09:
                words[i] = words[i].capitalize()
            elif r < 0.11:
                words[i] = f'"{words[i]}"'
            elif r < 0.13 and i + 1 < len(words):
                words[i] += rng.choice((",", ",", ";", ":"))
        sentence = " ".join(words)
        sentence = sentence[0].upper() + sentence[1:] + rng.choice((".", ".", ".", "?", "!"))
        sep = " "
        sentence_left -= 1
        if sentence_left <= 0:
            sep = "\n\n"
            sentence_left = rng.randint(4, 9)
        out.append(sentence + sep)
        size += len(sentence) + len(sep)
    return ("".join(out)).encode("ascii")[:n_bytes]


RECORD = struct.Struct("<IhB9s")
_TAGS = (1, 2, 4, 8)
_TAG_WEIGHTS = (0.7, 0.2, 0.07, 0.03)
_TAIL = b"\x00\x00\x00\x00\xa5\x5a\xff\xff\n"
_COUNTER_START = 1_000_000
_LEVEL = 1200


def binary_records(n_bytes: int, seed: int) -> bytes:
    """Fixed-width little-endian records, truncated to n_bytes: a u32 counter,
    an i16 reading with seeded Gaussian noise around a fixed level, a u8 tag
    drawn from four values, and a constant 9-byte tail.

    Only the noise and the tags depend on the seed. A seeded level or counter
    start moves the bpc of the tiny model between seeds by several percent,
    which would swamp the run-to-run comparison the benchmark exists for."""
    rng = random.Random(seed)
    out = bytearray()
    for i in range(-(-n_bytes // RECORD.size)):
        reading = _LEVEL + round(rng.gauss(0.0, 40.0))
        tag = rng.choices(_TAGS, weights=_TAG_WEIGHTS)[0]
        out += RECORD.pack(_COUNTER_START + i, reading, tag, _TAIL)
    return bytes(out[:n_bytes])
