"""Shared test helpers: finite-difference oracle, a float64 model for
gradient checks, and a seeded text generator."""

from __future__ import annotations

import random

import numpy as np


def numeric_grad(loss_fn, arrays, step=1e-3):
    """Central finite differences of loss_fn w.r.t. each float64 array, in place.

    loss_fn takes no arguments and must re-run the full forward pass reading
    the current contents of `arrays`. Returns one gradient array per input.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(loss_fn())
            flat[i] = keep - step
            lo = float(loss_fn())
            flat[i] = keep
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def float64_model(config, seed):
    """TraceModel(config, seed) with every parameter widened to float64, so
    the whole forward and backward run in float64."""
    from trc.model import _INIT_ORDER, TraceModel
    from trc.nn import Parameter

    model = TraceModel(config, seed)
    for name in _INIT_ORDER:
        setattr(model, name, Parameter(getattr(model, name).value.astype(np.float64)))
    return model


def assert_grads_close(analytic, numeric, rtol=1e-3, atol=1e-6):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    diff = np.abs(analytic - numeric)
    tol = atol + rtol * np.maximum(np.abs(analytic), np.abs(numeric))
    worst = float((diff - tol).max())
    assert np.all(diff <= tol), (
        f"gradient mismatch: worst excess {worst:.3e}, "
        f"max |analytic|={np.abs(analytic).max():.3e}, max |fd|={np.abs(numeric).max():.3e}"
    )


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
    paragraphs, numbers, names, and ordinary punctuation. The byte histogram
    lands in the usual mixed-case English order-0 region (around 4.5-5 bits
    per character) while the word structure stays highly learnable."""
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
