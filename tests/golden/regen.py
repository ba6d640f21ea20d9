"""Golden containers: tiny-config inputs, their containers, and the numpy
build and OpenBLAS kernel family that made them.

`tests/test_golden.py` checks that compress reproduces each container byte
for byte and that decompress returns its input, on the recorded platform
only, and that every container here parses under the current format
version, on any platform. After a deliberate change to the format or to the
training bits, refresh every file here with

    PYTHONPATH=src python tests/golden/regen.py

and commit the result together with the change. The script writes the
files of the cases below and removes no file, so delete the files of a
dropped case by hand.
"""

from __future__ import annotations

import ctypes
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import synthetic_text  # noqa: E402
from trc.model import ModelConfig  # noqa: E402
from trc.pipeline import compress  # noqa: E402

TINY = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)


def _records(n: int) -> bytes:
    """Fixed-width binary records: a counter, a slow field and a tag."""
    out = bytearray()
    for i in range(n // 8 + 1):
        out += i.to_bytes(2, "little") + bytes([i // 16, 0, 0xAA, 0x55, i % 3, 10])
    return bytes(out[:n])


# name -> (input, compress keyword arguments); the config is TINY unless the
# arguments name another. odd-shape pins widths that are no multiple of 8
# floats (hidden 12, FFN 20, 4 per head and per embedded byte), so no weight
# row is a whole number of 8-float vectors. Where each weight lies in memory
# is up to the allocator; test_pipeline's
# test_container_does_not_depend_on_where_the_weights_lie pins that its
# alignment does not change the bits.
CASES = {
    "text-lanes4": (synthetic_text(560, seed=21), {"seed": 1, "lanes": 4}),
    "records-gated": (_records(600), {"seed": 2, "lanes": 2, "controller": True}),
    "text-lane1-lr3e-3": (synthetic_text(300, seed=22), {"seed": 3, "lanes": 1,
                                                         "lr": 3e-3}),
    "odd-shape": (synthetic_text(700, seed=24), {
        "config": ModelConfig(hidden_dim=12, ffn_dim=20, group_size=3, context_len=3,
                              shared_ffn_repeats=2, num_heads=3),
        "seed": 5, "lanes": 3}),
}
PLATFORM_FILE = HERE / "PLATFORM.json"


def kernel_family() -> dict:
    """The numpy version and the OpenBLAS core name numpy's bundled library
    runs on (None if it cannot be read): the scope of the replay contract."""
    core = None
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_char_p, []
                core = fn().decode()
                break
    return {"numpy": np.__version__, "openblas_core": core}


def main() -> None:
    for name, (data, kwargs) in CASES.items():
        container = compress(data, **{"config": TINY, **kwargs}).container
        (HERE / f"{name}.in").write_bytes(data)
        (HERE / f"{name}.trc").write_bytes(container)
        print(f"{name}: {len(data)} B -> {len(container)} B")
    PLATFORM_FILE.write_text(json.dumps(kernel_family(), indent=2) + "\n")
    print(f"{PLATFORM_FILE.name}: {kernel_family()}")


if __name__ == "__main__":
    main()
