"""Golden containers: compress must reproduce each checked-in container byte
for byte, and decompress must return its input. Any change to the format or
to the training bits fails here first; refresh the files with
`PYTHONPATH=src python tests/golden/regen.py` when the change is meant.

Replay holds only within one numpy build and OpenBLAS kernel family, so the
tests skip where either differs from the one recorded in PLATFORM.json."""

import json

import pytest

from golden.regen import CASES, HERE, PLATFORM_FILE, TINY, kernel_family
from trc.pipeline import compress, decompress


def _require_recorded_platform():
    recorded = json.loads(PLATFORM_FILE.read_text())
    here = kernel_family()
    if here != recorded:
        pytest.skip(f"golden containers come from {recorded}, this is {here}; "
                    "replay holds only within one numpy build and kernel family")


@pytest.mark.parametrize("name", sorted(CASES))
def test_compress_reproduces_golden_container(name):
    _require_recorded_platform()
    data, kwargs = CASES[name]
    assert (HERE / f"{name}.in").read_bytes() == data
    want = (HERE / f"{name}.trc").read_bytes()
    assert len(want) < 1024
    assert compress(data, **{"config": TINY, **kwargs}).container == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_decompress_returns_golden_input(name):
    _require_recorded_platform()
    container = (HERE / f"{name}.trc").read_bytes()
    assert decompress(container).data == (HERE / f"{name}.in").read_bytes()
