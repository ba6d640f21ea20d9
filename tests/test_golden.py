"""Golden containers: compress must reproduce each checked-in container byte
for byte, and decompress must return its input. Any change to the format or
to the training bits fails here first; refresh the files with
`PYTHONPATH=src python tests/golden/regen.py` when the change is meant.

Replay holds only within one numpy build and OpenBLAS kernel family, so
those tests skip where either differs from the one recorded in
PLATFORM.json. Parsing needs no replay: every container here must pass
ContainerHeader.unpack under the current format version on any platform, so
goldens left stale by a format change fail everywhere."""

import json

import pytest

from golden.regen import CASES, HERE, PLATFORM_FILE, TINY, kernel_family
from trc.pipeline import ContainerHeader, compress, decompress


def _require_recorded_platform():
    recorded = json.loads(PLATFORM_FILE.read_text())
    here = kernel_family()
    if here != recorded:
        pytest.skip(f"golden containers come from {recorded}, this is {here}; "
                    "replay holds only within one numpy build and kernel family")


def test_every_golden_container_parses_under_the_current_version():
    paths = sorted(HERE.glob("*.trc"))
    assert sorted(path.stem for path in paths) == sorted(CASES)
    for path in paths:
        header, _ = ContainerHeader.unpack(path.read_bytes())
        assert header.original_length == len((HERE / f"{path.stem}.in").read_bytes())


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
