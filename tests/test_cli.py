"""The command line through `main(argv)`: a file round trip, the metrics
CSV, and the one-line error report for a bad container."""

import csv
import re

import pytest

from conftest import synthetic_text
from trc.cli import main
from trc.pipeline import HEADER_SIZE

COMPRESS_FLAGS = ["--hidden", "16", "--ffn", "24", "--groups", "2", "--context", "3",
              "--heads", "2", "--lanes", "3", "--seed", "5"]


@pytest.fixture
def packed(tmp_path):
    """A compressed file, its input and its metrics CSV."""
    data = synthetic_text(900, seed=12)
    (tmp_path / "in.txt").write_bytes(data)
    assert main(["compress", str(tmp_path / "in.txt"), str(tmp_path / "in.trc"),
                 "--metrics-out", str(tmp_path / "metrics.csv"), "--chunk-steps", "64",
                 *COMPRESS_FLAGS]) == 0
    return data, tmp_path / "in.trc", tmp_path / "metrics.csv"


def test_compress_then_decompress_restores_the_file(packed, tmp_path):
    data, container, _ = packed
    assert main(["decompress", str(container), str(tmp_path / "out.txt")]) == 0
    assert (tmp_path / "out.txt").read_bytes() == data


def test_metrics_csv_bits_sum_to_the_payload(packed):
    _, container, metrics = packed
    with open(metrics, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["phase"] == "warmup"
    assert len(rows) > 2
    payload_bytes = container.stat().st_size - HEADER_SIZE
    assert sum(int(r["bits_out"]) for r in rows) == 8 * payload_bytes


@pytest.mark.parametrize("corrupt, kind", [
    (lambda blob: b"GZIP" + blob[4:], "BadMagicError"),
    (lambda blob: blob[:HEADER_SIZE - 1], "TruncatedPayloadError"),
    (lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]), "ChecksumMismatchError"),
])
def test_corrupted_container_exits_1_with_one_error_line(packed, tmp_path, capsys,
                                                         corrupt, kind):
    _, container, _ = packed
    container.write_bytes(corrupt(container.read_bytes()))
    capsys.readouterr()
    assert main(["decompress", str(container), str(tmp_path / "out.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"trc: error: {kind}: [^\n]+\n", captured.err)
    assert not (tmp_path / "out.txt").exists()
