"""Measurement harness contracts: the latency-per-ratio formula, the sweep's
job checks, its cell isolation and its reference, and the CSV layout.
Timing columns are only checked for shape; ratio columns are deterministic."""

import csv

import pytest

from conftest import synthetic_text
import trc.bench
from trc.bench import CSV_HEADER, lcr, sweep, write_csv
from trc.model import MAX_PARAMETERS, ModelConfig, parameter_count

TINY = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)
WIDER = ModelConfig(hidden_dim=32, ffn_dim=128, num_heads=4)
TOO_BIG = ModelConfig(hidden_dim=4096, ffn_dim=8192)
DATA = synthetic_text(300, seed=4)


def test_lcr_closed_form_and_equal_ratios():
    assert lcr(30.0, 2.5, 10.0, 2.0) == pytest.approx(40.0)
    assert lcr(5.0, 1.5, 10.0, 2.0) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="undefined"):
        lcr(30.0, 2.0, 10.0, 2.0)


def test_sweep_rejects_an_empty_corpus_and_no_runs():
    with pytest.raises(ValueError, match="runs must be positive"):
        sweep(DATA, [TINY], seed=1, corpus_id="text", runs=0)
    with pytest.raises(ValueError, match="non-empty"):
        sweep(b"", [TINY], seed=1, corpus_id="empty")


def test_one_cell_sweep_ratio_columns():
    (rec,), failures = sweep(DATA, [TINY], seed=1, corpus_id="text", lanes=4, runs=2)
    assert failures == []
    assert (rec.config, rec.corpus, rec.in_bytes) == (TINY, "text", len(DATA))
    assert rec.row()[0] == TINY.label()
    assert rec.cr == len(DATA) / rec.out_bytes
    assert rec.bpc == pytest.approx(8.0 * rec.out_bytes / len(DATA))
    assert rec.ms_per_mb > 0.0 and rec.skip_frac == 0.0 and rec.lcr is None


def test_sweep_isolates_a_failing_cell_and_defaults_the_reference():
    assert parameter_count(TOO_BIG) > MAX_PARAMETERS
    records, failures = sweep(DATA, [WIDER, TOO_BIG, TINY], seed=1, corpus_id="text",
                              lanes=4, runs=1)
    assert [r.config for r in records] == [WIDER, TINY]
    assert [label for label, _ in failures] == [TOO_BIG.label()]
    assert failures[0][1].startswith("ValueError:")
    wider, ref = records  # TINY has the fewest parameters
    assert wider.cr != ref.cr and ref.lcr is None
    assert wider.lcr == lcr(wider.ms_per_mb, wider.cr, ref.ms_per_mb, ref.cr)


def test_sweep_records_a_nondeterministic_cell_and_writes_the_other(monkeypatch, tmp_path):
    calls = []
    real = trc.bench.compress

    def flaky(data, config, **job):
        res = real(data, config, **job)
        calls.append(config)
        if config == WIDER and calls.count(WIDER) == 2:
            res.container += b"\0"
        return res

    monkeypatch.setattr(trc.bench, "compress", flaky)
    records, failures = sweep(DATA, [WIDER, TINY], seed=1, corpus_id="text", lanes=4, runs=2)
    assert calls == [WIDER, WIDER, TINY, TINY]
    assert failures == [(WIDER.label(),
                         "AssertionError: nondeterministic compress in benchmark")]
    write_csv(records, tmp_path / "bench.csv")
    with open(tmp_path / "bench.csv", newline="", encoding="utf-8") as fh:
        assert [row["config"] for row in csv.DictReader(fh)] == [TINY.label()]


def test_write_csv_has_the_header_and_a_row_per_record(tmp_path):
    records, _ = sweep(DATA, [TINY, WIDER], seed=1, corpus_id="text", lanes=4, runs=1)
    records[1].lcr = 1.5
    path = tmp_path / "bench.csv"
    write_csv(records, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_HEADER)
    assert rows[1:] == [[str(v) for v in r.row()] for r in records]
    assert rows[1][-1] == "" and rows[2][-1] == "1.500000"
