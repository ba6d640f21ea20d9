"""Measurement harness contracts: the latency-per-ratio formula, sweep cell
isolation and its default reference, and the CSV layout. Timing columns are
only checked for shape; ratio columns are deterministic."""

import csv

import pytest

from conftest import synthetic_text
from trc.bench import CSV_HEADER, lcr, run_once, sweep, write_csv
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


def test_run_once_rejects_no_runs():
    with pytest.raises(ValueError):
        run_once(DATA, TINY, seed=1, corpus_id="text", runs=0)
    with pytest.raises(ValueError, match="non-empty"):
        run_once(b"", TINY, seed=1, corpus_id="empty")


def test_run_once_ratio_columns():
    rec = run_once(DATA, TINY, seed=1, corpus_id="text", lanes=4, runs=2)
    assert (rec.config, rec.corpus, rec.in_bytes) == (TINY.label(), "text", len(DATA))
    assert rec.cr == len(DATA) / rec.out_bytes
    assert rec.bpc == pytest.approx(8.0 * rec.out_bytes / len(DATA))
    assert rec.ms_per_mb > 0.0 and rec.skip_frac == 0.0 and rec.lcr is None


def test_sweep_isolates_a_failing_cell_and_defaults_the_reference():
    assert parameter_count(TOO_BIG) > MAX_PARAMETERS
    out = sweep(DATA, [WIDER, TOO_BIG, TINY], seed=1, corpus_id="text", lanes=4, runs=1)
    assert out.reference.config == TINY.label()  # the fewest parameters
    assert [r.config for r in out.records] == [WIDER.label(), TINY.label()]
    assert out.records[1] is out.reference
    assert [label for label, _ in out.failures] == [TOO_BIG.label()]
    assert out.failures[0][1].startswith("ValueError:")
    wider, ref = out.records[0], out.reference
    assert wider.cr != ref.cr
    assert wider.lcr == lcr(wider.ms_per_mb, wider.cr, ref.ms_per_mb, ref.cr)


def test_write_csv_has_the_header_and_a_row_per_record(tmp_path):
    records = [run_once(DATA, cfg, seed=1, corpus_id="text", lanes=4, runs=1)
               for cfg in (TINY, WIDER)]
    records[1].lcr = 1.5
    path = tmp_path / "bench.csv"
    write_csv(records, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_HEADER)
    assert rows[1:] == [[str(v) for v in r.row()] for r in records]
    assert rows[1][-1] == "" and rows[2][-1] == "1.500000"
