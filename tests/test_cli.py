"""The command line through `main(argv)` and `python -m trc`: a file round
trip, the metrics CSV of both directions, written before the output file,
the one-line error report for a bad container, job flags that default to
the code's own defaults and reach every command, and the sweep's cells, its
reference and its failing cells, an illegal shape among them, which stop no
other cell."""

import csv
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import synthetic_text
import trc
import trc.bench
from trc.bench import sweep
from trc.cli import _job, build_parser, main
from trc.model import ModelConfig, parameter_count
from trc.pipeline import HEADER_SIZE, compress

COMPRESS_FLAGS = ["--hidden", "16", "--ffn", "24", "--groups", "2", "--context", "3",
              "--heads", "2", "--lanes", "3", "--seed", "5"]
BASE = ModelConfig(hidden_dim=16, ffn_dim=24, group_size=2, context_len=3, num_heads=2)


@pytest.fixture
def packed(tmp_path):
    """A compressed file, its input and its metrics CSV."""
    data = synthetic_text(900, seed=12)
    (tmp_path / "in.txt").write_bytes(data)
    assert main(["compress", str(tmp_path / "in.txt"), str(tmp_path / "in.trc"),
                 "--metrics-out", str(tmp_path / "metrics.csv"), *COMPRESS_FLAGS]) == 0
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


def test_decompress_writes_the_compress_trace_apart_from_wall_time(packed, tmp_path):
    _, container, metrics = packed
    back = tmp_path / "back.csv"
    assert main(["decompress", str(container), str(tmp_path / "out.txt"),
                 "--metrics-out", str(back)]) == 0
    traces = []
    for path in (metrics, back):
        with open(path, newline="", encoding="utf-8") as fh:
            traces.append([{k: v for k, v in r.items() if k != "wall_s"}
                           for r in csv.DictReader(fh)])
    assert len(traces[0]) > 2
    assert traces[0] == traces[1]


def test_a_trace_that_cannot_be_written_leaves_no_output_file(packed, tmp_path, capsys):
    _, container, _ = packed
    bad = str(tmp_path / "nodir" / "m.csv")
    capsys.readouterr()
    assert main(["compress", str(tmp_path / "in.txt"), str(tmp_path / "out.trc"),
                 "--metrics-out", bad, *COMPRESS_FLAGS]) == 1
    assert main(["decompress", str(container), str(tmp_path / "out.txt"),
                 "--metrics-out", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"(trc: error: FileNotFoundError: [^\n]+\n){2}", captured.err)
    assert not (tmp_path / "out.trc").exists()
    assert not (tmp_path / "out.txt").exists()


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


def test_compress_flags_default_to_the_code():
    config, job = _job(build_parser().parse_args(["compress", "in", "out"]))
    assert config == ModelConfig()
    defaults = {name: p.default for name, p in inspect.signature(compress).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
    assert job == defaults and job["seed"] == 0


def test_sweep_honours_the_job_flags(tmp_path):
    data = synthetic_text(600, seed=12)
    (tmp_path / "in.txt").write_bytes(data)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path / "in.txt"), "--axis", "hidden=16", "--runs", "1",
                 "--csv-out", str(out), "--bp-controller", *COMPRESS_FLAGS]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    (rec,), _ = sweep(data, [BASE], runs=1, seed=5, lanes=3, controller=True)
    assert rec.skip_frac > 0.0
    assert (int(row["out_bytes"]), float(row["skip_frac"])) == (
        rec.out_bytes, round(rec.skip_frac, 6))


def run_sweep(tmp_path, capsys, *argv, data=synthetic_text(300, seed=8)):
    """Exit code, CSV rows (None if none was written) and stderr of one
    `trc sweep` over `data` with COMPRESS_FLAGS and one timing run."""
    (tmp_path / "in.txt").write_bytes(data)
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    code = main(["sweep", str(tmp_path / "in.txt"), "--runs", "1", "--csv-out", str(out),
                 *COMPRESS_FLAGS, *argv])
    rows = None
    if out.exists():
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    return code, rows, capsys.readouterr().err


def test_sweep_reference_is_the_first_cell_with_fewest_parameters(tmp_path, capsys):
    cells = [dataclasses.replace(BASE, shared_ffn_repeats=n) for n in (1, 2)]
    assert parameter_count(cells[0]) == parameter_count(cells[1])
    code, rows, err = run_sweep(tmp_path, capsys, "--axis", "shared-ffn=1,2")
    assert (code, err) == (0, "")
    assert [r["config"] for r in rows] == [c.label() for c in cells]
    assert rows[0]["cr"] != rows[1]["cr"]
    assert rows[0]["lcr"] == "" and rows[1]["lcr"] != ""


def test_sweep_reports_a_failing_cell_and_writes_the_others(tmp_path, capsys):
    code, rows, err = run_sweep(tmp_path, capsys, "--axis", "ffn=24,70000")
    assert code == 0
    assert [r["config"] for r in rows] == [BASE.label()]
    bad = dataclasses.replace(BASE, ffn_dim=70000).label()
    assert re.fullmatch(rf"trc: sweep cell {bad} failed: ValueError: [^\n]+\n", err)


def test_a_cell_with_an_illegal_shape_fails_like_any_other(tmp_path, capsys):
    # the later --groups and --context win over COMPRESS_FLAGS'; heads=3
    # does not divide hidden 16, a shape only the header check refuses
    code, rows, err = run_sweep(tmp_path, capsys, "--groups", "4", "--context", "8",
                                "--axis", "heads=2,3")
    assert code == 0
    assert [r["config"] for r in rows] == ["h16-f24-g4-c8-N2-H2"]
    assert err == ("trc: sweep cell h16-f24-g4-c8-N2-H3 failed: ValueError: "
                   "hidden_dim 16 not divisible by num_heads 3\n")


def test_two_axis_flags_give_the_cells_of_the_old_multi_field_spec(tmp_path, capsys):
    # the cells `--axis hidden=12,16,ffn=20,24` used to give; hidden=16 and
    # ffn=24 both name the base cell, which gets one row
    code, rows, err = run_sweep(tmp_path, capsys, "--axis", "hidden=12,16",
                                "--axis", "ffn=20,24")
    assert (code, err) == (0, "")
    assert [r["config"] for r in rows] == [
        dataclasses.replace(BASE, hidden_dim=12).label(), BASE.label(),
        dataclasses.replace(BASE, ffn_dim=20).label()]


@pytest.mark.parametrize("spec", ["hidden=12,ffn=20", "hidden=", "lanes=2", "hidden"])
def test_a_malformed_axis_exits_1_naming_the_form(tmp_path, capsys, spec):
    code, rows, err = run_sweep(tmp_path, capsys, "--axis", spec)
    assert (code, rows) == (1, None)
    assert re.fullmatch(r"trc: error: ValueError: expected --axis name=v1,v2 [^\n]+\n", err)


def test_a_failing_cell_stops_no_other_in_either_order(tmp_path, capsys):
    # both cells have the same parameter count, so the invalid one is the
    # fewest-parameter cell when it comes first
    bad, good = (dataclasses.replace(BASE, shared_ffn_repeats=n) for n in (70000, 2))
    assert parameter_count(bad) == parameter_count(good)
    columns = []
    for values in ("70000,2", "2,70000"):
        code, rows, err = run_sweep(tmp_path, capsys, "--axis", f"shared-ffn={values}")
        assert code == 0
        assert re.fullmatch(rf"trc: sweep cell {bad.label()} failed: ValueError: "
                            r"shared_ffn_repeats [^\n]+\n", err)
        columns.append([(r["config"], r["out_bytes"], r["cr"], r["lcr"]) for r in rows])
    assert columns[0] == columns[1]
    assert [(config, lcr) for config, _, _, lcr in columns[0]] == [(good.label(), "")]


def test_a_sweep_in_which_no_cell_ran_exits_1_with_one_error_line(tmp_path, capsys):
    code, rows, err = run_sweep(tmp_path, capsys, "--axis", "ffn=70000,80000")
    assert (code, rows) == (1, None)
    bad = dataclasses.replace(BASE, ffn_dim=70000).label()
    assert re.fullmatch(rf"trc: error: ValueError: no sweep cell ran; the first, {bad}, "
                        r"failed: ValueError: ffn_dim [^\n]+\n", err)


@pytest.mark.parametrize("data, argv", [(b"", []), (b"abc", ["--runs", "0"])])
def test_an_empty_corpus_or_no_runs_exits_1_before_any_compress(tmp_path, capsys,
                                                                monkeypatch, data, argv):
    calls = []
    monkeypatch.setattr(trc.bench, "compress", lambda *a, **k: calls.append(a))
    code, rows, err = run_sweep(tmp_path, capsys, "--axis", "hidden=12,16", *argv, data=data)
    assert (code, rows, calls) == (1, None, [])
    assert re.fullmatch(r"trc: error: ValueError: [^\n]+\n", err)


def test_sweep_has_no_reference_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_sweep(tmp_path, capsys, "--axis", "hidden=12,16", "--reference", "hidden=16")
    assert exc.value.code == 2
    assert "unrecognized arguments: --reference" in capsys.readouterr().err


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "corpus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_python_m_trc_round_trip_and_error(tmp_path):
    data = synthetic_text(300, seed=3)
    (tmp_path / "in.txt").write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(Path(trc.__file__).resolve().parent.parent)}

    def trc_cli(*argv):
        return subprocess.run([sys.executable, "-m", "trc", *argv], capture_output=True,
                              text=True, timeout=120, env=env, cwd=tmp_path)

    assert trc_cli("compress", "in.txt", "in.trc", *COMPRESS_FLAGS).returncode == 0
    assert trc_cli("decompress", "in.trc", "out.txt").returncode == 0
    assert (tmp_path / "out.txt").read_bytes() == data
    blob = (tmp_path / "in.trc").read_bytes()
    (tmp_path / "in.trc").write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    bad = trc_cli("decompress", "in.trc", "bad.txt")
    assert bad.returncode == 1
    assert re.fullmatch(r"trc: error: ChecksumMismatchError: [^\n]+\n", bad.stderr)
