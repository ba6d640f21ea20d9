"""Tests of the benchmark's own parts. Run from the repo root with

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpora
import layers

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trc.bench import order0_baseline  # noqa: E402
from trc.model import ModelConfig  # noqa: E402
from trc.pipeline import compress, decompress  # noqa: E402

TINY = ModelConfig(hidden_dim=32, ffn_dim=64, num_heads=4)


def _conftest():
    spec = importlib.util.spec_from_file_location("repo_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, seed", [(0, 0), (1, 3), (777, 5), (24576, 0), (3072, 41)])
def test_text_matches_conftest_generator(n, seed):
    assert corpora.synthetic_text(n, seed) == _conftest().synthetic_text(n, seed)


@pytest.mark.parametrize("generate", [corpora.synthetic_text, corpora.binary_records])
def test_generators_are_deterministic_per_seed(generate):
    a = generate(5000, 7)
    assert len(a) == 5000
    assert generate(5000, 7) == a
    assert generate(5000, 8) != a
    assert generate(1234, 7) == a[:1234]


def test_records_have_the_documented_fields():
    data = corpora.binary_records(16 * 50, 3)
    rows = [corpora.RECORD.unpack_from(data, off) for off in range(0, len(data), 16)]
    counters = [r[0] for r in rows]
    assert counters == list(range(counters[0], counters[0] + len(rows)))
    assert {r[2] for r in rows} <= {1, 2, 4, 8}
    assert {r[3] for r in rows} == {b"\x00\x00\x00\x00\xa5\x5a\xff\xff\n"}
    assert len({r[1] for r in rows}) > 10


def test_order0_baseline_rejects_empty_input():
    with pytest.raises(ValueError):
        order0_baseline(b"")


def test_order0_baseline_is_about_8_bpc_on_random_bytes():
    data = random.Random(11).randbytes(20000)
    bpc = 8.0 * order0_baseline(data) / len(data)
    assert 7.95 < bpc < 8.05


def test_flops_per_step_hand_count_tiny_config():
    # tiny config, 2 lanes: b=2, c=8, h=32, H=4 (hk=8), f=64, N=2, vocab=256
    products = [
        (2 * 8, 32, 32),    # K
        (2 * 8, 32, 32),    # V
        (2, 32, 32),        # Q
        (2 * 4, 8, 8),      # scores: per lane and head (1 x 8) @ (8 x 8)
        (2 * 4, 8, 8),      # weighted V: (1 x 8) @ (8 x 8)
        (2, 32, 32),        # W_O
        (2, 32, 64), (2, 64, 32),   # shared FFN, first application
        (2, 32, 64), (2, 64, 32),   # shared FFN, second application
        (2, 32, 256),       # head
    ]
    forward = sum(2 * m * k * n for m, k, n in products)
    assert forward == 141312
    assert layers.flops_per_step(TINY, lanes=2) == 3 * forward


def test_summarize_reports_a_child_outside_its_parent():
    tracer = layers.Tracer()
    parent = tracer.open(tracer.name("pipeline.compress"))
    child = tracer.open(tracer.name("nn.backward"))
    tracer.close(child)
    tracer.close(parent)
    tracer.end[child] = tracer.end[parent] + 1.0
    _, problems = layers.summarize(tracer)
    assert any("outside their parent" in p for p in problems)


def test_traced_round_trip_matches_untraced_and_nests():
    data = corpora.binary_records(600, 2)
    plain = compress(data, TINY, seed=0, lanes=4, controller=True)
    tracer = layers.Tracer()
    with layers.traced(tracer):
        packed = tracer.wrap("pipeline.compress", compress)(
            data, TINY, seed=0, lanes=4, controller=True)
        unpacked = tracer.wrap("pipeline.decompress", decompress)(packed.container)
    assert packed.container == plain.container
    assert unpacked.data == data
    summary, problems = layers.summarize(tracer)
    assert problems == []
    comp = summary["compress"]
    steps = len(data) // 4 - TINY.window
    assert comp["round_trips"] == 1
    assert len(comp["spans"]["coder.encode_symbol"]) == len(data)
    assert len(summary["decompress"]["spans"]["coder.decode_symbol"]) == len(data)
    assert len(comp["spans"]["model.forward_probs"]) == steps
    assert len(comp["spans"]["coder.quantize"]) == 4 * steps
    assert len(comp["spans"]["nn.backward"]) == packed.stats.decisions - packed.stats.skipped
    assert len(comp["spans"]["nn.gelu"]) == TINY.shared_ffn_repeats * steps
    for block in ("model.embed", "model.kv", "model.attn", "model.ffn", "model.head"):
        assert len(comp["spans"][block]) > 0
    assert 0.0 <= comp["self_s"] <= comp["wall_s"]


def test_tracing_patches_are_removed_afterwards():
    import trc.coder
    import trc.model
    import trc.pipeline

    before = (trc.pipeline.forward_probs, trc.coder.Encoder.encode_symbol, trc.model.matmul)
    with layers.traced(layers.Tracer()):
        assert trc.pipeline.forward_probs is not before[0]
    assert (trc.pipeline.forward_probs, trc.coder.Encoder.encode_symbol,
            trc.model.matmul) == before


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "compress_kbps", "decompress_kbps", "bpc", "setup_s", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_traced_run_reports_exactly_the_per_layer_metrics():
    import run

    workload = run.Workload("t", run.TINY, 4, True, corpora.binary_records, 600, 1)
    rt = run.RoundTrips(workload, [corpora.binary_records(600, 4)])
    metrics, ok = run.run_traced(rt, 0.0, layers.Tracer())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ok and rt.failed == 0
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert [metrics[m["name"]]["unit"] for m in spec["per_layer"]] == [
        m["unit"] for m in spec["per_layer"]]
    assert metrics["controller.update_frac"]["value"] < 1.0
