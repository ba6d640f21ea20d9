"""Benchmark of trc: compress -> decompress round trips through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: paper-text, tiny-text-wide and
tiny-records-gated (see WORKLOADS below and BENCHMARK.json). --seed selects the
input files only; the model seed is fixed, as is the rest of the workload's
configuration. BLAS is held to one thread. Every round trip is
checked: the bytes come back unchanged, the container is the same on every
repeat, and compress and decompress report equal DecisionStats. A round trip
that fails any check counts as failed; the run goes on.

--trace 0 reports the end-to-end metrics: compress_kbps and decompress_kbps
(input KB of 1000 B per second of wall time, median over round trips), bpc
(8 x container bytes / input bytes over the workload's files), setup_s
(median over fresh interpreters of importing trc and building TraceModel)
and peak_rss_mb (peak resident memory of this process over its first
round trip).

--trace 1 alternates untraced and traced round trips on the same files and
reports per-layer metrics from spans recorded around calls into trc (see
layers.py); traced containers must equal the untraced ones. The spans are
written to perfbench/out/spans-<workload>.npz when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Earlier lines print each metric with its unit and a `record` line
with the container SHA-256 of every file and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import corpora

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODEL_SEED = 0
SETUP_REPEATS = 9
PAPER = {}  # ModelConfig defaults: h256 f4096 g4 c8 N2 H8
TINY = {"hidden_dim": 32, "ffn_dim": 64, "num_heads": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict      # ModelConfig keyword arguments
    lanes: int
    controller: bool
    corpus: Callable[[int, int], bytes]   # (n_bytes, seed) -> file
    file_bytes: int
    files: int        # independent files per run, coded one per round trip


WORKLOADS = {w.name: w for w in (
    # float work dominates; a faster nn/model step shows here
    Workload("paper-text", PAPER, 64, False, corpora.synthetic_text, 64 * 48, 1),
    # many lanes per step, so the per-symbol coder boundary is a large share
    Workload("tiny-text-wide", TINY, 256, False, corpora.synthetic_text, 256 * 96, 1),
    # few lanes, so per-step fixed cost dominates; the only controller user.
    # Its bpc varies between seeds far more than text does, so each run
    # codes several files and reports their pooled bpc. Not listed in
    # BENCHMARK.json: on a 2-vCPU VM its kbps medians spread 0.29-0.45
    # (quartile distance over median, 10 seeds), past any allowed bound.
    Workload("tiny-records-gated", TINY, 4, True, corpora.binary_records, 8192, 4),
)}

_SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trc.pipeline
from trc.model import ModelConfig, TraceModel
TraceModel(ModelConfig(**json.loads(sys.argv[2])), int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info() -> dict:
    """BLAS build name and version, plus the kernel family and thread count
    OpenBLAS reports at run time when its library can be found."""
    import ctypes

    import numpy

    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=build.get("name"), version=build.get("version"))
    except (TypeError, KeyError):
        pass
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype, core.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                info.update(kernel=core().decode(), threads=threads())
                return info
    return info


def environment() -> dict:
    import platform

    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_info(), "nproc": len(os.sched_getaffinity(0))}


def measure_setup(workload: Workload) -> float:
    """Median over fresh interpreters of importing trc and building the
    workload's TraceModel, timed inside each child."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC),
             json.dumps(workload.config), str(MODEL_SEED)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class RoundTrips:
    """Runs and checks round trips; keeps one container per file."""

    def __init__(self, workload: Workload, files: list[bytes]):
        from trc.model import ModelConfig

        self.workload = workload
        self.files = files
        self.config = ModelConfig(**workload.config)
        self.containers: list[bytes | None] = [None] * len(files)
        self.attempted = 0
        self.failed = 0
        self.compress_s: list[float] = []
        self.decompress_s: list[float] = []
        self.last = None  # CompressResult of the last passing round trip

    def run(self, i: int, compress, decompress) -> tuple[float, float] | None:
        """One checked round trip of file i: its compress and decompress
        wall times, or None if it failed."""
        data = self.files[i]
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            packed = compress(data, self.config, seed=MODEL_SEED,
                              lanes=self.workload.lanes, controller=self.workload.controller)
            t1 = time.perf_counter()
            unpacked = decompress(packed.container)
            t2 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed round trip is a counted result
            return self._fail(i, f"{type(exc).__name__}: {exc}")
        if unpacked.data != data:
            return self._fail(i, "decompressed bytes differ from the input")
        if unpacked.stats != packed.stats:
            return self._fail(i, f"decision stats differ: compress {packed.stats}, "
                                 f"decompress {unpacked.stats}")
        if self.containers[i] is None:
            self.containers[i] = packed.container
        elif packed.container != self.containers[i]:
            return self._fail(i, "container differs from the first round trip's")
        self.last = packed
        return (t1 - t0, t2 - t1)

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        print(f"round trip of file {i} failed: {why}", file=sys.stderr)
        return None


def kbps(file_bytes: int, seconds: list[float]) -> float:
    return file_bytes / 1000.0 / statistics.median(seconds) if seconds else 0.0


def repeat(files: int, seconds: float, body) -> None:
    """Calls body(i) for i = 0, 1, ...: once per file, then on while the next
    call is expected to end within `seconds` of the first call's start."""
    start = time.perf_counter()
    walls = []
    i = 0
    while i < files or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t = time.perf_counter()
        body(i)
        walls.append(time.perf_counter() - t)
        i += 1


def run_untraced(rt: RoundTrips, seconds: float) -> float:
    """Round trips over the files in turn. Returns the peak resident memory
    in MB as it stood after the first round trip; later round trips only add
    allocator history that a single compress or decompress does not have."""
    from trc.pipeline import compress, decompress

    peak_rss_mb = []

    def body(i):
        times = rt.run(i % len(rt.files), compress, decompress)
        if not peak_rss_mb:
            peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if times is not None:
            rt.compress_s.append(times[0])
            rt.decompress_s.append(times[1])

    repeat(len(rt.files), seconds, body)
    return peak_rss_mb[0]


def run_traced(rt: RoundTrips, seconds: float, tracer) -> tuple[dict, bool]:
    """Pairs of (untraced, traced) round trips on the same file, over the
    files in turn. Returns the per-layer metrics and whether the trace passed
    its checks."""
    import numpy as np

    import layers
    import trc.bench
    from trc.model import parameter_count
    from trc.pipeline import compress, decompress

    traced_compress = tracer.wrap("pipeline.compress", compress)
    traced_decompress = tracer.wrap("pipeline.decompress", decompress)
    plain, traced = [], []
    warmup_frac, decisions, updates = [], [], []

    def body(i):
        f = i % len(rt.files)
        times = rt.run(f, compress, decompress)
        if times is None:
            return
        rt.compress_s.append(times[0])
        rt.decompress_s.append(times[1])
        plain.append(sum(times))
        with layers.traced(tracer):
            times = rt.run(f, traced_compress, traced_decompress)
        if times is None:
            return
        traced.append(sum(times))
        m, stats = rt.last.metrics, rt.last.stats
        warmup_frac.append(m.warmup_bits / m.total_bits_out)
        decisions.append(stats.decisions)
        updates.append(stats.decisions - stats.skipped)

    repeat(len(rt.files), seconds, body)

    summary, problems = layers.summarize(tracer)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    n = {d: max(1, s["round_trips"]) for d, s in summary.items()}
    for direction, s in summary.items():
        for name, durs in s["spans"].items():
            us = durs * 1e6
            put(f"{direction}.{name}.busy_s", durs.sum() / n[direction], "s")
            put(f"{direction}.{name}.calls", len(durs) / n[direction], "count")
            put(f"{direction}.{name}.p50_us", np.percentile(us, 50) if len(us) else 0.0, "us")
            put(f"{direction}.{name}.p90_us", np.percentile(us, 90) if len(us) else 0.0, "us")
        put(f"{direction}.pipeline.self_s", s["self_s"] / n[direction], "s")

    comp, decomp = summary["compress"]["spans"], summary["decompress"]["spans"]
    symbols = len(comp["coder.encode_symbol"])
    steps = len(comp["model.forward_probs"])
    if (symbols != len(decomp["coder.decode_symbol"])
            or steps != len(decomp["model.forward_probs"])):
        problems.append("compress and decompress traced different work")
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    put("coder.symbols", symbols / n["compress"], "count")
    put("coder.warmup_bits_frac", statistics.fmean(warmup_frac) if warmup_frac else 0.0,
        "fraction")
    put("pipeline.steps", steps / n["compress"], "count")
    put("pipeline.lane_fill",
        len(comp["coder.quantize"]) / (steps * rt.workload.lanes) if steps else 0.0, "fraction")
    put("controller.decisions", sum(decisions) / n["compress"], "count")
    put("controller.updates", sum(updates) / n["compress"], "count")
    put("controller.update_frac", sum(updates) / sum(decisions) if sum(decisions) else 0.0,
        "fraction")
    put("nn.flops_per_step", layers.flops_per_step(rt.config, rt.workload.lanes), "flop_computed")
    put("nn.adam_bytes_per_step", layers.adam_bytes_per_step(parameter_count(rt.config)),
        "B_computed")
    data = b"".join(rt.files)
    put("bench.order0_bpc", 8.0 * trc.bench.order0_baseline(data) / len(data), "bit/byte")
    put("trace.overhead_frac",
        statistics.median(traced) / statistics.median(plain) - 1.0 if traced else 0.0,
        "fraction")
    return metrics, not problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trc" / "__init__.py").is_file():
        print(f"error: no trc package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    # One process, BLAS held to one thread; set before numpy is first loaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import trc

    if Path(trc.__file__).resolve().parent != SRC / "trc":
        print(f"error: imported trc from {trc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    files = [w.corpus(w.file_bytes, args.seed * w.files + k) for k in range(w.files)]
    rt = RoundTrips(w, files)
    total_in = sum(len(f) for f in files)
    print(f"{w.name} seed {args.seed}: {w.files} x {w.file_bytes} B {w.corpus.__name__}, "
          f"{rt.config.label()}, {w.lanes} lanes, "
          f"controller {'on' if w.controller else 'off'}, model seed {MODEL_SEED}")

    if args.trace:
        import layers

        tracer = layers.Tracer()
        metrics, checks_ok = run_traced(rt, args.seconds, tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{w.name}.npz")
    else:
        setup_s = measure_setup(w)
        peak_rss_mb = run_untraced(rt, args.seconds)
        container_bytes = sum(len(c) for c in rt.containers if c is not None)
        metrics = {
            "compress_kbps": {"value": kbps(w.file_bytes, rt.compress_s), "unit": "KB/s"},
            "decompress_kbps": {"value": kbps(w.file_bytes, rt.decompress_s), "unit": "KB/s"},
            "bpc": {"value": 8.0 * container_bytes / total_in, "unit": "bit/byte"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        checks_ok = True

    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "round_trips": rt.attempted,
        "compress_s": [round(t, 4) for t in rt.compress_s],
        "decompress_s": [round(t, 4) for t in rt.decompress_s],
        "container_sha256": [hashlib.sha256(c).hexdigest() if c else None
                             for c in rt.containers],
        "env": environment(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    correct = (checks_ok and rt.failed == 0
               and all(c is not None for c in rt.containers))
    print(json.dumps({"correct": correct, "attempted": rt.attempted,
                      "failed": rt.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
