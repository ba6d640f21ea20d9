"""Measurement harness: per-config records, the latency-per-ratio metric,
structure sweeps, and an order-0 coding baseline.

Compression columns of every record are deterministic given (corpus, seed,
config); timing columns are whatever this machine did today, so tests gate
on the former and only report the latter.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .coder import Encoder, quantize
from .model import ModelConfig, parameter_count
from .pipeline import compress

CSV_HEADER = ("config", "corpus", "in_bytes", "out_bytes", "cr", "bpc",
              "ms_per_mb", "skip_frac", "lcr")


@dataclass
class BenchRecord:
    config: str
    corpus: str
    in_bytes: int
    out_bytes: int
    ms_per_mb: float
    skip_frac: float
    lcr: float | None = None

    @property
    def cr(self) -> float:
        return self.in_bytes / self.out_bytes

    @property
    def bpc(self) -> float:
        return 8.0 * self.out_bytes / self.in_bytes

    def row(self) -> list:
        return [self.config, self.corpus, self.in_bytes, self.out_bytes,
                repr(self.cr), repr(self.bpc), f"{self.ms_per_mb:.3f}",
                f"{self.skip_frac:.6f}",
                "" if self.lcr is None else f"{self.lcr:.6f}"]


def lcr(t_i: float, cr_i: float, t_0: float, cr_0: float) -> float:
    """Latency increment per unit of compression-ratio improvement; for two
    records, lcr(a.ms_per_mb, a.cr, b.ms_per_mb, b.cr) measures a against b."""
    if cr_i == cr_0:
        raise ValueError(
            f"latency-per-ratio undefined: both configs reach cr={cr_i!r} "
            f"(reference cr={cr_0!r})")
    return (t_i - t_0) / (cr_i - cr_0)


def run_once(data: bytes, config: ModelConfig, *, corpus_id: str, runs: int = 3,
             **job) -> BenchRecord:
    """Compress `data` `runs` times with compress's keyword arguments `job`
    (seed included); ratio columns from the (identical) containers, latency
    as the median wall time per input MB."""
    if not data:
        raise ValueError("a benchmark run needs a non-empty corpus")
    if runs < 1:
        raise ValueError(f"runs must be positive, got {runs}")
    walls = []
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        res = compress(data, config, **job)
        walls.append(time.perf_counter() - t0)
        if result is not None and res.container != result.container:
            raise AssertionError("nondeterministic compress in benchmark")
        result = res
    return BenchRecord(
        config=config.label(), corpus=corpus_id, in_bytes=len(data),
        out_bytes=len(result.container),
        ms_per_mb=1000.0 * statistics.median(walls) / (len(data) / 1e6),
        skip_frac=result.skip_fraction)


@dataclass
class SweepResult:
    records: list = field(default_factory=list)
    reference: BenchRecord | None = None
    failures: list = field(default_factory=list)


def sweep(data: bytes, cells: list[ModelConfig], *, corpus_id: str = "corpus",
          **job) -> SweepResult:
    """Run every cell on the same corpus and job (run_once's keyword
    arguments) and fill in each record's latency-per-ratio against the
    reference: the cell with the fewest parameters, the first on a tie. The
    reference runs first and its failure raises; any other cell's failure
    is recorded, not fatal."""
    if not cells:
        raise ValueError("sweep needs at least one cell")
    reference = min(cells, key=parameter_count)
    ref_rec = run_once(data, reference, corpus_id=corpus_id, **job)
    out = SweepResult(reference=ref_rec)
    for cfg in cells:
        if cfg == reference:
            out.records.append(ref_rec)
            continue
        try:
            rec = run_once(data, cfg, corpus_id=corpus_id, **job)
            if rec.cr != ref_rec.cr:
                rec.lcr = lcr(rec.ms_per_mb, rec.cr, ref_rec.ms_per_mb, ref_rec.cr)
            out.records.append(rec)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            out.failures.append((cfg.label(), f"{type(exc).__name__}: {exc}"))
    return out


def write_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(rec.row())


def order0_baseline(data: bytes) -> int:
    """Bytes needed to code `data` with one static histogram-derived
    distribution (two passes, add-one smoothing). The yardstick an adaptive
    model has to beat."""
    if not data:
        raise ValueError("order-0 baseline needs a non-empty corpus")
    buf = np.frombuffer(data, dtype=np.uint8)
    counts = np.bincount(buf, minlength=256).astype(np.float64)
    cum = quantize((counts + 1.0) / (len(data) + 256.0))
    enc = Encoder()
    for b in buf.tolist():
        enc.encode_symbol(b, cum)
    return len(enc.finish())
