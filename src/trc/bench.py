"""Measurement harness: per-config records, the latency-per-ratio metric,
structure sweeps, and an order-0 coding baseline.

A sweep runs every cell alike, so a failing cell stops no other, and takes
its lcr reference from the cells that ran.

Compression columns of every record are deterministic given (corpus, seed,
config); timing columns are whatever this machine did today, so tests gate
on the former and only report the latter.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .coder import Encoder, quantize
from .model import ModelConfig, parameter_count
from .pipeline import compress

CSV_HEADER = ("config", "corpus", "in_bytes", "out_bytes", "cr", "bpc",
              "ms_per_mb", "skip_frac", "lcr")


@dataclass
class BenchRecord:
    config: ModelConfig
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
        return [self.config.label(), self.corpus, self.in_bytes, self.out_bytes,
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


def sweep(data: bytes, cells: list[ModelConfig], *, corpus_id: str = "corpus",
          runs: int = 3, **job) -> tuple[list[BenchRecord], list[tuple[str, str]]]:
    """Compress `data` `runs` times per cell, with compress's keyword
    arguments `job` (seed included), and return the records of the cells
    that ran and a (label, "Kind: message") failure for each that did not.

    Every cell runs alike: its ratio columns come from the (identical)
    containers, its latency is the median wall time per input MB, and its
    failure is recorded, not fatal. lcr is then filled in against the
    reference, the record with the fewest parameters among the cells that
    ran, the first on a tie."""
    if not data:
        raise ValueError("a benchmark run needs a non-empty corpus")
    if runs < 1:
        raise ValueError(f"runs must be positive, got {runs}")
    records, failures = [], []
    for config in cells:
        try:
            walls, result = [], None
            for _ in range(runs):
                t0 = time.perf_counter()
                res = compress(data, config, **job)
                walls.append(time.perf_counter() - t0)
                if result is not None and res.container != result.container:
                    raise AssertionError("nondeterministic compress in benchmark")
                result = res
            records.append(BenchRecord(
                config=config, corpus=corpus_id, in_bytes=len(data),
                out_bytes=len(result.container),
                ms_per_mb=1000.0 * statistics.median(walls) / (len(data) / 1e6),
                skip_frac=result.skip_fraction))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures.append((config.label(), f"{type(exc).__name__}: {exc}"))
    ref = min(records, key=lambda rec: parameter_count(rec.config), default=None)
    for rec in records:
        if rec.cr != ref.cr:
            rec.lcr = lcr(rec.ms_per_mb, rec.cr, ref.ms_per_mb, ref.cr)
    return records, failures


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
