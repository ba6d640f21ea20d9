"""Command-line front end: compress, decompress, sweep.

`--metrics-out` writes the per-chunk trace CSV, the same in both directions
apart from wall time, first: if that fails, no output file is written.

`trc sweep` takes one model field per `--axis name=v1,v2` and runs one cell
per value, with the other fields from their flags. Every cell runs alike: a
failing cell gets one stderr line and stops no other. A cell with an illegal
shape is such a cell, since only its compress checks the shape. lcr is
measured against the cell with the fewest parameters among those that ran,
the first on a tie. A sweep in which no cell ran exits 1 and writes no CSV.

Success exits 0. Any failure prints one line to stderr in the form
`trc: error: <Kind>: <message>` and exits 1 (argparse keeps its own exit 2
for usage mistakes).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, fields, replace

from .bench import sweep, write_csv
from .model import ModelConfig
from .pipeline import LOSS_CACHE, compress, decompress

# flag -> (ModelConfig field or compress keyword, help); each flag's default
# is the field's default in ModelConfig() or the keyword's in compress
_FLAGS = {
    "hidden": ("hidden_dim", "hidden dimension"),
    "ffn": ("ffn_dim", "FFN dimension"),
    "groups": ("group_size", "bytes per embedding group"),
    "context": ("context_len", "context positions"),
    "shared-ffn": ("shared_ffn_repeats", "shared-FFN repeat count"),
    "heads": ("num_heads", "attention heads"),
    "lanes": ("lanes", "parallel coding lanes"),
    "lr": ("lr", "Adam learning rate"),
    "seed": ("seed", "model init seed, stored in the container"),
}
_MODEL_FIELDS = [f.name for f in fields(ModelConfig)]
_AXES = {flag: name for flag, (name, _) in _FLAGS.items() if name in _MODEL_FIELDS}


def _add_job_flags(p: argparse.ArgumentParser) -> None:
    defaults = {**asdict(ModelConfig()), **compress.__kwdefaults__}
    for flag, (name, what) in _FLAGS.items():
        p.add_argument(f"--{flag}", dest=name, type=type(defaults[name]),
                       default=defaults[name], help=f"{what} (default %(default)s)")
    p.add_argument("--bp-controller", action="store_true", dest="controller",
                   default=defaults["controller"],
                   help=f"update only on a loss above the mean of the last {LOSS_CACHE} losses")


def _job(args) -> tuple[ModelConfig, dict]:
    """The model config and compress's keyword arguments."""
    config = ModelConfig(**{name: getattr(args, name) for name in _MODEL_FIELDS})
    return config, {name: getattr(args, name) for name in compress.__kwdefaults__}


def _write_metrics(path: str, metrics) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("phase", "steps", "bytes_in", "bits_out",
                         "mean_loss", "skip_count", "wall_s"))
        writer.writerow(("warmup", 0, metrics.warmup_bytes, metrics.warmup_bits, "", 0,
                         f"{metrics.warmup_s:.6f}"))
        for i, c in enumerate(metrics.chunks):
            writer.writerow((f"chunk{i}", c.steps, c.bytes_in, c.bits_out,
                             f"{c.mean_loss:.6f}", c.skip_count, f"{c.wall_s:.6f}"))


def _cmd_compress(args) -> int:
    with open(args.infile, "rb") as fh:
        data = fh.read()
    config, job = _job(args)
    res = compress(data, config, **job)
    if args.metrics_out:
        _write_metrics(args.metrics_out, res.metrics)
    with open(args.outfile, "wb") as fh:
        fh.write(res.container)
    ratio = len(data) / len(res.container) if res.container else 0.0
    print(f"{args.infile}: {len(data)} -> {len(res.container)} bytes "
          f"(ratio {ratio:.3f}, skip {res.skip_fraction:.1%})")
    return 0


def _cmd_decompress(args) -> int:
    with open(args.infile, "rb") as fh:
        blob = fh.read()
    res = decompress(blob)
    if args.metrics_out:
        _write_metrics(args.metrics_out, res.metrics)
    with open(args.outfile, "wb") as fh:
        fh.write(res.data)
    print(f"{args.infile}: {len(blob)} -> {len(res.data)} bytes")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.corpus, "rb") as fh:
        data = fh.read()
    base, job = _job(args)
    cells = []
    for spec in args.axis:
        flag, _, text = spec.partition("=")
        try:
            name, values = _AXES[flag], [int(v) for v in text.split(",")]
        except (KeyError, ValueError):
            raise ValueError(f"expected --axis name=v1,v2 with name in {sorted(_AXES)}, "
                             f"got {spec!r}") from None
        for v in values:
            cfg = replace(base, **{name: v})
            if cfg not in cells:
                cells.append(cfg)
    records, failures = sweep(data, cells, corpus_id=args.corpus, runs=args.runs, **job)
    if not records:
        label, why = failures[0]
        raise ValueError(f"no sweep cell ran; the first, {label}, failed: {why}")
    write_csv(records, args.csv_out)
    for label, why in failures:
        print(f"trc: sweep cell {label} failed: {why}", file=sys.stderr)
    print(f"wrote {len(records)} records to {args.csv_out}"
          + (f" ({len(failures)} failed cells)" if failures else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trc",
        description="Lossless byte-stream compressor driven by an online-trained transformer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file into a container")
    p.add_argument("infile")
    p.add_argument("outfile")
    _add_job_flags(p)
    p.add_argument("--metrics-out", dest="metrics_out", default=None,
                   help="write the per-chunk trace CSV here, before the container")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="restore the original file")
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument("--metrics-out", dest="metrics_out", default=None,
                   help="write the per-chunk trace CSV here, before the output file")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("sweep", help="run a structure sweep, one axis at a time")
    p.add_argument("corpus")
    p.add_argument("--axis", action="append", required=True,
                   help="one model field and its values, like hidden=64,128,256: "
                        "one cell per value, the other fields from their flags; "
                        "repeatable. Every cell runs alike; a sweep in which no cell "
                        "ran exits 1. lcr is taken against the cell with the fewest "
                        "parameters among those that ran (the first on a tie); "
                        "trc.bench.lcr gives it against any other row from the cr "
                        "and ms_per_mb columns")
    p.add_argument("--runs", type=int, default=sweep.__kwdefaults__["runs"],
                   help="timing repetitions (default %(default)s)")
    p.add_argument("--csv-out", dest="csv_out", default="sweep.csv")
    _add_job_flags(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"trc: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
