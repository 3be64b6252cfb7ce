"""Command line interface.

Subcommands: scan, greedy, anneal, features, synth, count. Data inputs
are CSV files (a required header row of variable names, not all of them
numbers; one sample per row); a directory of CSVs with identical headers
maps to one dataset per file, ordered lexicographically by filename. Raw
data are copula-transformed before covariance estimation. With
--progress, machine readable key=value lines go to the error stream.

The CSV dialect: UTF-8, comma delimiter, optional double quotes around
a cell, LF or CRLF line endings. Trailing blank lines are ignored, an
interior blank line is an error, and there are no comment lines. Every
cell is read exactly as float() reads it. Data rows are parsed in one
numpy pass per file; a file that pass rejects is read again row by row,
so an error names its row.

The exit code follows the type of the error, wherever it is raised:
0 success; 2 when the data defeat the computation (NotPositiveDefinite,
DegenerateEffectSize) or the output cannot be written (OSError); 1 for
every other HoiError and every usage error. Unreadable input is
reported as InvalidData, so it exits 1.
"""

import argparse
import csv
import io
import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np

from .copula_core import CovSet, DataMatrix, copula_transform, estimate_covariance
from .errors import DegenerateEffectSize, HoiError, InvalidData, NotPositiveDefinite
from .nplet_engine import count_nplets
from .optimizers import AnnealSchedule, ObjectiveSpec, anneal, greedy
from .scanner import (
    FEATURE_NAMES,
    MEASURES,
    Histogram,
    TopK,
    extract_features,
    scan,
)
from .synthetic import PgmSpec, sample_gaussian

_EXIT_TWO = (NotPositiveDefinite, DegenerateEffectSize, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    """Shortest round-trip decimal form, for byte-stable output files."""
    return repr(float(x))


def _mask_hex(indices) -> str:
    """Hex bitmask of an n-plet; bit i corresponds to input column i."""
    value = 0
    for i in indices:
        value |= 1 << int(i)
    return hex(value)


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def emit(info: dict) -> None:
        parts = " ".join(
            f"{key}={_fmt(val) if isinstance(val, float) else val}"
            for key, val in info.items()
        )
        print(f"progress {parts}", file=sys.stderr)

    return emit


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_csv(path: Path) -> DataMatrix:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise InvalidData(f"{path}: not valid UTF-8 ({e})") from None
    except OSError as e:
        raise InvalidData(f"cannot read input: {e}") from None
    try:
        try:
            header, values = _parse_lines(lines)
        except ValueError:
            header, values = _parse_rows(path, lines)
    except csv.Error as e:  # e.g. a cell beyond csv's field size limit
        raise InvalidData(f"{path}: {e}") from None
    return DataMatrix(values, column_names=header)


def _parse_lines(lines):
    """(header, values): the header row through csv, every data line in one
    numpy parse. ValueError wherever the result could differ from
    _parse_rows', including a line that loadtxt would skip."""
    reader = csv.reader(lines)
    header = next(reader, [])
    data = lines[reader.line_num:]
    while data and data[-1] in ("\n", "\r\n", "\r"):
        data.pop()  # trailing blank lines
    if not data or all(map(_parses_as_float, header)):
        raise ValueError
    values = np.loadtxt(data, dtype=np.float64, delimiter=",", comments=None,
                        quotechar='"', ndmin=2)
    if values.shape != (len(data), len(header)):
        raise ValueError
    return header, values


def _parse_rows(path: Path, lines):
    """(header, values) row by row, raising InvalidData that names the row."""
    rows = list(csv.reader(lines))
    while rows and not rows[-1]:
        rows.pop()  # trailing blank lines
    if len(rows) < 2:
        raise InvalidData(f"{path}: need a header row and at least one data row")
    header, data = rows[0], rows[1:]
    if header and all(_parses_as_float(cell) for cell in header):
        raise InvalidData(f"{path}: the first row must be a header of variable names, "
                          "but every cell is a number")
    width = len(header)
    for r, row in enumerate(data):
        if len(row) != width:
            raise InvalidData(f"{path}: row {r + 2} has {len(row)} fields, expected {width}")
    try:
        values = np.fromiter(map(float, itertools.chain.from_iterable(data)), np.float64,
                             count=len(data) * width)
    except ValueError:
        r = next(r for r, row in enumerate(data) if not all(map(_parses_as_float, row)))
        raise InvalidData(f"{path}: non-numeric value in row {r + 2}") from None
    return header, values.reshape(len(data), width)


def _load_input(input_path: str):
    """(dataset names, CovSet, variable names) from a CSV file or directory;
    each dataset is copula-transformed before covariance estimation."""
    path = Path(input_path)
    files = sorted(path.glob("*.csv"), key=lambda p: p.name) if path.is_dir() else [path]
    if not files:
        raise InvalidData(f"{path}: no .csv files in directory")
    datas = [_read_csv(f) for f in files]
    header = datas[0].column_names
    for f, d in zip(files[1:], datas[1:]):
        if d.column_names != header:
            raise InvalidData(f"{f}: header differs from {files[0]}")
    covs = CovSet([estimate_covariance(copula_transform(d)) for d in datas])
    return [f.stem for f in files], covs, header


def _resolve_workers(args) -> int:
    if args.workers is not None:
        workers = args.workers
    else:
        env = os.environ.get("HOI_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            raise InvalidData(f"HOI_WORKERS must be an integer, got {env!r}") from None
    return workers


def _parse_orders(text: str, n: int):
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo = int(parts[0])
            hi = n if parts[1] == "all" else int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise InvalidData(
            f"orders must look like '3:all', '3:5' or '4', got {text!r}"
        ) from None
    return lo, hi


def _int_or_all(text: str, n: int | None, flag: str) -> int | None:
    try:
        return n if text == "all" else int(text)
    except ValueError:
        raise InvalidData(f"{flag} must be an integer or 'all', got {text!r}") from None


def _parse_reduce(text: str):
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "top" and len(parts) == 4:
            return TopK(measure=parts[3], direction=parts[2], k=int(parts[1]))
        if kind == "hist" and len(parts) == 5:
            return Histogram(measure=parts[1], bins=int(parts[2]),
                             lo=float(parts[3]), hi=float(parts[4]))
    except ValueError:
        raise InvalidData(f"malformed --reduce value {text!r}") from None
    raise InvalidData(
        f"--reduce must be 'top:K:max|min:MEASURE' or 'hist:MEASURE:BINS:LO:HI', got {text!r}"
    )


def _parse_cond(text: str, flag: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidData(f"{flag} must be comma-separated integers, got {text!r}") from None


def _objective_from_args(args) -> ObjectiveSpec:
    if args.aggregate == "mean":
        if args.cond_a or args.cond_b:
            raise InvalidData("--cond-a/--cond-b only apply to --aggregate effect")
        return ObjectiveSpec(measure=args.measure, direction=args.direction)
    if not args.cond_a or not args.cond_b:
        raise InvalidData("--aggregate effect needs --cond-a and --cond-b")
    return ObjectiveSpec(
        measure=args.measure, direction=args.direction, aggregator="effect",
        cond_a=_parse_cond(args.cond_a, "--cond-a"),
        cond_b=_parse_cond(args.cond_b, "--cond-b"),
    )


def _write_text(out_path, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_scan(args):
    names, covs, var_names = _load_input(args.input)
    lo, hi = _parse_orders(args.orders, covs.n_variables)
    reducer = _parse_reduce(args.reduce)
    result = scan(covs, lo, hi, reducer, batch_size=args.batch_size,
                  bias_correct=args.bias_correct, workers=_resolve_workers(args),
                  progress=_progress_printer(args.progress))
    if isinstance(reducer, TopK):
        rows = []
        for name, entries in zip(names, result):
            for e in entries:
                rows.append([
                    name, e.order,
                    ",".join(var_names[i] for i in e.indices),
                    _mask_hex(e.indices),
                    _fmt(e.tc), _fmt(e.dtc), _fmt(e.o), _fmt(e.s),
                ])
        text = _csv_text(
            ["dataset", "order", "variables", "mask", "tc", "dtc", "o", "s"], rows)
    else:
        edges, counts = result
        rows = [
            [name, _fmt(edges[b]), _fmt(edges[b + 1]), int(counts[d, b])]
            for d, name in enumerate(names)
            for b in range(counts.shape[1])
        ]
        text = _csv_text(["dataset", "bin_lo", "bin_hi", "count"], rows)
    _write_text(args.out, text)


def _cmd_greedy(args):
    _, covs, var_names = _load_input(args.input)
    spec = _objective_from_args(args)
    target = _int_or_all(args.target_order, covs.n_variables, "--target-order")
    result = greedy(covs, spec, args.start_order, target, kappa=args.kappa,
                    seed=args.seed, bias_correct=args.bias_correct,
                    restarts=args.restarts, progress=_progress_printer(args.progress))
    rows = [
        [e.order, ",".join(var_names[i] for i in e.indices),
         _mask_hex(e.indices), _fmt(e.value)]
        for e in result.per_order
    ]
    _write_text(args.out, _csv_text(["order", "variables", "mask", "value"], rows))


def _cmd_anneal(args):
    _, covs, var_names = _load_input(args.input)
    spec = _objective_from_args(args)
    temp0 = None
    if args.temp0 != "auto":
        try:
            temp0 = float(args.temp0)
        except ValueError:
            raise InvalidData(f"--temp0 must be 'auto' or a number, got {args.temp0!r}") from None
    schedule = AnnealSchedule(
        temp0=temp0, alpha=args.alpha, max_iters=args.iters,
        patience=args.patience, mode=args.mode, min_order=args.min_order,
        max_order=_int_or_all(args.max_order, None, "--max-order"),  # anneal clips 'all' to T - 1
    )
    state = anneal(covs, spec, schedule, kappa=args.kappa, seed=args.seed,
                   bias_correct=args.bias_correct,
                   progress=_progress_printer(args.progress))
    rows = []

    def add_row(kind, mask, energy):
        indices = tuple(int(v) for v in np.flatnonzero(mask))
        rows.append([
            kind, len(indices),
            ",".join(var_names[i] for i in indices),
            _mask_hex(indices), _fmt(spec.value_of(energy)),
        ])

    add_row("best", state.best_mask, state.best_energy)
    for c in range(state.masks.shape[0]):
        add_row(f"chain_{c}", state.masks[c], float(state.energies[c]))
    _write_text(args.out, _csv_text(["kind", "order", "variables", "mask", "value"], rows))


def _cmd_features(args):
    names, covs, _ = _load_input(args.input)
    feats = extract_features(covs, bias_correct=args.bias_correct,
                             limit=args.limit, workers=_resolve_workers(args),
                             progress=_progress_printer(args.progress))
    # as_dict() lists the features in FEATURE_NAMES order
    rows = [[name, *map(_fmt, fv.as_dict().values())] for name, fv in zip(names, feats)]
    _write_text(args.out, _csv_text(["dataset", *FEATURE_NAMES], rows))


def _cmd_synth(args):
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except OSError as e:
        raise InvalidData(f"cannot read spec: {e}") from None
    pgm = PgmSpec.from_json(text)
    progress = _progress_printer(args.progress)
    t0 = time.perf_counter()
    cov = pgm.build()
    data = sample_gaussian(cov, args.samples, args.seed)
    rows = [[_fmt(x) for x in row] for row in data.values]
    _write_text(args.out, _csv_text(pgm.variable_names(), rows))
    if progress is not None:
        progress({
            "samples": args.samples,
            "variables": cov.n_variables,
            "elapsed": time.perf_counter() - t0,
        })


def _cmd_count(args):
    lo, hi = _parse_orders(args.orders, args.n)
    progress = _progress_printer(args.progress)
    t0 = time.perf_counter()
    total = count_nplets(args.n, lo, hi)
    _write_text(args.out, f"{total}\n")
    if progress is not None:
        progress({"total": total, "elapsed": time.perf_counter() - t0})


def _add_common(p, *, data_input=True):
    if data_input:
        p.add_argument("--input", required=True,
                       help="CSV file, or directory of CSVs with identical headers")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=0, help="seed for any randomness")
    p.add_argument("--progress", action="store_true",
                   help="print machine-readable progress to stderr")


def _add_compute(p, *, workers=True):
    p.add_argument("--bias-correct", action="store_true",
                   help="apply the finite-sample entropy correction")
    if workers:
        p.add_argument("--workers", type=int, default=None,
                       help="parallel workers (default: HOI_WORKERS or 1)")


def _add_objective(p):
    p.add_argument("--measure", choices=MEASURES, default="o")
    p.add_argument("--direction", choices=("max", "min"), default="max")
    p.add_argument("--aggregate", choices=("mean", "effect"), default="mean")
    p.add_argument("--cond-a", default=None,
                   help="comma-separated dataset indices of condition A")
    p.add_argument("--cond-b", default=None,
                   help="comma-separated dataset indices of condition B")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hoi",
                     description="Higher-order interaction measures from continuous data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="exhaustive scan over an order range")
    _add_common(p)
    _add_compute(p)
    p.add_argument("--batch-size", type=int, default=10000,
                   help="most n-plets a reducer sees at once")
    p.add_argument("--orders", default="3:all", help="order range, e.g. 3:all or 3:5")
    p.add_argument("--reduce", default="top:10:max:o",
                   help="top:K:max|min:MEASURE or hist:MEASURE:BINS:LO:HI")

    p = sub.add_parser("greedy", help="greedy beam search over n-plets")
    _add_common(p)
    _add_compute(p, workers=False)
    _add_objective(p)
    p.add_argument("--start-order", type=int, default=3)
    p.add_argument("--target-order", default="all",
                   help="largest order to grow to (default: all variables)")
    p.add_argument("--kappa", type=int, default=10, help="beam width")
    p.add_argument("--restarts", type=int, default=1,
                   help="extra randomly seeded beams merged into the result")

    p = sub.add_parser("anneal", help="simulated annealing over n-plets")
    _add_common(p)
    _add_compute(p, workers=False)
    _add_objective(p)
    p.add_argument("--min-order", type=int, default=3)
    p.add_argument("--max-order", default="all")
    p.add_argument("--mode", choices=("across-orders", "within-order"),
                   default="across-orders")
    p.add_argument("--kappa", type=int, default=20, help="number of chains")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--alpha", type=float, default=0.99, help="geometric cooling rate")
    p.add_argument("--temp0", default="auto",
                   help="initial temperature, or 'auto' for the initial energy spread")
    p.add_argument("--patience", type=int, default=0,
                   help="stop after this many iterations without improvement (0: off)")

    p = sub.add_parser("features", help="21-feature fingerprint per dataset")
    _add_common(p)
    _add_compute(p)
    p.add_argument("--limit", type=int, default=20,
                   help="largest N allowed for the exhaustive feature scan")

    p = sub.add_parser("synth", help="sample a synthetic dataset from a block spec")
    _add_common(p, data_input=False)
    p.add_argument("--spec", required=True,
                   help='JSON file: {"blocks": [{"kind": "R", "n_sources": 2, "c": 1.0}]}')
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("count", help="number of n-plets in an order range")
    _add_common(p, data_input=False)
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--orders", default="3:all")

    return parser


_HANDLERS = {
    "scan": _cmd_scan,
    "greedy": _cmd_greedy,
    "anneal": _cmd_anneal,
    "features": _cmd_features,
    "synth": _cmd_synth,
    "count": _cmd_count,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _HANDLERS[args.command](args)
    except (_UsageError, HoiError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, _EXIT_TWO) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
