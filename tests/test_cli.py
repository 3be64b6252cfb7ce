import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoi
from hoi import cli
from hoi.cli import main

PGM = '{"blocks": [{"kind": "r", "n_sources": 2}, {"kind": "s", "n_sources": 2}]}'


@pytest.fixture()
def data_csv(tmp_path):
    spec_path = tmp_path / "pgm.json"
    spec_path.write_text(PGM)
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec_path), "--samples", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def covset_from_csv(path):
    rows = read_rows(path)
    x = np.array(rows[1:], dtype=np.float64)
    cov = hoi.estimate_covariance(hoi.copula_transform(hoi.DataMatrix(x)))
    return hoi.CovSet([cov], names=[path.stem])


def test_count_prints_exact_integer(capsys):
    assert main(["count", "--n", "30", "--orders", "3:30"]) == 0
    assert capsys.readouterr().out.strip() == "1073741358"
    assert main(["count", "--n", "6", "--orders", "2:all"]) == 0
    assert capsys.readouterr().out.strip() == str(hoi.count_nplets(6, 2, 6))


def test_synth_layout_and_determinism(tmp_path):
    spec_path = tmp_path / "pgm.json"
    spec_path.write_text(PGM)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for out, seed in ((a, "5"), (b, "5"), (c, "6")):
        assert main(["synth", "--spec", str(spec_path), "--samples", "50",
                     "--seed", seed, "--out", str(out)]) == 0
    rows = read_rows(a)
    assert rows[0] == ["r0_x0", "r0_x1", "r0_y", "s1_x0", "s1_x1", "s1_y"]
    assert len(rows) == 51
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_scan_top_matches_library_route(tmp_path, data_csv):
    out = tmp_path / "top.csv"
    assert main(["scan", "--input", str(data_csv), "--orders", "3:4",
                 "--reduce", "top:5:max:o", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dataset", "order", "variables", "mask", "tc", "dtc", "o", "s"]

    covs = covset_from_csv(data_csv)
    want = hoi.scan(covs, 3, 4, hoi.TopK("o", "max", 5))[0]
    header = read_rows(data_csv)[0]
    assert len(rows) == 6
    for row, entry in zip(rows[1:], want):
        assert row[0] == "data"
        assert int(row[1]) == entry.order
        assert tuple(row[2].split(",")) == tuple(header[i] for i in entry.indices)
        got_indices = tuple(np.flatnonzero(
            [(int(row[3], 16) >> i) & 1 for i in range(len(header))]
        ))
        assert got_indices == entry.indices
        for col, field in zip(row[4:], ("tc", "dtc", "o", "s")):
            assert float(col) == getattr(entry, field)  # repr round-trips


def test_scan_outputs_are_byte_identical_across_runs_and_workers(
        tmp_path, data_csv, monkeypatch):
    outs = []
    for i, workers in enumerate(("1", "1", "4")):
        monkeypatch.setenv("HOI_WORKERS", workers)
        out = tmp_path / f"top{i}.csv"
        assert main(["scan", "--input", str(data_csv), "--orders", "2:5",
                     "--reduce", "top:10:min:s", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_scan_histogram_shape(tmp_path, data_csv):
    out = tmp_path / "hist.csv"
    assert main(["scan", "--input", str(data_csv), "--orders", "3:3",
                 "--reduce", "hist:o:5:-0.3:0.3", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dataset", "bin_lo", "bin_hi", "count"]
    assert len(rows) == 6
    assert sum(int(r[3]) for r in rows[1:]) == hoi.count_nplets(6, 3, 3)
    assert float(rows[1][1]) == -0.3
    assert float(rows[5][2]) == 0.3


def test_scan_reads_directories_sorted(tmp_path):
    spec_path = tmp_path / "pgm.json"
    spec_path.write_text(PGM)
    d = tmp_path / "sets"
    d.mkdir()
    for name, seed in (("zz.csv", "1"), ("aa.csv", "2")):
        assert main(["synth", "--spec", str(spec_path), "--samples", "60",
                     "--seed", seed, "--out", str(d / name)]) == 0
    out = tmp_path / "top.csv"
    assert main(["scan", "--input", str(d), "--orders", "3:3",
                 "--reduce", "top:1:max:tc", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r[0] for r in rows[1:]] == ["aa", "zz"]


def test_greedy_matches_library(tmp_path, data_csv):
    out = tmp_path / "greedy.csv"
    assert main(["greedy", "--input", str(data_csv), "--measure", "o",
                 "--direction", "max", "--start-order", "3",
                 "--target-order", "5", "--kappa", "4", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["order", "variables", "mask", "value"]
    covs = covset_from_csv(data_csv)
    want = hoi.greedy(covs, hoi.ObjectiveSpec(measure="o", direction="max"),
                      3, 5, kappa=4)
    assert len(rows) - 1 == len(want.per_order)
    for row, entry in zip(rows[1:], want.per_order):
        assert int(row[0]) == entry.order
        assert float(row[3]) == entry.value


def test_anneal_output_rows_and_determinism(tmp_path, data_csv):
    out1, out2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    args = ["anneal", "--input", str(data_csv), "--measure", "o",
            "--direction", "min", "--kappa", "6", "--iters", "80",
            "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_rows(out1)
    assert rows[0] == ["kind", "order", "variables", "mask", "value"]
    assert [r[0] for r in rows[1:]] == ["best"] + [f"chain_{i}" for i in range(6)]

    covs = covset_from_csv(data_csv)
    sched = hoi.AnnealSchedule(max_iters=80)
    want = hoi.anneal(covs, hoi.ObjectiveSpec(measure="o", direction="min"),
                      sched, kappa=6, seed=9)
    assert float(rows[1][4]) == want.best_energy * -1.0  # natural sign for min


def test_features_schema_and_agreement(tmp_path, data_csv):
    out = tmp_path / "features.csv"
    assert main(["features", "--input", str(data_csv), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert rows[0] == ["dataset"] + list(hoi.FEATURE_NAMES)
    assert len(rows) == 2
    want = hoi.extract_features(covset_from_csv(data_csv))[0]
    for col, name in zip(rows[1][1:], hoi.FEATURE_NAMES):
        assert float(col) == getattr(want, name)


def test_stdout_output_when_no_out_given(capsys, data_csv):
    assert main(["scan", "--input", str(data_csv), "--orders", "3:3",
                 "--reduce", "top:1:max:o"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "dataset,order,variables,mask,tc,dtc,o,s"
    assert len(lines) == 2


def test_progress_lines_go_to_stderr(capsys, data_csv):
    assert main(["scan", "--input", str(data_csv), "--orders", "3:3",
                 "--reduce", "top:1:max:o", "--progress"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("progress ")
    assert "nplets=" in err
    assert "fallback_rows=0" in err


def test_usage_and_validation_failures_exit_one(tmp_path, data_csv, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\nx,4\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2\n3\n")
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    short = tmp_path / "short.csv"  # T = 5 samples, orders up to 5
    short.write_text("".join(data_csv.read_text().splitlines(keepends=True)[:6]))
    unreadable = tmp_path / "unreadable"
    (unreadable / "zz.csv").mkdir(parents=True)
    (unreadable / "aa.csv").write_text(data_csv.read_text())
    cases = [
        [],
        ["bogus"],
        ["scan", "--input", str(tmp_path / "missing.csv"), "--orders", "3:3",
         "--reduce", "top:1:max:o"],
        ["scan", "--input", str(data_csv), "--orders", "5:3",
         "--reduce", "top:1:max:o"],
        ["scan", "--input", str(data_csv), "--orders", "3:3",
         "--reduce", "top:0:max:o"],
        ["scan", "--input", str(data_csv), "--orders", "3:3",
         "--reduce", "top:1:max:bogus"],
        ["scan", "--input", str(data_csv), "--orders", "3:3",
         "--reduce", "hist:o:4:2:1"],
        ["scan", "--input", str(data_csv), "--orders", "x:3",
         "--reduce", "top:1:max:o"],
        ["scan", "--input", str(bad), "--orders", "3:3",
         "--reduce", "top:1:max:o"],
        ["scan", "--input", str(ragged), "--orders", "3:3",
         "--reduce", "top:1:max:o"],
        ["scan", "--input", str(empty_dir), "--orders", "3:3",
         "--reduce", "top:1:max:o"],
        ["greedy", "--input", str(data_csv), "--start-order", "3",
         "--target-order", "99"],
        ["greedy", "--input", str(data_csv), "--aggregate", "effect"],
        ["anneal", "--input", str(data_csv), "--min-order", "9",
         "--max-order", "3"],
        ["features", "--input", str(data_csv), "--limit", "4"],
        ["synth", "--spec", str(tmp_path / "nope.json"), "--samples", "50",
         "--out", str(tmp_path / "x.csv")],
        ["count", "--n", "5", "--orders", "3:9"],
        # argument errors the library raises while computing
        ["scan", "--input", str(data_csv), "--orders", "3:3",
         "--reduce", "top:1:max:o", "--batch-size", "0"],
        ["features", "--input", str(data_csv), "--batch-size", "0"],
        ["greedy", "--input", str(data_csv), "--kappa", "0"],
        ["greedy", "--input", str(data_csv), "--batch-size", "0"],
        ["greedy", "--input", str(data_csv), "--restarts", "0"],
        ["anneal", "--input", str(data_csv), "--kappa", "0"],
        ["scan", "--input", str(short), "--orders", "3:5",
         "--reduce", "top:1:max:o", "--bias-correct"],
        ["anneal", "--input", str(data_csv), "--batch-size", "10"],
        ["scan", "--input", str(unreadable), "--orders", "3:3",
         "--reduce", "top:1:max:o"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        capsys.readouterr()  # drain
    lines = data_csv.read_text().splitlines(keepends=True)
    spaces = tmp_path / "spaces.csv"  # whitespace-only interior line
    spaces.write_text("".join(lines[:3] + ["   \n"] + lines[3:]))
    comma = tmp_path / "comma.csv"  # trailing comma on the second data row
    comma.write_text("".join(lines[:2] + [lines[2].rstrip("\n") + ",\n"] + lines[3:]))
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(data_csv.read_bytes() + b"\xe9,1,2,3,4,5\n")
    # CSV errors name the offending row
    for path, message in ((ragged, "row 3 has 1 fields, expected 2"),
                          (bad, "non-numeric value in row 3"),
                          (spaces, "row 4 has 1 fields, expected 6"),
                          (comma, "row 3 has 7 fields, expected 6"),
                          (latin1, "not valid UTF-8")):
        assert main(["scan", "--input", str(path), "--orders", "3:3",
                     "--reduce", "top:1:max:o"]) == 1
        assert message in capsys.readouterr().err


def test_cells_beyond_the_csv_field_limit_exit_one(tmp_path, data_csv, capsys):
    # csv refuses fields over 131072 characters; that is InvalidData, not a traceback
    header, *rows = data_csv.read_text().splitlines(keepends=True)
    long_header = tmp_path / "long_header.csv"
    long_header.write_text("v" * 200_000 + header[header.index(","):] + "".join(rows))
    long_cell = tmp_path / "long_cell.csv"
    long_cell.write_text("".join([header, "x" * 200_000 + rows[0][rows[0].index(","):]] + rows[1:]))
    for path in (long_header, long_cell):
        assert main(["features", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field larger than field limit"), err


def test_compute_phase_failures_exit_two(tmp_path, data_csv, capsys):
    dest = tmp_path / "no_such_dir" / "out.csv"
    assert main(["scan", "--input", str(data_csv), "--orders", "3:3",
                 "--reduce", "top:1:max:o", "--out", str(dest)]) == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()
    # condition B repeats condition A, so every paired difference is zero
    same = tmp_path / "same"
    same.mkdir()
    for name in ("a0", "a1", "b0", "b1"):
        (same / f"{name}.csv").write_text(data_csv.read_text())
    assert main(["greedy", "--input", str(same), "--aggregate", "effect",
                 "--cond-a", "0,1", "--cond-b", "2,3", "--target-order", "4"]) == 2
    assert "effect size" in capsys.readouterr().err


def test_bias_correct_flag_changes_values(tmp_path, data_csv):
    plain = tmp_path / "plain.csv"
    corrected = tmp_path / "corr.csv"
    base = ["scan", "--input", str(data_csv), "--orders", "3:3",
            "--reduce", "top:2:max:tc"]
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--bias-correct", "--out", str(corrected)]) == 0
    assert plain.read_bytes() != corrected.read_bytes()
    v_plain = float(read_rows(plain)[1][4])
    v_corr = float(read_rows(corrected)[1][4])
    assert v_plain != v_corr
    assert abs(v_plain - v_corr) < 0.1


def test_effect_objective_runs_on_directory(tmp_path):
    spec_path = tmp_path / "pgm.json"
    spec_path.write_text(PGM)
    d = tmp_path / "cond"
    d.mkdir()
    for i in range(4):
        assert main(["synth", "--spec", str(spec_path), "--samples", "80",
                     "--seed", str(i), "--out", str(d / f"s{i}.csv")]) == 0
    out = tmp_path / "eff.csv"
    assert main(["greedy", "--input", str(d), "--measure", "o",
                 "--aggregate", "effect", "--cond-a", "0,1", "--cond-b", "2,3",
                 "--start-order", "3", "--target-order", "4",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert math.isfinite(float(rows[1][3]))



def test_anneal_default_max_order_is_clipped_below_the_sample_count(tmp_path):
    # 8 samples of 12 variables: every set of order 8 or more is singular,
    # so --max-order all (the default) leaves anneal's clip to T - 1 = 7
    path = tmp_path / "short.csv"
    x = np.random.default_rng(1).standard_normal((8, 12))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"v{j}" for j in range(12)))
    out = tmp_path / "a.csv"
    with pytest.warns(UserWarning, match="clipping"):
        assert main(["anneal", "--input", str(path), "--min-order", "3", "--iters", "50",
                     "--kappa", "6", "--seed", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 8 and all(3 <= int(r[1]) <= 7 for r in rows[1:])

def test_csv_trailing_blank_lines_are_ignored(tmp_path, data_csv, capsys):
    text = data_csv.read_text()
    (tmp_path / "t").mkdir()
    trailing = tmp_path / "t" / data_csv.name  # same stem, same dataset column
    trailing.write_text(text + "\n\n")
    base = ["scan", "--orders", "3:3", "--reduce", "top:2:max:o"]
    assert main(base + ["--input", str(data_csv), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(base + ["--input", str(trailing), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # a blank line with data after it is still an error, named by row
    lines = text.splitlines()
    inner = tmp_path / "inner.csv"
    inner.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
    capsys.readouterr()
    assert main(base + ["--input", str(inner)]) == 1
    assert "row 4 has 0 fields" in capsys.readouterr().err



def test_csv_byte_order_mark_is_dropped(tmp_path, data_csv):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark
    (tmp_path / "bom").mkdir()
    bom = tmp_path / "bom" / data_csv.name  # same stem, same dataset column
    bom.write_bytes(b"\xef\xbb\xbf" + data_csv.read_bytes())
    base = ["scan", "--orders", "3:3", "--reduce", "top:2:max:o"]
    assert main(base + ["--input", str(data_csv), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(base + ["--input", str(bom), "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # a directory mixing a marked file with a plain one has one header
    (tmp_path / "bom" / "plain.csv").write_bytes(data_csv.read_bytes())
    assert main(["features", "--input", str(tmp_path / "bom"),
                 "--out", str(tmp_path / "f.csv")]) == 0

def test_headerless_csv_is_rejected(tmp_path, data_csv, capsys):
    # without its header the first sample would become the variable names
    headerless = tmp_path / "headerless.csv"
    headerless.write_text("".join(data_csv.read_text().splitlines(keepends=True)[1:]))
    assert main(["scan", "--input", str(headerless), "--orders", "3:3",
                 "--reduce", "top:1:max:o"]) == 1
    assert "header" in capsys.readouterr().err


def test_csv_dialect_variants_read_the_same_values(tmp_path, data_csv, monkeypatch):
    lines = data_csv.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    want = np.array([[float(cell) for cell in row] for row in rows])

    def joined(cell, sep="\n"):
        return sep.join([header] + [",".join(map(cell, row)) for row in rows]) + sep

    variants = {
        "crlf": joined(str, "\r\n") + "\r\n",  # with a trailing blank line
        "quoted": joined('"{}"'.format),
        "spaced": joined(" {} ".format),
        "plain": joined(str),
        "quoted_name": '"a,b"' + joined(str)[len(header.split(",")[0]):],
    }

    def row_by_row(path, lines):
        raise AssertionError(f"{path} left the one-pass parse")

    # every variant is read in the one-pass parse, to the same doubles
    monkeypatch.setattr(cli, "_parse_rows", row_by_row)
    for name, text in variants.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode())
        got = cli._read_csv(path)
        names = header.split(",")
        assert got.column_names == (["a,b", *names[1:]] if name == "quoted_name" else names)
        assert got.values.tobytes() == want.tobytes()


def test_csv_cells_float_accepts_keep_their_value(tmp_path):
    # loadtxt refuses '1_000' and non-ASCII digits; the row-by-row pass
    # reads them as float() does
    path = tmp_path / "underscore.csv"
    path.write_text("a,b\n1_000,1\n2,\u0663\n4,5\n")
    assert cli._read_csv(path).values.tolist() == [[1000.0, 1.0], [2.0, 3.0], [4.0, 5.0]]


_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -2.225073858507201e-308, 1e308, -1e308,
                 1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                         st.sampled_from(_EDGE_DOUBLES)),
                               min_size=3, max_size=3),
                      min_size=1, max_size=30),
       fmt=st.sampled_from([repr, "%.17g".__mod__]))
def test_csv_doubles_read_back_bit_for_bit(cells, fmt):
    text = "a,b,c\n" + "".join(",".join(map(fmt, row)) + "\n" for row in cells)
    header, values = cli._parse_lines(io.StringIO(text, newline="").readlines())
    assert header == ["a", "b", "c"]
    want = np.array([[float(fmt(x)) for x in row] for row in cells], dtype=np.float64)
    assert values.tobytes() == want.tobytes()


def _package_env():
    return dict(os.environ, PYTHONPATH=str(Path(hoi.__file__).resolve().parents[1]))


def test_cli_import_leaves_scipy_stats_out():
    # the package needs numpy and the standard library only; scipy.special
    # alone cost most of a process's set-up
    code = ("import sys, hoi.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path, data_csv):
    # a None entry in sys.modules makes every scipy import raise, lazy ones too
    code = ("import sys; sys.modules['scipy'] = None; "
            "from hoi.cli import main; sys.exit(main(sys.argv[1:]))")
    runs = {
        "features": ["--bias-correct"],
        "greedy": ["--measure", "o", "--direction", "max", "--start-order", "3",
                   "--target-order", "5", "--kappa", "4"],
        "anneal": ["--measure", "o", "--direction", "min", "--kappa", "4",
                   "--iters", "40", "--seed", "9"],
    }
    for cmd, args in runs.items():
        out = tmp_path / f"{cmd}.csv"
        proc = subprocess.run([sys.executable, "-c", code, cmd, "--input", str(data_csv),
                               *args, "--out", str(out)],
                              env=_package_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (cmd, proc.stderr)
        assert len(read_rows(out)) > 1
