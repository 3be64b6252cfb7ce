"""Record and compare the values hoi gives on a fixed, seeded set of cases.

Two commands, run from anywhere:

    python tools/parity.py write SRC OUT.npz [--corpus DIR]
    python tools/parity.py compare A.npz B.npz

write imports hoi from the source directory SRC (the directory holding
the hoi package, such as a checkout's src) and saves every case's values
to OUT.npz. compare prints, per case and array, whether two such files
agree bit for bit, the largest |difference| and, for scale, the largest
|value|; it exits 1 when any array differs. The cases:

- scan_topk: a TopK(o, max, 10) scan of orders 3..20 of one N=20
  covariance, bias-corrected, at workers=2 (the pivot route).
- walk_d1, walk_d3: every measure of every n-plet of orders 2..12 of
  N=20 at D=1 and D=3, on a lattice built with LATTICE_TABLE_BYTES set
  to 0, so that every order walks.
- walk_d48: a TopK(o, max, 10) scan of order 15 of N=20 at D=48 (48
  covariances of 400 samples), which walks: the one case whose walk
  batches split under the default LATTICE_TABLE_BYTES. A tree whose walk
  batches only batch_size bounds takes about 1.6 GB and 5 s for it.
- mixed: compute_hoi_batch of 3,000 mask rows of orders 1..20 at N=20,
  D=2 (the direct path; rows may repeat).
- search_s1..s3: greedy (3 -> 8, kappa 10) and anneal (20 chains,
  orders 3..12, 60 iterations) on one N=200 covariance with planted
  redundant and synergistic blocks, per seed: the greedy sets and
  values, the anneal best set and energy, and the final chain masks.
- anneal_n12: anneal (20 chains, across orders 3..12, 500 iterations)
  on criterion 06's analytic N=12 system (R and S blocks of 3 sources
  and 4 independent variables), seeds 0-4: the best sets and energies,
  and the final chain masks and energies. Chains pass the 50-move
  rebuild many times, and exact ties decide moves.
- features: the sha256 of `hoi features --bias-correct --workers 2` on
  the CSVs in DIR, or, without --corpus, on a seeded corpus of 12 CSVs
  of N=10, T=1500, half of them rounded to two decimals so that columns
  hold ties.

A recording takes about 20 s on one core and 120 MB on disk, nearly all
of it the walk cases' measures.
"""

import argparse
import hashlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np


def _import_hoi(src: str):
    """The hoi package under src, imported in place of any other."""
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    import hoi

    if Path(hoi.__file__).resolve().parent != root / "hoi":
        raise SystemExit(f"imported hoi from {hoi.__file__}, not from {root}")
    return hoi


def _covset(hoi, x):
    """The CovSet of the copula covariances of a list of (T, N) arrays."""
    cc = hoi.copula_core
    return cc.CovSet([cc.estimate_covariance(cc.copula_transform(v)) for v in x])


def _mixed_data(d, n, t, seed):
    """D datasets of T samples of N variables mixed by a random matrix."""
    rng = np.random.default_rng(seed)
    mix = np.eye(n) + 0.15 * rng.standard_normal((n, n))
    return [rng.standard_normal((t, n)) @ mix.T for _ in range(d)]


def _planted(hoi, n, seed):
    """An N-variable covariance: redundant and synergistic blocks of 4, 4,
    3 and 5 sources at seeded positions, independent noise elsewhere."""
    syn = hoi.synthetic
    rng = np.random.default_rng(seed)
    blocks, used = [], 0
    for make, m in ((syn.r_system_cov, 4), (syn.s_system_cov, 4),
                    (syn.r_system_cov, 3), (syn.s_system_cov, 5)):
        blocks.append(make(m, float(rng.uniform(0.8, 1.2))))
        used += m + 1
    blocks.append(np.eye(n - used))
    sigma = syn.block_concat(blocks).sigma
    perm = rng.permutation(n)
    return sigma[np.ix_(perm, perm)]


def case_scan_topk(hoi):
    covs = _covset(hoi, _mixed_data(1, 20, 1000, 11))
    top = hoi.scan(covs, 3, 20, hoi.TopK("o", "max", 10), bias_correct=True, workers=2)[0]
    return {"indices": np.array([np.isin(np.arange(20), e.indices) for e in top]),
            "values": np.array([(e.tc, e.dtc, e.o, e.s) for e in top])}


def _walk(hoi, d):
    """Every n-plet of orders 2..12 scored on a lattice built with no room
    for tables, so every order walks (extend then borders in full
    batches, under the restored cap)."""
    engine = hoi.nplet_engine
    covs = _covset(hoi, _mixed_data(d, 20, 600, 20 + d))
    cap, engine.LATTICE_TABLE_BYTES = engine.LATTICE_TABLE_BYTES, 0
    try:
        lattice = engine.LogdetLattice(covs, 2, 12, True)
    finally:
        engine.LATTICE_TABLE_BYTES = cap
    assert not lattice.pivots
    parts = []
    for k in range(2, 13):
        for batch in hoi.enumerate_order(20, k):
            h = hoi.measures.hoi_from_sums(*lattice.sums(batch)[0], batch.orders())
            parts.append(np.stack([h.tc, h.dtc, h.o, h.s]))
    return {"measures": np.concatenate(parts, axis=1)}


def case_walk_d1(hoi):
    return _walk(hoi, 1)


def case_walk_d3(hoi):
    return _walk(hoi, 3)


def case_walk_d48(hoi):
    covs = _covset(hoi, _mixed_data(48, 20, 400, 48))
    top = hoi.scan(covs, 15, 15, hoi.TopK("o", "max", 10))
    return {"indices": np.array([[np.isin(np.arange(20), e.indices) for e in per_d]
                                 for per_d in top]),
            "values": np.array([[(e.tc, e.dtc, e.o, e.s) for e in per_d] for per_d in top])}


def case_mixed(hoi):
    rng = np.random.default_rng(5)
    covs = _covset(hoi, _mixed_data(2, 20, 800, 6))
    orders = np.resize(np.arange(1, 21), 3000)
    masks = rng.random((3000, 20)).argsort(axis=1) < orders[:, None]
    batch = hoi.NpletBatch(20, masks=masks, check_unique=False)
    h = hoi.compute_hoi_batch(covs, batch, bias_correct=True)
    return {"measures": np.stack([h.tc, h.dtc, h.o, h.s])}


def _search(hoi, seed):
    n = 200
    x = hoi.synthetic.sample_gaussian(_planted(hoi, n, seed), 2000, seed).values
    covs = _covset(hoi, [x])
    spec = hoi.ObjectiveSpec(measure="o", direction="max")
    found = hoi.greedy(covs, spec, 3, 8, kappa=10, bias_correct=True)
    schedule = hoi.AnnealSchedule(mode="across-orders", min_order=3, max_order=12,
                                  max_iters=60)
    final = hoi.anneal(covs, spec, schedule, kappa=20, seed=seed, bias_correct=True)
    return {"greedy_sets": np.array([np.isin(np.arange(n), e.indices) for e in found.per_order]),
            "greedy_values": np.array([e.value for e in found.per_order]),
            "anneal_best": final.best_mask,
            "anneal_energy": np.array([final.best_energy]),
            "chain_masks": final.masks,
            "chain_energies": final.energies}


def case_search_s1(hoi):
    return _search(hoi, 1)


def case_search_s2(hoi):
    return _search(hoi, 2)


def case_search_s3(hoi):
    return _search(hoi, 3)


def case_anneal_n12(hoi):
    covs = hoi.CovSet([hoi.block_concat([hoi.r_system_cov(3, 1.0), hoi.s_system_cov(3, 1.0),
                                         hoi.CovarianceMatrix(np.eye(4))])])
    spec = hoi.ObjectiveSpec(measure="o", direction="max")
    schedule = hoi.AnnealSchedule(mode="across-orders", min_order=3, max_order=12,
                                  max_iters=500)
    runs = [hoi.anneal(covs, spec, schedule, kappa=20, seed=seed) for seed in range(5)]
    return {"best_masks": np.array([r.best_mask for r in runs]),
            "best_energies": np.array([r.best_energy for r in runs]),
            "chain_masks": np.array([r.masks for r in runs]),
            "chain_energies": np.array([r.energies for r in runs])}


def _write_corpus(folder: Path):
    header = ",".join(f"v{j}" for j in range(10))
    for f in range(12):
        fmt = "%.2f" if f % 2 else "%.17g"  # two decimals leave ties in every column
        np.savetxt(folder / f"d{f:02d}.csv", _mixed_data(1, 10, 1500, 100 + f)[0], fmt=fmt,
                   delimiter=",", header=header, comments="")


def case_features(hoi, corpus=None):
    from hoi import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if corpus is None:
            corpus = tmp / "csv"
            corpus.mkdir()
            _write_corpus(corpus)
        out = tmp / "features.csv"
        rc = cli.main(["features", "--input", str(corpus), "--bias-correct",
                       "--workers", "2", "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"hoi features exited {rc}")
        return {"sha256": np.array(hashlib.sha256(out.read_bytes()).hexdigest())}


CASES = {name[5:]: fn for name, fn in globals().items() if name.startswith("case_")}


def write(src: str, out: str, corpus=None) -> None:
    hoi = _import_hoi(src)
    arrays = {}
    for name, fn in CASES.items():
        t0 = time.perf_counter()
        values = fn(hoi, corpus) if name == "features" else fn(hoi)
        arrays.update({f"{name}/{key}": v for key, v in values.items()})
        print(f"{name}: {', '.join(values)} ({time.perf_counter() - t0:.1f} s)", flush=True)
    np.savez(out, **arrays)


def _deltas(a, b):
    """(largest |a - b|, largest |a|) over the entries finite in both; None
    for arrays that are not float or differ in shape."""
    if a.dtype.kind != "f" or a.shape != b.shape:
        return None
    both = np.isfinite(a) & np.isfinite(b)
    return float(np.abs(a - b)[both].max(initial=0.0)), float(np.abs(a[both]).max(initial=0.0))


def compare(first: str, second: str) -> int:
    """Print one row per array of either file; 1 if any differs."""
    a, b = np.load(first), np.load(second)
    differs = 0
    print(f"{'array':<26} {'bitwise':<8} {'max |delta|':>12} {'max |value|':>12}")
    for key in sorted(set(a.files) | set(b.files)):
        if key not in a.files or key not in b.files:
            print(f"{key:<26} missing")
            differs = 1
            continue
        x, y = a[key], b[key]
        same = x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        differs |= not same
        deltas = _deltas(x, y)
        sizes = "" if deltas is None else f"{deltas[0]:12.3g} {deltas[1]:12.3g}"
        print(f"{key:<26} {'yes' if same else 'no':<8} {sizes}")
    return differs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="record every case's values for one source tree")
    w.add_argument("src", help="directory holding the hoi package")
    w.add_argument("out", help="the .npz file to write")
    w.add_argument("--corpus", type=Path, help="CSV directory for the features case")
    c = sub.add_parser("compare", help="compare two recorded files")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    if args.command == "write":
        write(args.src, args.out, args.corpus)
        return 0
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
