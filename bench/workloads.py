"""The benchmark's workloads: inputs, the timed call and the correctness gate.

Each workload

- writes its inputs from the seed with numpy alone (`make_inputs`, run
  by the parent process, outside any timing);
- prepares the program's state (`setup`, timed as part of `setup_s`);
- makes the timed call into the program (`call`);
- turns the program's output into plain values (`result`), which the
  gate (`check`) compares against the independent oracle in
  `tests/reference.py`.

`perturb` changes one checked value, so the benchmark can confirm on
every run that its own gate rejects a wrong answer. `hoi` is imported
only inside the methods the measurement process calls, so the parent
process never loads it.
"""

import copy
import csv
import hashlib
import time
from pathlib import Path

import numpy as np

#: criterion 01's tolerances for agreement with the oracle
RTOL = 1e-9
ATOL = 1e-11
#: criterion 02's absolute tolerance, for identity-padded mixed-order rows
ATOL_PADDED = 1e-10
#: every timed call runs the engine on this many threads
WORKERS = 2
#: relative change perturb() applies to one checked value
PERTURBATION = 1e-6


def _close(got, want, atol=ATOL) -> bool:
    return bool(np.allclose(got, want, rtol=RTOL, atol=atol))


def _r_block(m, c):
    """Common-cause block: target (last) drives m sources."""
    b = np.full((m + 1, m + 1), c * c)
    np.fill_diagonal(b, c * c + 1.0)
    b[m, :] = c
    b[:, m] = c
    b[m, m] = 1.0
    return b


def _s_block(m, c):
    """Collider block: m independent sources feed the target (last)."""
    b = np.eye(m + 1)
    b[m, :m] = c
    b[:m, m] = c
    b[m, m] = m * c * c + 1.0
    return b


def _sample(sigma, t, rng):
    return rng.standard_normal((t, sigma.shape[0])) @ np.linalg.cholesky(sigma).T


def _oracle_cov(ref, x):
    """Covariance of the oracle's own copula transform of x."""
    return np.cov(ref.copula(x), rowvar=False)


class ScanN20:
    """Exhaustive TopK scan, orders 3..20, of one N=20 covariance."""

    name = "scan_n20"
    n, t, lo, hi, k = 20, 1000, 3, 20, 10

    def make_inputs(self, seed, workdir: Path):
        # criterion 08's mixing construction
        rng = np.random.default_rng(seed)
        mix = np.eye(self.n) + 0.15 * rng.standard_normal((self.n, self.n))
        x = rng.standard_normal((self.t, self.n)) @ mix.T
        np.save(workdir / "x.npy", x)

    def load(self, workdir: Path):
        return np.load(workdir / "x.npy")

    def setup(self, x):
        from hoi import copula_core

        cov = copula_core.estimate_covariance(copula_core.copula_transform(x))
        return copula_core.CovSet([cov])

    def oracle(self, ref, x):
        return _oracle_cov(ref, x)

    def call(self, covs):
        from hoi import scanner

        counters = {}
        top = scanner.scan(covs, self.lo, self.hi, scanner.TopK("o", "max", self.k),
                           bias_correct=True, workers=WORKERS,
                           progress=counters.update)
        return top, counters

    def result(self, out, covs):
        top, counters = out
        return {
            "nplets": counters["nplets"],
            "top": [(e.indices, e.tc, e.dtc, e.o, e.s) for e in top[0]],
            "extra": {},
        }

    def check(self, ref, sigma, res):
        fails = []
        want_count = ref.count_subsets(self.n, self.lo, self.hi)
        if res["nplets"] != want_count:
            fails.append(f"scanned {res['nplets']} n-plets, expected {want_count}")
        top = res["top"]
        if len(top) != self.k:
            fails.append(f"TopK returned {len(top)} entries, expected {self.k}")
        o_vals = [entry[3] for entry in top]
        if o_vals != sorted(o_vals, reverse=True):
            fails.append("TopK entries are not in descending order of o")
        for idx, *vals in top:
            want = ref.measures(sigma, idx, t_samples=self.t)
            if not _close(vals, want):
                fails.append(f"n-plet {idx}: got {vals}, oracle {[float(v) for v in want]}")
        return fails

    def perturb(self, res):
        bad = copy.deepcopy(res)
        idx, tc, dtc, o, s = bad["top"][0]  # the largest o of the scan
        bad["top"][0] = (idx, tc, dtc, o * (1.0 + PERTURBATION), s)
        return bad


class SearchN200:
    """Greedy growth then simulated annealing on one N=200 covariance."""

    name = "search_n200"
    n, t = 200, 2000
    start, target, beam = 3, 8, 10
    chains, min_order, max_order, iters = 20, 3, 12, 60
    blocks = (("r", 4), ("s", 4), ("r", 3), ("s", 5))

    def make_inputs(self, seed, workdir: Path):
        # planted R/S blocks at seeded positions, independent noise elsewhere
        rng = np.random.default_rng(seed)
        sigma = np.eye(self.n)
        perm = rng.permutation(self.n)
        at = 0
        for kind, m in self.blocks:
            c = float(rng.uniform(0.8, 1.2))
            pos = perm[at:at + m + 1]
            at += m + 1
            sigma[np.ix_(pos, pos)] = _r_block(m, c) if kind == "r" else _s_block(m, c)
        np.save(workdir / "x.npy", _sample(sigma, self.t, rng))
        np.save(workdir / "anneal_seed.npy", np.array(seed, dtype=np.int64))

    def load(self, workdir: Path):
        return np.load(workdir / "x.npy"), int(np.load(workdir / "anneal_seed.npy"))

    def setup(self, inputs):
        from hoi import copula_core

        x, seed = inputs
        cov = copula_core.estimate_covariance(copula_core.copula_transform(x))
        return copula_core.CovSet([cov]), seed

    def oracle(self, ref, inputs):
        return _oracle_cov(ref, inputs[0])

    def call(self, state):
        from hoi import optimizers

        covs, seed = state
        t0 = time.perf_counter()
        reports = []

        def progress(info):
            reports.append((time.perf_counter() - t0, dict(info)))

        spec = optimizers.ObjectiveSpec(measure="o", direction="max")
        found = optimizers.greedy(covs, spec, self.start, self.target,
                                  kappa=self.beam, bias_correct=True,
                                  progress=progress)
        schedule = optimizers.AnnealSchedule(
            mode="across-orders", min_order=self.min_order,
            max_order=self.max_order, max_iters=self.iters)
        final = optimizers.anneal(covs, spec, schedule, kappa=self.chains,
                                  seed=seed, bias_correct=True)
        return found, reports, final

    def result(self, out, state):
        found, reports, final = out
        greedy_evals = reports[-1][1]["nplets"]
        return {
            "nplets": greedy_evals + self.chains * (final.iterations + 1),
            "greedy": [(e.order, e.indices, e.value) for e in found.per_order],
            "seed_evals": reports[0][1]["nplets"],
            "reports": [info["order"] for _, info in reports],
            "anneal": (final.best_indices, final.best_energy, final.iterations),
            "extra": {
                "optimizers.greedy_seed_s": reports[0][0],
                "optimizers.greedy_evals": greedy_evals,
                "optimizers.anneal_iters": final.iterations,
            },
        }

    def check(self, ref, sigma, res):
        fails = []
        orders = list(range(self.start, self.target + 1))
        if res["reports"] != orders:
            fails.append(f"greedy reported orders {res['reports']}, expected {orders}")
        want_seed = ref.count_subsets(self.n, self.start, self.start)
        if res["seed_evals"] != want_seed:
            fails.append(f"greedy seed beam evaluated {res['seed_evals']}, expected {want_seed}")
        if [order for order, _, _ in res["greedy"]] != orders:
            fails.append("greedy per-order bests do not cover every order")
        for order, idx, value in res["greedy"]:
            want = ref.measures(sigma, idx, t_samples=self.t)[2]
            if len(idx) != order or not _close(value, want):
                fails.append(f"greedy order {order} {idx}: got {value}, oracle {want}")
        idx, energy, iterations = res["anneal"]
        if iterations != self.iters:
            fails.append(f"anneal ran {iterations} iterations, expected {self.iters}")
        if not self.min_order <= len(idx) <= self.max_order:
            fails.append(f"anneal best {idx} is outside orders {self.min_order}..{self.max_order}")
        else:
            want = ref.measures(sigma, idx, t_samples=self.t)[2]
            if not _close(energy, want, atol=ATOL_PADDED):
                fails.append(f"anneal best {idx}: got {energy}, oracle {want}")
        return fails

    def perturb(self, res):
        bad = copy.deepcopy(res)
        order, idx, value = bad["greedy"][-1]  # the largest greedy value
        bad["greedy"][-1] = (order, idx, value * (1.0 + PERTURBATION))
        return bad


class FeaturesCli:
    """`hoi features` on a directory of CSVs, run in process."""

    name = "features_cli"
    files, n, t = 48, 14, 4000
    whole = ("tc_whole", "dtc_whole", "o_whole", "s_whole")

    def make_inputs(self, seed, workdir: Path):
        rng = np.random.default_rng(seed)
        csv_dir = workdir / "csv"
        csv_dir.mkdir()
        header = ",".join(f"v{j:02d}" for j in range(self.n))
        data = np.empty((self.files, self.t, self.n))
        for f in range(self.files):
            # a varied planted spec: R and S blocks, independent remainder
            blocks, free = [], self.n
            while free >= 3 and rng.random() < 0.8:
                m = int(rng.integers(2, min(5, free - 1) + 1))
                c = float(rng.uniform(0.4, 1.5))
                blocks.append(_r_block(m, c) if rng.random() < 0.5 else _s_block(m, c))
                free -= m + 1
            blocks.append(np.eye(free))
            sigma = np.zeros((self.n, self.n))
            at = 0
            for b in blocks:
                sigma[at:at + len(b), at:at + len(b)] = b
                at += len(b)
            data[f] = _sample(sigma, self.t, rng)
            # 17 significant digits read back as the same doubles
            np.savetxt(csv_dir / f"d{f:02d}.csv", data[f], fmt="%.17g",
                       delimiter=",", header=header, comments="")
        np.save(workdir / "data.npy", data)

    def load(self, workdir: Path):
        return workdir

    def setup(self, workdir):
        import hoi.cli  # noqa: F401  (the CLI's own import is set-up work)

        return workdir

    def oracle(self, ref, workdir):
        data = np.load(workdir / "data.npy")
        return [ref.measures(_oracle_cov(ref, x), range(self.n), t_samples=self.t)
                for x in data]

    def call(self, workdir):
        from hoi import cli

        out = workdir / "features.csv"
        return cli.main(["features", "--input", str(workdir / "csv"), "--bias-correct",
                         "--workers", str(WORKERS), "--out", str(out)])

    def result(self, rc, workdir):
        out = workdir / "features.csv"
        text = out.read_bytes() if rc == 0 else b""
        out.unlink(missing_ok=True)
        rows = list(csv.DictReader(text.decode().splitlines()))
        return {
            "nplets": self.files * (2 ** self.n - 1 - self.n),
            "rc": rc,
            "digest": hashlib.sha256(text).hexdigest(),
            "whole": [(r["dataset"], [float(r[k]) for k in self.whole]) for r in rows],
            "extra": {
                "cli.input_bytes": sum(p.stat().st_size
                                       for p in (workdir / "csv").glob("*.csv")),
            },
        }

    def check(self, ref, oracle, res):
        if res["rc"] != 0:
            return [f"hoi features exited {res['rc']}"]
        fails = []
        names = [f"d{f:02d}" for f in range(self.files)]
        if [name for name, _ in res["whole"]] != names:
            fails.append("feature rows do not list every dataset in file order")
        for (name, got), want in zip(res["whole"], oracle):
            if not _close(got, want):
                fails.append(f"{name}: whole-system {got}, oracle {[float(v) for v in want]}")
        return fails

    def perturb(self, res):
        bad = copy.deepcopy(res)
        vals = bad["whole"][0][1]
        j = int(np.argmax(np.abs(vals)))
        vals[j] *= 1.0 + PERTURBATION
        return bad


WORKLOADS = {w.name: w for w in (ScanN20(), SearchN200(), FeaturesCli())}
