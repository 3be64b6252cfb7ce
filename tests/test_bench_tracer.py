"""The traced benchmark wraps library names by attribute; keep them resolvable.

bench/tracer.py replaces module attributes (and numpy.linalg functions)
process-wide, so the check runs in a subprocess: it installs the tracer,
then drives a tiny scan on each lattice route (pivot and walk), greedy,
anneal and an in-process `hoi features` through every wrapped name.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import sys
from pathlib import Path

root, csv_dir = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "bench")]

import numpy as np
import tracer

tracer.install(tracer.Tracer())

from hoi import cli, copula_core, nplet_engine, optimizers, scanner, synthetic

cov = synthetic.block_concat([synthetic.r_system_cov(2, 1.0),
                              synthetic.s_system_cov(2, 1.0)])
x = synthetic.sample_gaussian(cov, 300, seed=0).values
covs = copula_core.CovSet([copula_core.estimate_covariance(copula_core.copula_transform(x))])
scanner.scan(covs, 3, 6, scanner.TopK("o", "max", 3), workers=2, bias_correct=True)
route, nplet_engine._pivot_orders = nplet_engine._pivot_orders, lambda *_: set()  # all walk
scanner.scan(covs, 1, 6, scanner.TopK("o", "max", 3), workers=2, bias_correct=True)
nplet_engine._pivot_orders = route
spec = optimizers.ObjectiveSpec(measure="o", direction="max")
optimizers.greedy(covs, spec, 3, 5, kappa=3, bias_correct=True)
optimizers.anneal(covs, spec, optimizers.AnnealSchedule(max_iters=5, min_order=2),
                  kappa=4, seed=1, bias_correct=True)

header = ",".join(f"v{j}" for j in range(6))
for f in range(2):
    np.savetxt(csv_dir / f"d{f}.csv", x[f::2], fmt="%.17g", delimiter=",",
               header=header, comments="")
rc = cli.main(["features", "--input", str(csv_dir), "--bias-correct",
               "--workers", "2", "--out", str(csv_dir / "features.out")])
sys.exit(rc)
"""


def test_traced_benchmark_wrappers_resolve(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
