"""One measurement process of the benchmark; run.py starts it.

In a fresh interpreter it times `import hoi` and the workload's
program-side set-up (together `setup_s`), then repeats the workload's
timed call until its time budget is spent, checking every call's output
against the oracle in `tests/reference.py`; with --setup-only it
measures the set-up alone. With --trace 1 it installs
the per-layer wrappers of tracer.py before the set-up, so untraced
processes never run a wrapper. Prints one JSON object on stdout.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git_commit():
    """HEAD of the checkout, read from .git without starting git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(hoi, seed) -> dict:
    import hashlib
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hoi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "hoi_file": hoi.__file__,
        "git_commit": _git_commit(),
        "hoi_source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import hoi
    import_s = time.perf_counter() - t0
    if Path(hoi.__file__).resolve().parent != (ROOT / "src" / "hoi").resolve():
        print(f"refusing to run: hoi resolves to {hoi.__file__}, "
              f"not the checkout's src/hoi", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))
    import reference as ref
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    inputs = wl.load(workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter()
    state = wl.setup(inputs)
    prep_s = time.perf_counter() - t0
    setup_layers = tracing.layer_metrics(tracer.snapshot(), {}) if tracer else None
    oracle = None if args.setup_only else wl.oracle(ref, inputs)

    reps = []
    self_check = None
    start = time.perf_counter()
    while not args.setup_only:
        gc.collect()
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            out = wl.call(state)
            wall = time.perf_counter() - t0
            snap = tracer.snapshot() if tracer else None
            res = wl.result(out, state)
            fails = wl.check(ref, oracle, res)
        except Exception:
            wall = time.perf_counter() - t0
            res, snap, fails = None, None, [traceback.format_exc()]
        rep = {"wall_s": wall, "fails": fails}
        if res is not None:
            rep["nplets"] = res["nplets"]
            rep["digest"] = res.get("digest")
            if snap is not None:
                rep["layers"] = tracing.layer_metrics(snap, res["extra"])
            if self_check is None and not fails:
                # the gate must reject a value the program did not produce
                self_check = bool(wl.check(ref, oracle, wl.perturb(res)))
        reps.append(rep)
        # stop once another call would more likely end past the budget than before it
        if time.perf_counter() - start + wall / 2 > args.budget:
            break

    print(json.dumps({
        "import_s": import_s,
        "prep_s": prep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
        "reps_s": time.perf_counter() - start,
        "self_check": self_check,
        "setup_layers": setup_layers,
        "provenance": provenance(hoi, args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
