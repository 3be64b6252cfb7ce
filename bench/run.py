"""Outside-in benchmark of hoi.

Usage, from the repository root:

    python3 bench/run.py --workload scan_n20 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, defaults

Workloads (see BENCHMARK.json for why each is there):

- scan_n20: `scan`, orders 3..20, TopK(o, max, 10), N=20, workers=2.
- search_n200: `greedy` (3 -> 8, kappa 10) then `anneal` (kappa 20,
  orders 3..12, 60 iterations) on one N=200 covariance.
- features_cli: `hoi features --bias-correct --workers 2` in process,
  on 48 CSVs of N=14, T=4000.

The seed decides every input; this process writes the inputs under
`.bench_work/` and removes them when it ends. The program is measured
in fresh child processes (child.py), run one after another: with
--trace 0 one that repeats the timed call for --seconds and two that
only set up, each timing its own `import hoi` and set-up; with --trace 1
an untraced one and two traced ones, which wrap every layer boundary
(tracer.py) and share --seconds. Every output is checked against
`tests/reference.py`. BLAS pools are pinned to one
thread, so a run uses at most the engine's two worker threads.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end_to_end metrics
of BENCHMARK.json, --trace 1 the per_layer ones. Exit code 0 only if
every child ran.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a run must exit within 180 s; stop waiting for measurement processes at this
DEADLINE_S = 170.0
#: processes per run, in order: "timed" and "traced" ones repeat the
#: workload's call, "setup" ones only import hoi and prepare, so that
#: setup_s is a median of three set-ups without three workload budgets
UNTRACED_PLAN = ("timed", "setup", "setup")
TRACED_PLAN = ("timed", "traced", "traced")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _median(values):
    return float(statistics.median(values))


def _cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat; None where absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _spawn(name, workdir, seed, kind, budget, timeout):
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--workdir", str(workdir), "--seed", str(seed), "--budget", repr(budget),
           "--trace", str(int(kind == "traced"))]
    if kind == "setup":
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: measurement process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: measurement process exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """Measure one workload; returns (correct, attempted, failed, metrics, provenance)."""
    wl = workloads.WORKLOADS[name]
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ticks = _cpu_ticks()
    try:
        wl.make_inputs(seed, workdir)
        plan = TRACED_PLAN if trace else UNTRACED_PLAN
        left = seconds
        children = []
        for i, kind in enumerate(plan):
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise BenchError(f"{name}: out of time before all processes ran")
            walls = [rep["wall_s"] for c in children for rep in c["reps"]]
            if kind == "timed" and walls and left < walls[-1] / 2:
                kind = "setup"  # too little time left for another call
            # the time left is shared evenly by the repeating processes still
            # to run; each makes at least one call, even past its share
            budget = left / max(1, sum(k != "setup" for k in plan[i:]))
            child = _spawn(name, workdir, seed, kind, budget, timeout)
            left -= child["reps_s"]
            child["kind"] = kind
            children.append(child)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    now = _cpu_ticks()
    if ticks and now and now[1] > ticks[1]:
        # CPU time the hypervisor gave to others: the main cause of drift between runs
        steal = (now[0] - ticks[0]) / (now[1] - ticks[1])
        print(f"{name} cpu_steal_frac = {steal:.4f} (not a metric; explains slow runs)")

    reps = [rep for child in children for rep in child["reps"]]
    print(f"{name} call walls: " + " ".join(f"{rep['wall_s']:.3f}" for rep in reps))
    problems = [f for rep in reps for f in rep["fails"]]
    failed = sum(1 for rep in reps if rep["fails"])
    digests = {rep.get("digest") for rep in reps if not rep["fails"]}
    if len(digests) > 1:
        problems.append(f"output differs between runs: {len(digests)} distinct digests")
        failed = len(reps)
    self_checks = [c["self_check"] for c in children if c["kind"] != "setup"]
    if False in self_checks:
        problems.append("gate self-check: a perturbed value was accepted")
    elif all(self_checks):
        print(f"{name} gate self-check: a perturbed value was rejected")

    if trace:
        metrics = _layer_metrics(children, problems)
    else:
        good = [rep for rep in reps if not rep["fails"]]
        metrics = {
            "wall_s": _median([rep["wall_s"] for rep in reps]),
            "nplets_per_s": _median([rep["nplets"] / rep["wall_s"] for rep in good]) if good else 0.0,
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in children if c["kind"] == "timed"]),
            "setup_s": _median([c["import_s"] + c["prep_s"] for c in children]),
            "ok_frac": (len(reps) - failed) / len(reps),
        }
    for line in problems:
        print(f"{name}: FAILED {line}", file=sys.stderr)
    correct = not problems and failed == 0
    return correct, len(reps), failed, metrics, children[0]["provenance"]


def _layer_metrics(children, problems):
    traced = [c for c in children if c["kind"] == "traced"]
    layered = [rep["layers"] for c in traced for rep in c["reps"] if "layers" in rep]
    if not layered:
        raise BenchError("no traced call completed")
    metrics = {key: _median([layers[key] for layers in layered]) for key in layered[0]}
    for key in ("copula_core.transform_s", "copula_core.covariance_s"):
        metrics[key] += _median([c["setup_layers"][key] for c in traced])
    for key in tracing.COUNT_METRICS:
        seen = sorted({layers[key] for layers in layered})
        if len(seen) > 1:
            problems.append(f"count {key} differs between runs of one seed: {seen}")
        metrics[key] = seen[0]
    traced_wall = _median([rep["wall_s"] for c in traced for rep in c["reps"]])
    untraced_wall = _median([rep["wall_s"] for c in children if c["kind"] == "timed"
                             for rep in c["reps"]])
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    selected = names if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(selected)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in selected:
            correct, attempted, failed, values, prov = run_workload(
                name, args.seed, args.seconds, args.trace, deadline)
            if name == selected[0]:
                print("provenance " + json.dumps(prov, sort_keys=True))
            summary["correct"] &= correct
            summary["attempted"] += attempted
            summary["failed"] += failed
            prefix = "" if len(selected) == 1 else name + "."
            for m in wanted:
                if m["name"] not in values:
                    raise BenchError(f"{name}: metric {m['name']} was not measured")
                value = values[m["name"]]
                print(f"{name} {m['name']} = {value!r} {m['unit']}")
                summary["metrics"][prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
