"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload scan_n20 --seeds 1 2 3 4 5
    python3 bench/spread.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10 --out runs.json
    python3 bench/spread.py --workload all --trace 1 --seeds 1 1 --out trace.json

For every metric it prints the median of the runs, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, against the metric's bound in BENCHMARK.json. A run that
exits non-zero or reports correct=false stops the script. With --out
the per-run values and the summary are written as JSON. With --trace 1
and one seed given more than once, the summary also shows whether every
count repeated exactly between the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {}
    for name in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: correct=false", file=sys.stderr)
                return 1
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={runs[-1][k]:.6g}" for k in bounds), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [run[metric] for run in runs]
            summary[metric] = summarize(values)
            s = summary[metric]
            verdict = ""
            if bound is not None:
                verdict = ("ok" if s["spread"] < bound / 3
                           else "within bound" if s["spread"] <= bound else "TOO WIDE")
            if metric in COUNT_METRICS and len(set(args.seeds)) == 1:
                verdict = "repeats" if len(set(values)) == 1 else "VARIES"
            print(f"{name} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                  + (f" bound {bound} {verdict}" if bound is not None else f" {verdict}"))
        report[name] = {"runs": runs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
