"""Run every workload on several seeds and write ``BENCH_<label>.json``.

Run from the repository root:

    python3 benchmarks/baseline.py --label baseline --runs 10

For seeds 1..runs it runs each workload untraced through ``run.py``, one
child process per run, cycling through the workloads so that slow spells of
the machine fall on all of them alike.  Then it runs each workload traced
once (seed 1).  For every end-to-end metric it records each run's value,
the median, the quartiles and the quartile spread as a share of the median
next to the bound in ``BENCHMARK.json``; for every per-layer metric, the
traced value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    os.chdir(run.ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in run.WORKLOADS}
    attempted = failed = 0
    for seed in range(1, args.runs + 1):
        for workload in run.WORKLOADS:
            result = run_child(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"seed {seed} {workload}: "
                  + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values[workload].items()),
                  flush=True)

    workloads = {}
    for workload in run.WORKLOADS:
        end_to_end = {}
        for metric in declared["end_to_end"]:
            vals = values[workload][metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bounds[metric["name"]],
                "runs": vals,
            }
        traced = run_child(workload, 1, seconds, 1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        workloads[workload] = {"end_to_end": end_to_end, "per_layer_seed_1": traced["metrics"]}
        print(f"traced {workload}", flush=True)

    bench = {
        "label": args.label,
        "commit": run.git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(range(1, args.runs + 1)),
        "attempted": attempted,
        "failed": failed,
        "workloads": workloads,
    }
    path = run.BENCH_DIR / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
