"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --seeds 1-10 [--workload census ...] [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartiles as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json.  With --out the medians, quartiles and every
run's value are written as JSON together with the Python version,
nproc, the git commit and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit():
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "commit": git_commit(), "seeds": seeds, "seconds": bench["run_seconds"],
              "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = [run(workload, seed, bench["run_seconds"]) for seed in seeds]
        rows = {}
        print(f"{workload}: correct {all(r['correct'] for r in results)}, "
              f"failed {[r['failed'] for r in results]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "" if spread <= bound / 3 else "  > bound/3" if spread <= bound else "  > BOUND"
            print(f"  {name:14s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        report["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
