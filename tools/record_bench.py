"""Record benchmark runs in BENCH_<short-sha>[-dirty].json.

Usage (from the repository root):

    python3 tools/record_bench.py --workload census --seeds 1 2 3 4 5 \
        [--baseline OTHER_CHECKOUT]

For every workload and seed this runs

    python3 bench/run.py --workload W --seed S --seconds 20 --trace 0

in this checkout.  With --baseline it runs the same command in a second
checkout as well (for example a clone of the parent commit), and the
two alternate which runs first from one seed to the next.  It writes
BENCH_<short-sha>.json in the repository root, short-sha naming this
checkout's HEAD, or BENCH_<short-sha>-dirty.json when this checkout's
working tree differs from HEAD (a change measured before it is
committed).  The file holds, per checkout and workload, every run's
end-to-end metrics and each metric's median and quartiles; with a
baseline, per metric, the ratio of the medians and in how many seed
pairs this checkout read better, the direction coming from
BENCHMARK.json.  It records the Python version, nproc, the CPU model and
each checkout's git SHA, with "dirty" set when its working tree differs
from that commit.  Last, per checkout and workload, it runs

    python3 bench/run.py --workload W --seed S --seconds 20 --trace 1

once, S being the first of --seeds, and records that run's per-layer
metrics (call counts and self time per span, counters, tracing
overhead) under "traced".

Both checkouts run in the same bytecode state: before every run this
deletes each __pycache__ directory under the checkout's src/, and the
run gets PYTHONDONTWRITEBYTECODE=1, so every process compiles seqmat
from source and writes no cache.  A stale cache on one side and a fresh
one on the other would otherwise move the cli workload's start-up time.
The file records this policy under "bytecode".
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 20
BYTECODE = "src/**/__pycache__ deleted before every run; runs get PYTHONDONTWRITEBYTECODE=1"


def checkout_info(repo: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_bench(repo: Path, workload: str, seed: int, trace: int = 0) -> dict:
    for cache in (repo / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=repo, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        sys.exit(f"error: bench/run.py --workload {workload} --seed {seed} --trace {trace} "
                 f"exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def compare(mine: list[dict], base: list[dict], better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in zip(mine, base)]
        base_median = statistics.median(b for _, b in pairs)
        out[name] = {
            "better": direction,
            "pairs": len(pairs),
            "this_better": sum(sign * (a - b) > 0 for a, b in pairs),
            "median_ratio": statistics.median(a for a, _ in pairs) / base_median
            if base_median else None,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a bench workload; repeat for several")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--baseline", type=Path, help="a second checkout to alternate with")
    args = ap.parse_args()

    sides = {"this": ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "bytecode": BYTECODE,
        "checkouts": {side: checkout_info(repo) for side, repo in sides.items()},
        "workloads": {},
    }
    for workload in args.workload:
        runs = {side: [] for side in sides}
        order = []
        for k, seed in enumerate(args.seeds):
            turn = list(sides) if k % 2 == 0 else list(reversed(sides))
            order.append(turn)
            for side in turn:
                runs[side].append(run_bench(sides[side], workload, seed))
                print(f"{workload} seed {seed} {side}: "
                      f"work_per_s {runs[side][-1]['metrics']['work_per_s']:.6g}", flush=True)
        entry = {"seeds": args.seeds, "order": order}
        for side, side_runs in runs.items():
            entry[side] = {"summary": summary(side_runs), "runs": side_runs}
        if "baseline" in runs:
            entry["compare"] = compare(runs["this"], runs["baseline"], better)
        entry["traced"] = {side: run_bench(repo, workload, args.seeds[0], trace=1)
                           for side, repo in sides.items()}
        record["workloads"][workload] = entry

    this = record["checkouts"]["this"]
    short = (this["sha"] or "unknown")[:7]
    out = ROOT / f"BENCH_{short}{'-dirty' if this['dirty'] else ''}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
