"""Check that the traced run's counts repeat exactly.

Usage (from the repository root):

    python3 bench/check_traces.py [--seed 1] [--other-seed 2] [--workload census ...]

Runs ``run.py --trace 1`` twice with --seed and once with --other-seed
for each workload.  Every count metric (unit count, B or bit) must be
identical between the two runs of one seed.  On census, where the
inputs' cost does not depend on the seed, they must also be identical
across the two seeds.  Every run must pass the oracle.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "B", "bit")
SEED_FREE = ("census",)


def traced(workload, seed):
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
    return result["correct"], counts


def main():
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or names:
        correct_a, a = traced(workload, args.seed)
        correct_b, b = traced(workload, args.seed)
        correct_c, c = traced(workload, args.other_seed)
        diff = sorted(k for k in a if a[k] != b[k])
        seed_diff = sorted(k for k in a if a[k] != c[k])
        print(f"{workload}: {len(a)} counts, oracle {'ok' if correct_a and correct_b and correct_c else 'FAILED'}, "
              f"repeat differs in {diff or 'none'}, seed {args.other_seed} differs in "
              f"{len(seed_diff)} counts")
        ok &= correct_a and correct_b and correct_c and not diff
        if workload in SEED_FREE and seed_diff:
            print(f"  seed-independent counts differ: {seed_diff}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
