"""Regenerate expected.json, the pinned answers for the census workload.

Run from the repository root:  python3 bench/make_expected.py

Every value comes from oracle.py's own phi, never from seqmat:
census histograms for n = 3, 4 and 5, the cycle length of the bundled
10x10 seed, and 200 reference cycles (40 each for n = 8..12).  The
reference cycles are fixed so that every seed times the same amount of
orbit work: a run's seed only picks where on each cycle its orbit
starts, and every point of a cycle has the same cycle length.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = "seqmat-bench reference orbits v1"
ORBITS_PER_N = 40


def main():
    rng = random.Random(REFERENCE_SEED)
    orbits = []
    for n in range(8, 13):
        for _ in range(ORBITS_PER_N):
            rows = tuple(rng.getrandbits(n) | 1 << i for i in range(n))
            orbits.append({"n": n, "rows": [f"{r:x}" for r in rows],
                           "length": oracle.cycle_length(rows, n)})
    seed_text = (ROOT / "src/seqmat/data/orbit_seed_10.txt").read_text()
    census = {}
    for n in (3, 4, 5):
        hist = oracle.census_histogram(n)
        census[str(n)] = {"histogram": {str(k): v for k, v in hist.items()}, "max": max(hist)}
    expected = {
        "census": census,
        "seed_orbit_length": oracle.cycle_length(oracle.gf2_rows(seed_text), 10),
        "orbits": orbits,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
