"""Seeded inputs for each workload, as matrix text.

This module never imports seqmat: the benchmark makes its inputs itself
and hands them to the program as text.  A plan is one *round* of calls;
the worker repeats whole rounds, at least min_rounds of them (about 20 s
on a 2-CPU Xeon VM at 2.0 GHz), so every run times the same mix.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent

FINITE_FIELDS = ("gf2", "gfp 7", "gfp 2147483647")

#: Calls per round for each (field, density) pair of compile-finite, by n.
FINITE_COUNTS = {32: 8, 64: 3, 128: 1}

#: Calls per round of compile-rational, by n.  Call costs at one n vary by
#: 20% between matrices, so the median call lies mid-way through 40
#: distinct n = 16 matrices and the 90th percentile among the n = 32 ones.
#: regularize_general runs only at n <= 12: its output is unique and its
#: coefficients grow to 60 kbit at n = 16 and 1.1 Mbit at n = 20.
RATIONAL_COUNTS = {8: 30, 16: 40, 32: 14, 64: 1}
RATIONAL_REGULARIZE_MAX_N = 12


def _modulus(descriptor):
    parts = descriptor.split()
    return 2 if parts == ["gf2"] else int(parts[1])


def _text(descriptor, rows):
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return f"{descriptor}\nn {len(rows)}\n{body}\n"


def _vector_text(descriptor, entries):
    return f"{descriptor}\nn {len(entries)}\n{' '.join(str(v) for v in entries)}\n"


def finite_matrix(rng, descriptor, n, density):
    """Each entry nonzero with probability density, uniform over the units."""
    p = _modulus(descriptor)
    rows = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]
    return _text(descriptor, rows)


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rational_matrix(rng, n):
    return _text("rational", [[rational(rng) for _ in range(n)] for _ in range(n)])


def census_plan(rng, root):
    expected = json.loads((HERE / "expected.json").read_text())
    calls = [{"op": "census", "n": 5, "expect": expected["census"]["5"]},
             {"op": "seed_orbit", "length": expected["seed_orbit_length"]}]
    for ref in expected["orbits"]:
        n, rows = ref["n"], tuple(int(h, 16) for h in ref["rows"])
        for _ in range(rng.randrange(ref["length"])):
            rows = oracle.phi_packed(rows, n)
        calls.append({"op": "orbit", "text": oracle.gf2_text(rows, n), "length": ref["length"]})
    return {"calls": calls, "warmup": 1, "min_rounds": 2}


def finite_plan(rng, root):
    calls = []
    for n, count in FINITE_COUNTS.items():
        for descriptor in FINITE_FIELDS:
            for density in (0.5, 0.1):
                for _ in range(count):
                    calls.append({"op": "compile", "regularize": True,
                                  "text": finite_matrix(rng, descriptor, n, density)})
    return {"calls": calls, "warmup": 0, "min_rounds": 3}


def rational_plan(rng, root):
    calls = [{"op": "compile", "regularize": n <= RATIONAL_REGULARIZE_MAX_N,
              "text": rational_matrix(rng, n)}
             for n, count in RATIONAL_COUNTS.items() for _ in range(count)]
    return {"calls": calls, "warmup": 0, "min_rounds": 2}


def _gf2_rows(rng, n, regular=False):
    return [[1 if regular and i == j else rng.randrange(2) for j in range(n)] for i in range(n)]


def cli_plan(rng, root):
    """Every subcommand on n <= 10 inputs, then the exit-code contract.

    Two calls break the contract at the parent commit and are counted as
    failures (ROADMAP item 5): a non-UTF-8 file ends in a traceback, and
    "-" given twice is read as an empty second input instead of being
    refused with exit status 2.
    """
    f7 = "gfp 7"
    files = {
        "apply_m.txt": finite_matrix(rng, f7, 6, 0.5),
        "apply_x.txt": _vector_text(f7, [rng.randrange(7) for _ in range(6)]),
        "seqapply_m.txt": rational_matrix(rng, 5),
        "seqapply_x.txt": _vector_text("rational", [rational(rng) for _ in range(5)]),
        "smatrix.txt": rational_matrix(rng, 6),
        "program.txt": finite_matrix(rng, f7, 8, 0.5),
        "seq_fixups.txt": rational_matrix(rng, 6),
        "seq_perm.txt": finite_matrix(rng, f7, 8, 0.3),
        "preimage.txt": _text("gf2", _gf2_rows(rng, 3)),
        "regularize.txt": _text("gf2", _gf2_rows(rng, 10)),
        "units.txt": finite_matrix(rng, f7, 5, 0.5),
        "trace.txt": _text("gf2", _gf2_rows(rng, 6)),
        "phi.txt": _text("gf2", _gf2_rows(rng, 8, regular=True)),
        "equiv_a.txt": _text("gf2", _gf2_rows(rng, 6)),
        "equiv_b.txt": _text("gf2", _gf2_rows(rng, 6)),
        "constructs.txt": _text("gf2", _gf2_rows(rng, 8)),
        "dot.txt": _text("gf2", _gf2_rows(rng, 6)),
        "bad_header.txt": "gf3\nn 2\n0 1\n1 0\n",
        "not_utf8.txt": b"gf2\nn 2\n1 \xff\n0 1\n",
    }
    n = 8
    p = rng.randint(1, 3)
    q = rng.randint(p + 2, n)
    i = rng.randint(p, q - 1)
    j = rng.randint(p, i)
    chain = _gf2_rows(rng, n)
    for r in range(p + 1, q + 1):
        chain[r - 1] = [int(t == r - 2) for t in range(n)]
    files["chain.txt"] = _text("gf2", chain)
    lp = rng.randint(1, 3)
    lq = rng.randint(lp + 2, n)
    lin = _gf2_rows(rng, n)
    for r in range(lp + 1, lq + 1):
        lin[r - 1] = [int(lp - 1 <= t < r - 1) for t in range(n)]
    files["linorder.txt"] = _text("gf2", lin)
    units = ",".join(str(rng.randrange(1, 7)) for _ in range(5))
    seed_file = str(root / "src/seqmat/data/orbit_seed_10.txt")

    def ok(*args, stdin=None):
        return {"op": "cli", "args": list(args), "stdin": stdin, "expect": "stdout"}

    calls = [
        ok("census", "--n", "3"),
        ok("apply", "--mode", "parallel", "apply_m.txt", "apply_x.txt"),
        ok("apply", "--mode", "sequential", "seqapply_m.txt", "seqapply_x.txt"),
        ok("smatrix", "smatrix.txt"),
        ok("program", "program.txt"),
        ok("sequentialize", "seq_fixups.txt"),
        ok("sequentialize", "--method", "perm", "seq_perm.txt"),
        ok("preimage", "preimage.txt"),
        ok("regularize", "regularize.txt"),
        ok("regularize", "--units", units, "units.txt"),
        ok("regularize", "--trace", "trace.txt"),
        ok("phi", "phi.txt"),
        ok("orbit", seed_file),
        ok("census", "--n", "4"),
        ok("equiv", "equiv_a.txt", "-", stdin=files["equiv_b.txt"]),
        ok("graph", "constructs", "constructs.txt"),
        ok("graph", "chain", "--p", str(p), "--q", str(q), "--i", str(i), "--j", str(j), "chain.txt"),
        ok("graph", "linorder", "--p", str(lp), "--q", str(lq), "linorder.txt"),
        ok("graph", "dot", "dot.txt"),
        {"op": "cli", "args": ["smatrix", "bad_header.txt"], "stdin": None, "expect": "error"},
        {"op": "cli", "args": ["census", "--n", "9"], "stdin": None, "expect": "error"},
        {"op": "cli", "args": ["frobnicate", "x.txt"], "stdin": None, "expect": "usage"},
        {"op": "cli", "args": ["smatrix", "not_utf8.txt"], "stdin": None, "expect": "error",
         "breach": "non-UTF-8 input ends in a traceback"},
        {"op": "cli", "args": ["equiv", "-", "-"], "stdin": files["equiv_a.txt"], "expect": "usage",
         "breach": "'-' given twice is not refused as a usage error"},
    ]
    expected = json.loads((HERE / "expected.json").read_text())
    return {
        "calls": calls,
        "warmup": 0,
        "min_rounds": 5,
        "files": files,
        "matrix_files": sorted(k for k in files if k not in ("bad_header.txt", "not_utf8.txt")
                               and not k.endswith("_x.txt")),
        "vector_files": sorted(k for k in files if k.endswith("_x.txt")),
        "expected": {"seed_orbit_length": expected["seed_orbit_length"],
                     "census": {n: expected["census"][n] for n in ("3", "4")}},
    }


PLANS = {
    "census": census_plan,
    "compile-finite": finite_plan,
    "compile-rational": rational_plan,
    "cli": cli_plan,
}


def make_plan(workload, seed, root):
    return PLANS[workload](random.Random(f"{workload}:{seed}"), root)
