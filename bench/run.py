"""seqmat benchmark: one workload, one seed, end-to-end or traced metrics.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

--trace 0 launches the worker SETUP_RUNS times for set-up only and once
more to time whole rounds of calls for about --seconds, and reports the
end-to-end metrics.  --trace 1 runs one untraced round and one traced
round in fresh workers and reports the per-layer metrics of the traced
round, plus the tracing overhead (traced over untraced timed seconds).
Every call's output is checked by the benchmark's oracle in both modes.
The last line of stdout is the JSON result; metrics are printed by name
with their unit above it.  Spans of a traced run go to
.bench_out/trace-<workload>-<seed>.jsonl.
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
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 6
#: The whole run must end within 180 s; workers share this budget.
BUDGET_S = 170

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
FIELD_OPS = ("add", "sub", "mul", "neg", "inv")
SPAN_METRICS = (
    "matrix.seq_matrix", "matrix.program_symbolic", "matrix.pack_gf2_rows",
    "matrix.unpack_gf2_rows", "sequentialize.sequentialize", "sequentialize.sequentialize_perm",
    "sequentialize.preimage_search", "regularize.regularize_packed",
    "regularize.regularize_general",
)
SELF_ONLY = (
    "dynamics.census", "dynamics.orbit", "formats.parse_matrix", "formats.format_matrix",
    "formats.format_program", "formats.format_coding", "graphs.constructs",
    "graphs.chain_rewrite", "graphs.linorder_rewrite", "graphs.to_dot",
)
COUNT_METRICS = {
    "sequentialize.fixups": ("fixups", "count"),
    "sequentialize.swaps": ("swaps", "count"),
    "sequentialize.steps": ("steps", "count"),
    "fields.coeff_bits_max": ("coeff_bits", "bit"),
    "dynamics.states": ("states", "count"),
    "dynamics.cycles": ("cycles", "count"),
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.launches = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def launch(self, *flags):
        """Run one fresh worker; return its JSON result."""
        self.launches += 1
        out = self.workdir / f"result{self.launches}.json"
        launched = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(self.workdir / "plan.json"),
               "--out", str(out), "--launched", repr(launched), *flags]
        timeout = self.deadline - launched
        if timeout <= 0:
            raise BenchError("time budget exhausted before the worker could start")
        try:
            done = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
        if done.returncode != 0:
            raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
        result = json.loads(out.read_text())
        if not Path(result["seqmat"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"worker imported seqmat from {result['seqmat']}, not this checkout")
        return result


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner, seconds):
    setups = [runner.launch("--setup-only") for _ in range(SETUP_RUNS - 1)]
    main = runner.launch("--seconds", str(seconds))
    if main["traced"]:
        raise BenchError("the timed worker found tracing wrappers installed")
    setups.append(main)
    lat = main["scaled"]
    values = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "work_per_s": main["units"] / sum(lat),
        "call_p50_ms": 1000 * statistics.median(lat),
        "call_p90_ms": 1000 * quantile(lat, 90),
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
        "ok_frac": 1 - main["failed"] / len(lat),
    }
    raw = main["latencies"]
    info = {"rounds": main["rounds"], "calls": len(lat),
            "unscaled:": f"setup_s {statistics.median(s['setup_s'] for s in setups):.4g}  "
                          f"work_per_s {main['units'] / main['timed_s']:.6g}  "
                          f"call_p50_ms {1000 * statistics.median(raw):.4g}  "
                          f"call_p90_ms {1000 * quantile(raw, 90):.4g}"}
    return [main], {k: (v, END_TO_END[k]) for k, v in values.items()}, info


def per_layer(runner, trace_path):
    plain = runner.launch("--rounds", "1")
    traced = runner.launch("--rounds", "1", "--trace", str(trace_path))
    if plain["traced"]:
        raise BenchError("the untraced worker found tracing wrappers installed")
    t = traced["tracer"]
    field_calls = {(op, kind): value for op, kind, value in t["field_calls"]}
    metrics = {}
    for op in FIELD_OPS:
        for kind in ("gf2", "gfp", "q"):
            metrics[f"fields.{op}.calls.{kind}"] = (field_calls[(op, kind)], "count")
    for name in SPAN_METRICS:
        metrics[f"{name}.calls"] = (t["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (t["self_s"].get(name, 0.0), "s")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = (t["self_s"].get(name, 0.0), "s")
    for name, (key, unit) in COUNT_METRICS.items():
        metrics[name] = (traced["counts"][key], unit)
    metrics["formats.bytes_in"] = (t["bytes_in"], "B")
    metrics["formats.bytes_out"] = (t["bytes_out"], "B")
    cli = traced["cli"]
    per_call = 1000 / cli["calls"] if cli["calls"] else 0.0
    metrics["cli.interp_ms"] = (cli["interp_s"] * per_call, "ms")
    metrics["cli.import_ms"] = (cli["import_s"] * per_call, "ms")
    metrics["cli.main.self_ms"] = (t["self_s"].get("cli.main", 0.0) * per_call, "ms")
    metrics["trace.overhead"] = (sum(traced["scaled"]) / sum(plain["scaled"]), "ratio")
    if plain["counts"] != traced["counts"]:
        raise BenchError("traced and untraced rounds produced different output counts")
    info = {"calls": len(traced["latencies"]), "spans": str(trace_path.relative_to(ROOT))}
    return [plain, traced], metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not (ROOT / "src/seqmat/__init__.py").is_file():
        print(f"error: no seqmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        plan = workloads.make_plan(args.workload, args.seed, ROOT)
        for name, data in plan.pop("files", {}).items():
            path = workdir / name
            path.write_bytes(data) if isinstance(data, bytes) else path.write_text(data)
        (workdir / "plan.json").write_text(json.dumps(plan))
        runner = Runner(workdir, start + BUDGET_S)
        if args.trace:
            (ROOT / ".bench_out").mkdir(exist_ok=True)
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
            workers, metrics, info = per_layer(runner, trace_path)
        else:
            workers, metrics, info = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for w in workers for p in w["problems"]]
    breaches = sorted({b for w in workers for b in w["breaches"]})
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for problem in problems:
        print(f"  WRONG OUTPUT: {problem}")
    for breach in breaches:
        print(f"  known contract breach, counted as failed: {breach}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(w["latencies"]) for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
