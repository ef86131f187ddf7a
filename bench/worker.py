"""One fresh process per measured run: set up, warm up, time every call.

Started by run.py with PYTHONPATH pointing at the checkout's src/.
Set-up is interpreter start, ``import seqmat``, parsing every input
through seqmat.formats and one untimed warm-up call.  Then whole rounds
of the plan are timed, call by call, until the plan's min_rounds and
MIN_CALLS calls are done and the next round would pass --seconds (or for
exactly --rounds rounds).  Each output is checked by the benchmark's own
oracle between calls, off the clock.  Times are rescaled by speed.py.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import oracle
import speed

CLI_TIMEOUT_S = 60
#: Enough calls that the 90th percentile has ten samples beyond it.
MIN_CALLS = 100


class Workload:
    """Runs and checks the calls of one plan against the seqmat modules."""

    def __init__(self, plan, workdir, tracer):
        self.plan = plan
        self.workdir = workdir
        self.tracer = tracer
        self.mod = {name: importlib.import_module(f"seqmat.{name}") for name in
                    ("dynamics", "formats", "graphs", "matrix", "regularize", "sequentialize")}
        self.counts = {"fixups": 0, "swaps": 0, "steps": 0, "coeff_bits": 0, "states": 0,
                       "cycles": 0}
        self.cli = {"interp_s": 0.0, "import_s": 0.0, "calls": 0}

    def parse_inputs(self):
        formats = self.mod["formats"]
        for call in self.plan["calls"]:
            if "text" in call:
                formats.parse_matrix(call["text"])
        for name in self.plan.get("matrix_files", ()):
            formats.parse_matrix((self.workdir / name).read_text())
        for name in self.plan.get("vector_files", ()):
            formats.parse_vector((self.workdir / name).read_text())

    # -- calls: each returns its output; check() judges it ------------------

    def run(self, call):
        return getattr(self, "call_" + call["op"])(call)

    def call_census(self, call):
        return self.mod["dynamics"].census(call["n"])

    def call_seed_orbit(self, call):
        dynamics = self.mod["dynamics"]
        return dynamics.orbit(dynamics.load_orbit_seed())

    def call_orbit(self, call):
        return self.mod["dynamics"].orbit(self.mod["formats"].parse_matrix(call["text"]))

    def call_compile(self, call):
        formats, matrix = self.mod["formats"], self.mod["matrix"]
        M = formats.parse_matrix(call["text"])
        program, coding = self.mod["sequentialize"].sequentialize(M)
        perm_program, perm_coding = self.mod["sequentialize"].sequentialize_perm(M)
        S = matrix.seq_matrix(M)
        D = None
        if call["regularize"]:
            ones = matrix.Vector(M.field, (M.field.one,) * M.n)
            D = self.mod["regularize"].regularize_general(M, ones)
        out = {
            "program": formats.format_program(program),
            "coding": formats.format_coding(coding),
            "perm_program": formats.format_program(perm_program),
            "perm_coding": formats.format_coding(perm_coding),
            "smatrix": formats.format_matrix(S),
        }
        if D is not None:
            out["regular"] = formats.format_matrix(D)
        return out

    def call_cli(self, call):
        stdin = call["stdin"].encode() if call["stdin"] is not None else None
        cmd = [sys.executable, "-m", "seqmat.cli"]
        totals = self.workdir / "cli_totals.json"
        if self.tracer is not None:
            shim = Path(__file__).with_name("cli_shim.py")
            cmd = [sys.executable, str(shim), str(totals), str(time.monotonic())]
        done = subprocess.run(cmd + call["args"], input=stdin, capture_output=True,
                              cwd=self.workdir, timeout=CLI_TIMEOUT_S,
                              stdin=None if stdin is not None else subprocess.DEVNULL)
        if self.tracer is not None:
            shim_out = json.loads(totals.read_text())
            totals.unlink()
            self.tracer.merge(shim_out["tracer"])
            for key in ("interp_s", "import_s"):
                self.cli[key] += shim_out[key]
            self.cli["calls"] += 1
        return done

    def attempt(self, call):
        """Time one call and check it: (start, end, problem or None, work units).

        An exception from seqmat is a failed call, not the end of the run.
        """
        start = time.monotonic()
        try:
            out = self.tracer.run("call." + call["op"], self.run, call) if self.tracer else self.run(call)
        except Exception as exc:  # noqa: BLE001 - reported as this call's failure
            return start, time.monotonic(), f"{call['op']} raised {type(exc).__name__}: {exc}", 0
        end = time.monotonic()
        try:
            return (start, end, *self.check(call, out))
        except (ValueError, KeyError, IndexError) as exc:
            return start, end, f"{call['op']} output unreadable: {exc!r}", 0

    # -- oracle ------------------------------------------------------------------

    def check(self, call, out):
        """(problem or None, work units) for one call's output."""
        op, c = call["op"], self.counts
        if op == "census":
            hist = {str(k): v for k, v in out.histogram.items()}
            expect = call["expect"]
            c["states"] += sum(out.histogram.values())
            c["cycles"] += sum(v // k for k, v in out.histogram.items())
            if hist != expect["histogram"] or out.max_cycle_length != expect["max"]:
                return "census histogram differs from expected.json", 0
            return None, sum(out.histogram.values())
        if op in ("orbit", "seed_orbit"):
            c["states"] += out.cycle_length
            c["cycles"] += 1
            if out.cycle_length != call["length"]:
                return f"cycle length {out.cycle_length}, expected {call['length']}", 0
            return None, out.cycle_length
        if op == "compile":
            problem, counts = oracle.check_compile(call["text"], out)
            for key in ("fixups", "swaps", "steps"):
                c[key] += counts[key]
            c["coeff_bits"] = max(c["coeff_bits"], counts["coeff_bits"])
            return problem, 1
        return self.check_cli(call, out), 1

    def check_cli(self, call, done):
        err = done.stderr.decode(errors="replace")
        lines = err.splitlines()
        expect = call["expect"]
        if expect == "stdout":
            want = self.cli_expected(call["args"], call["stdin"]).encode()
            if done.returncode != 0 or err:
                return f"exit {done.returncode}, stderr {err[-200:]!r}"
            return None if done.stdout == want else "stdout differs from the library's output"
        if done.stdout:
            return "output on stdout for a failing call"
        if "Traceback" in err:
            return f"traceback on stderr (exit {done.returncode})"
        if expect == "error":
            if done.returncode != 1 or len(lines) != 1 or not lines[0].startswith("error: "):
                return f"expected exit 1 and one 'error:' line, got exit {done.returncode}"
            return None
        last = lines[-1] if lines else ""
        if done.returncode != 2 or not (last.startswith("seqmat") and ": error: " in last):
            return f"expected a usage error with exit 2, got exit {done.returncode}"
        return None

    def cli_expected(self, args, stdin):
        """stdout of one CLI call, computed in-process from seqmat's library API."""
        m = self.mod
        F = m["formats"]
        flags, pos = {}, []
        rest = iter(args)
        for a in rest:
            if a in ("--trace", "--force"):
                flags[a] = True
            elif a.startswith("--"):
                flags[a] = next(rest)
            else:
                pos.append(a)

        def read(path):
            return stdin if path == "-" else (self.workdir / path).read_text()

        def load(path):
            return F.parse_matrix(read(path))

        cmd = pos[0]
        if cmd == "apply":
            M, X = load(pos[1]), F.parse_vector(read(pos[2]))
            fn = m["matrix"].parallel_apply if flags["--mode"] == "parallel" else m["matrix"].seq_apply
            return F.format_vector(fn(M, X))
        if cmd == "smatrix":
            return F.format_matrix(m["matrix"].seq_matrix(load(pos[1])))
        if cmd == "program":
            return F.format_program(m["matrix"].seq_program(load(pos[1])))
        if cmd == "sequentialize":
            seq = m["sequentialize"]
            fn = seq.sequentialize_perm if flags.get("--method") == "perm" else seq.sequentialize
            program, coding = fn(load(pos[1]))
            return F.format_program(program) + "\n" + F.format_coding(coding)
        if cmd == "preimage":
            found = m["sequentialize"].preimage_search(load(pos[1]))
            return "none\n" if found is None else F.format_matrix(found)
        if cmd == "regularize":
            reg, M = m["regularize"], load(pos[1])
            if "--units" in flags:
                units = tuple(M.field.parse_scalar(u) for u in flags["--units"].split(","))
                return F.format_matrix(reg.regularize_general(M, m["matrix"].Vector(M.field, units)))
            if "--trace" in flags:
                return "\n".join(F.format_matrix(step) for step in reg.regularize_trace(M))
            return F.format_matrix(reg.regularize(M))
        if cmd == "phi":
            return F.format_matrix(m["dynamics"].phi(load(pos[1])))
        if cmd == "orbit":
            return f"cycle_length {self.plan['expected']['seed_orbit_length']}\n"
        if cmd == "census":
            census = self.plan["expected"]["census"][flags["--n"]]
            lines = [f"{k} {v}\n" for k, v in census["histogram"].items()]
            return "".join(lines) + f"max {census['max']}\n"
        if cmd == "equiv":
            same = m["matrix"].seq_equivalent(load(pos[1]), load(pos[2]))
            return "true\n" if same else "false\n"
        g = m["graphs"]
        G = g.Digraph(load(pos[2]))
        if pos[1] == "constructs":
            return F.format_matrix(g.constructs(G).adjacency)
        if pos[1] == "chain":
            p, q, i, j = (int(flags[k]) for k in ("--p", "--q", "--i", "--j"))
            return F.format_matrix(g.chain_rewrite(G, p, q, i, j).adjacency)
        if pos[1] == "linorder":
            return F.format_matrix(g.linorder_rewrite(G, int(flags["--p"]), int(flags["--q"])).adjacency)
        return g.to_dot(G)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace")
    args = ap.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with speed.Sampler() as sampler:
        result = measure(args)
    result["setup_scaled_s"] = sampler.rescale(args.launched, args.launched + result["setup_s"])
    if "spans" in result:
        result["scaled"] = [sampler.rescale(start, end) for start, end in result.pop("spans")]
    Path(args.out).write_text(json.dumps(result))


def measure(args):
    import seqmat
    import tracing

    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text())
    in_process = "matrix_files" not in plan  # the cli workload runs seqmat in child processes
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        if in_process:
            tracer.install()
    work = Workload(plan, plan_path.parent, tracer)
    work.parse_inputs()
    warm_problem = work.attempt(plan["calls"][plan["warmup"]])[2]
    result = {"setup_s": time.monotonic() - args.launched, "seqmat": seqmat.__file__}
    if args.setup_only:
        return result

    result["traced"] = tracing.is_traced()
    if tracer is not None:
        tracer.reset()
    work.counts = dict.fromkeys(work.counts, 0)
    work.cli = dict.fromkeys(work.cli, 0)
    latencies, spans, units, failed, rounds, timed = [], [], 0, 0, 0, 0.0
    problems = [f"warm-up call: {warm_problem}"] if warm_problem else []
    breaches = []
    while True:
        for call in plan["calls"]:
            gc.collect()
            if tracer is not None:
                tracer.call_id = len(latencies)
            start, end, problem, done = work.attempt(call)
            latencies.append(end - start)
            spans.append((start, end))
            timed += end - start
            units += done
            if problem:
                failed += 1
                if "breach" in call:
                    breaches.append(f"{call['breach']} ({problem})")
                else:
                    problems.append(problem)
        rounds += 1
        if args.rounds:
            if rounds == args.rounds:
                break
        elif (rounds >= plan["min_rounds"] and len(latencies) >= MIN_CALLS
              and timed + timed / rounds > args.seconds):
            break
    # The cli workload's program runs in the child processes.
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result.update(
        latencies=latencies, spans=spans, timed_s=timed, units=units, failed=failed,
        rounds=rounds, problems=problems[:20], breaches=sorted(set(breaches)),
        counts=work.counts, peak_rss_kb=resource.getrusage(who).ru_maxrss,
    )
    if tracer is not None:
        tracer.dump(args.trace)
        result["tracer"] = {k: v for k, v in tracer.export().items() if k not in ("spans", "folded")}
        result["cli"] = work.cli
    return result


if __name__ == "__main__":
    main()
