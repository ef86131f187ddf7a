"""Traced stand-in for ``python -m seqmat.cli``, used by the traced cli run.

Usage: cli_shim.py OUT LAUNCHED ARGS...

Runs seqmat.cli.main(ARGS) with the tracer installed, exits with its
status (a traceback still ends the process with status 1), and writes
to OUT the interpreter start time (LAUNCHED is the CLOCK_MONOTONIC time
the parent started this process), the import time of seqmat.cli, and
the tracer's counts and spans.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

out_path, launched, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
before = time.monotonic()
import seqmat.cli  # noqa: E402

imported = time.monotonic()

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
status = 1
try:
    status = tracer.run("cli.main", seqmat.cli.main, argv)
except SystemExit as exc:
    status = exc.code
finally:
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"interp_s": started - launched, "import_s": imported - before,
                   "tracer": tracer.export()}, fh)
sys.exit(status)
