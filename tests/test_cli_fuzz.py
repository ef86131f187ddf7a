"""The CLI contract on random argv and malformed files, called in process.

Whatever the arguments and input files, main exits 0, 1 or 2 (argparse
leaves through SystemExit), exit 1 leaves exactly one "error: " line on
stderr, and no other exception escapes.  The examples are derandomized,
so every run makes the same calls, and each call is cheap: matrices have
n <= 8, census runs with --force only up to n = 5, and --max-iter is at
most 2**16.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqmat.cli import main

FIELDS = ("gf2", "gfp 3", "gfp 7", "gfp 2147483647", "rational")
JUNK_TOKENS = ("", "x", "-", "--", "1/0", "1.5", "3/-4", "9" * 30, "-0", "\x00", "é", "n", "gfp")
JUNK_ARGS = ("-", "--bogus", "--limit", "7", "--trace", "-h", "0", "-1", "x")


@st.composite
def matrix_text(draw, rows=None):
    """A well-formed matrix file (a vector file when rows == 1)."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 8))
    regular = draw(st.booleans())
    scalar = st.integers(-9, 9).map(str)
    if field == "rational":
        scalar = scalar | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
    lines = []
    for i in range(n if rows is None else rows):
        entries = [draw(scalar) for _ in range(n)]
        if regular and field == "gf2":
            entries = [e if j != i else "1" for j, e in enumerate(entries)]
            entries = [str(int(e) % 2) for e in entries]
        lines.append(" ".join(entries))
    return "\n".join([field, f"n {n}", *lines]) + "\n"


@st.composite
def malformed(draw, text):
    """text with one line dropped, duplicated or given a junk token, or a
    new dimension line."""
    lines = text.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("drop", "duplicate", "token", "dimension")))
    if how == "drop":
        del lines[at]
    elif how == "duplicate":
        lines.insert(at, lines[at])
    elif how == "token":
        tokens = lines[at].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(JUNK_TOKENS))
        lines[at] = " ".join(tokens)
    else:
        lines[1] = f"n {draw(st.sampled_from(('0', '-3', '9', '1000000', 'x', '')))}"
    return "\n".join(lines) + "\n"


def file_bytes(rows=None):
    valid = matrix_text(rows)
    text = st.one_of(valid, valid, valid.flatmap(malformed), st.text(max_size=40))
    return text.map(str.encode) | st.binary(max_size=40)


SMALL_INTS = tuple(str(i) for i in range(-2, 10)) + ("x", "", "99999999999999999999")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _file_arg(data, workdir, name, stdin, rows=None):
    """A path to a fresh input file, a missing path, a directory, or -."""
    kind = data.draw(st.sampled_from(("file",) * 5 + ("missing", "directory", "stdin")))
    if kind == "missing":
        return str(workdir / "missing.txt")
    if kind == "directory":
        return str(workdir)
    content = data.draw(file_bytes(rows))
    if kind == "stdin":
        stdin.append(content)
        return "-"
    path = workdir / name
    path.write_bytes(content)
    return str(path)


def _argv(data, workdir, stdin):
    def matrix(name="a.txt"):
        return [_file_arg(data, workdir, name, stdin)]

    def option(flag, values):
        return data.draw(st.sampled_from(([], [flag, data.draw(values)])))

    command = data.draw(st.sampled_from((
        "apply", "smatrix", "program", "sequentialize", "preimage", "regularize", "phi",
        "orbit", "census", "equiv", "graph constructs", "graph chain", "graph linorder",
        "graph dot",
    )))
    argv = command.split()
    if command == "apply":
        argv += ["--mode", data.draw(st.sampled_from(("parallel", "sequential", "both")))]
        argv += matrix() + [_file_arg(data, workdir, "v.txt", stdin, rows=1)]
    elif command == "sequentialize":
        argv += option("--method", st.sampled_from(("fixups", "perm", "other")))
        argv += matrix()
    elif command == "preimage":
        argv += option("--limit", st.integers(-1, 1 << 20).map(str))  # gone: a usage error
        argv += matrix()
    elif command == "regularize":
        units = st.lists(st.sampled_from(("0", "1", "2", "-1", "1/2", "x", "")), max_size=9)
        argv += option("--units", units.map(",".join))
        argv += data.draw(st.sampled_from(([], ["--trace"])))
        argv += matrix()
    elif command == "orbit":
        argv += option("--max-iter", st.integers(-3, 1 << 16).map(str) | st.just("x"))
        argv += matrix()
    elif command == "census":
        n = data.draw(st.sampled_from(SMALL_INTS))
        argv += ["--n", n]
        if not n.lstrip("-").isdecimal() or int(n) <= 5:  # --force above 5 would run a minute
            argv += data.draw(st.sampled_from(([], ["--force"])))
    elif command == "equiv":
        argv += matrix() + matrix("b.txt")
    elif command in ("graph chain", "graph linorder"):
        flags = ("--p", "--q", "--i", "--j") if command == "graph chain" else ("--p", "--q")
        for flag in flags:
            argv += [flag, data.draw(st.sampled_from(SMALL_INTS))]
        argv += matrix()
    else:
        argv += matrix()
    # now and then, drop a token or insert a stray one
    if data.draw(st.integers(0, 7)) == 0:
        del argv[data.draw(st.integers(0, len(argv) - 1))]
    if data.draw(st.integers(0, 7)) == 0:
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.sampled_from(JUNK_ARGS)))
    return argv


def _call(argv, stdin_bytes):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes))
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(
    derandomize=True,
    database=None,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_contract_on_random_argv(workdir, data):
    stdin = []
    argv = _argv(data, workdir, stdin)
    code, out, err = _call(argv, stdin[0] if stdin else b"")
    assert code in (0, 1, 2), argv
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
    if code == 0:
        assert err == "", argv
