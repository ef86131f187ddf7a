"""Command-line behavior: outputs, exit codes, determinism, round trips."""

import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import seqmat
from seqmat import Matrix, format_matrix, parse_coding, parse_matrix
from seqmat.cli import main
from seqmat.fields import GF2, RATIONAL

M3_TEXT = "rational\nn 3\n0 1 2\n3 4 5\n6 7 8\n"
IMPOSSIBLE_TEXT = "gf2\nn 2\n0 0\n1 0\n"
REG_INPUT_TEXT = "gf2\nn 3\n0 1 1\n1 1 0\n1 0 1\n"


@pytest.fixture
def m3(tmp_path):
    path = tmp_path / "m3.txt"
    path.write_text(M3_TEXT)
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def stdin_stream(text):
    """A text stream with the binary .buffer that the CLI reads stdin through."""
    return io.TextIOWrapper(io.BytesIO(text.encode()))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_smatrix_worked_example(capsys, m3):
    code, out, err = run(capsys, "smatrix", m3)
    assert code == 0 and err == ""
    assert out == "rational\nn 3\n0 1 2\n0 7 11\n0 55 97\n"


def test_apply_modes(capsys, tmp_path, m3):
    vec = write(tmp_path, "v.txt", "rational\nn 3\n1 1 1\n")
    code, out, _ = run(capsys, "apply", "--mode", "parallel", m3, vec)
    assert code == 0 and out == "rational\nn 3\n3 12 21\n"
    code, out, _ = run(capsys, "apply", "--mode", "sequential", m3, vec)
    assert code == 0 and out == "rational\nn 3\n3 18 152\n"


def test_program_listing(capsys, m3):
    code, out, _ = run(capsys, "program", m3)
    assert code == 0
    assert out == "x1 := x2 + 2*x3\nx2 := 3*x1 + 4*x2 + 5*x3\nx3 := 6*x1 + 7*x2 + 8*x3\n"


def test_sequentialize_fixups_output(capsys, tmp_path):
    src = write(tmp_path, "e.txt", "rational\nn 3\n0 0 1\n1 1 1\n3 3 2\n")
    code, out, _ = run(capsys, "sequentialize", src)
    assert code == 0
    program_part, coding_part = out.split("\n\n", 1)
    assert program_part.splitlines() == [
        "x1 := -x1 - x2",
        "x2 := -x1 + x3",
        "x3 := -3*x1 + 2*x3",
        "x1 := x1 + x2",
    ]
    coding = parse_coding(coding_part)
    assert coding.matrix == Matrix.of(RATIONAL, [[-1, -1, 0], [-1, 0, 1], [-3, 0, 2]])
    assert coding.fixups == (1, None, None)


def test_sequentialize_perm_output(capsys, tmp_path):
    src = write(tmp_path, "e.txt", "rational\nn 3\n0 0 1\n1 1 1\n3 3 2\n")
    code, out, _ = run(capsys, "sequentialize", "--method", "perm", src)
    assert code == 0
    _, coding_part = out.split("\n\n", 1)
    coding = parse_coding(coding_part)
    assert sorted(coding.perm) == [0, 1, 2]
    assert coding.perm != (0, 1, 2)


def test_preimage_none(capsys, tmp_path):
    src = write(tmp_path, "imp.txt", IMPOSSIBLE_TEXT)
    code, out, _ = run(capsys, "preimage", src)
    assert code == 0 and out == "none\n"


def test_preimage_hit_reparses(capsys, tmp_path):
    src = write(tmp_path, "m.txt", "gf2\nn 2\n1 1\n1 0\n")
    code, out, _ = run(capsys, "preimage", src)
    assert code == 0
    assert parse_matrix(out) == Matrix.of(GF2, [[1, 1], [1, 1]])


def test_regularize_plain_and_trace(capsys, tmp_path):
    src = write(tmp_path, "r.txt", REG_INPUT_TEXT)
    code, out, _ = run(capsys, "regularize", src)
    assert code == 0
    assert parse_matrix(out) == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    code, out, _ = run(capsys, "regularize", "--trace", src)
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    assert parse_matrix(blocks[0]) == Matrix.of(GF2, [[1, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert parse_matrix(blocks[1]) == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    assert parse_matrix(blocks[2]) == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])


def test_regularize_units(capsys, tmp_path):
    src = write(tmp_path, "i.txt", "gfp 5\nn 3\n1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run(capsys, "regularize", "--units", "2,3,4", src)
    assert code == 0
    assert out == "gfp 5\nn 3\n2 0 0\n0 3 0\n0 0 4\n"


def test_regularize_units_defaults_to_ones_off_gf2(capsys, tmp_path):
    src = write(tmp_path, "q.txt", "rational\nn 2\n0 2\n3 0\n")
    code, out, _ = run(capsys, "regularize", src)
    assert code == 0
    M = parse_matrix(out)
    assert M.rows[0][0] == 1 and M.rows[1][1] == 1


def test_regularize_trace_refuses_non_gf2(capsys, tmp_path):
    src = write(tmp_path, "g7.txt", "gfp 7\nn 2\n0 3\n5 0\n")
    code, out, err = run(capsys, "regularize", "--trace", src)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "GF(2)" in err and len(err.splitlines()) == 1


def test_phi(capsys, tmp_path):
    src = write(tmp_path, "d.txt", "gf2\nn 3\n1 1 1\n1 1 1\n0 1 1\n")
    code, out, _ = run(capsys, "phi", src)
    assert code == 0
    assert parse_matrix(out) == Matrix.of(GF2, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])


def test_orbit_bundled_seed(capsys):
    from importlib import resources

    seed_path = str(resources.files("seqmat").joinpath("data/orbit_seed_10.txt"))
    code, out, _ = run(capsys, "orbit", seed_path)
    assert code == 0 and out == "cycle_length 13122\n"


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "max 18"
    parsed = [line.split() for line in lines[:-1]]
    lengths = [int(a) for a, _ in parsed]
    assert lengths == sorted(lengths)
    assert sum(int(b) for _, b in parsed) == 4096


def test_equiv(capsys, tmp_path):
    a = write(tmp_path, "a.txt", "rational\nn 4\n1 2 3 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n")
    b = write(tmp_path, "b.txt", "rational\nn 4\n1 2 3 4\n1 0 0 0\n1 0 0 0\n1 0 0 0\n")
    code, out, _ = run(capsys, "equiv", a, b)
    assert code == 0 and out == "true\n"
    c = write(tmp_path, "c.txt", "rational\nn 4\n1 2 3 4\n1 0 0 0\n1 0 0 0\n0 0 0 1\n")
    code, out, _ = run(capsys, "equiv", a, c)
    assert code == 0 and out == "false\n"


def test_graph_subcommands(capsys, tmp_path):
    adj = write(tmp_path, "g.txt", "gf2\nn 3\n1 1 1\n1 1 1\n0 1 1\n")
    code, out, _ = run(capsys, "graph", "constructs", adj)
    assert code == 0
    assert parse_matrix(out) == Matrix.of(GF2, [[1, 1, 1], [1, 0, 0], [1, 0, 1]])

    chain = write(tmp_path, "c.txt", "gf2\nn 3\n1 0 0\n1 0 0\n0 1 0\n")
    code, out, _ = run(capsys, "graph", "chain", "--p", "1", "--q", "3", "--i", "2", "--j", "1", chain)
    assert code == 0
    assert parse_matrix(out) == Matrix.of(GF2, [[1, 0, 0], [1, 0, 0], [1, 0, 0]])

    order = write(tmp_path, "l.txt", "gf2\nn 3\n0 0 0\n1 0 0\n1 1 0\n")
    code, out, _ = run(capsys, "graph", "linorder", "--p", "1", "--q", "3", order)
    assert code == 0
    assert parse_matrix(out) == Matrix.of(GF2, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])

    code, out, _ = run(capsys, "graph", "dot", chain)
    assert code == 0
    assert out.startswith("digraph {\n")
    assert "  x2 -> x1;" in out.splitlines()


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin_stream(M3_TEXT))
    code, out, _ = run(capsys, "smatrix", "-")
    assert code == 0
    assert out.splitlines()[-1] == "0 55 97"


def test_domain_errors_exit_one(capsys, tmp_path):
    bad = write(tmp_path, "bad.txt", "gf2\nn 2\n1 0\n")
    code, out, err = run(capsys, "smatrix", bad)
    assert code == 1 and out == "" and err.startswith("error:")

    nonprime = write(tmp_path, "np.txt", "gfp 6\nn 1\n1\n")
    code, _, err = run(capsys, "smatrix", nonprime)
    assert code == 1 and "prime" in err

    mismatch_m = write(tmp_path, "mm.txt", "gf2\nn 2\n1 0\n0 1\n")
    mismatch_v = write(tmp_path, "mv.txt", "gfp 3\nn 2\n1 1\n")
    code, _, err = run(capsys, "apply", "--mode", "parallel", mismatch_m, mismatch_v)
    assert code == 1 and "fields" in err

    code, _, err = run(capsys, "census", "--n", "7")
    assert code == 1 and "force" in err

    missing = str(tmp_path / "missing.txt")
    code, _, err = run(capsys, "smatrix", missing)
    assert code == 1 and err.startswith("error:")

    rational = write(tmp_path, "rat.txt", "rational\nn 2\n0 0\n1 0\n")
    code, _, err = run(capsys, "preimage", rational)
    assert code == 1 and "finite" in err

    nonreg = write(tmp_path, "nr.txt", "gf2\nn 2\n0 1\n1 1\n")
    code, _, err = run(capsys, "orbit", nonreg)
    assert code == 1 and "regular" in err


def test_non_utf8_input_exits_one(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"gf2\nn 2\n1 \xff\n0 1\n")
    code, out, err = run(capsys, "smatrix", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert len(err.splitlines()) == 1


def test_non_utf8_stdin_exits_one():
    # Under the C locale Python's text layer would let the bad byte through
    # as a surrogate; the CLI must refuse it as it refuses a file.
    src = str(Path(seqmat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "seqmat.cli", "smatrix", "-"],
        input=b"gf2\nn 2\n1 \xff\n0 1\n", capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == b""
    err = done.stderr.decode()
    assert err.startswith("error: standard input is not UTF-8 text")
    assert len(err.splitlines()) == 1


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Every CLI call is a new process that pays for each module the CLI
    # imports; -S keeps the site hook's own imports out of the check.
    src = str(Path(seqmat.__file__).resolve().parents[1])
    code = "import sys, seqmat.cli; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_closed_stdin_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, "smatrix", "-")
    assert (code, out, err) == (1, "", "error: standard input is closed\n")


#: n = 12 inputs over GF(2), GF(7), GF(2^31-1), GF(2^63-25) and Q, each with
#: the outputs of COMPILE_COMMANDS in turn, as the entrywise codecs printed
#: them; CI diffs the same files on Python 3.10-3.12.
COMPILE_GOLDEN = Path(__file__).parent / "data" / "compile_golden"
COMPILE_COMMANDS = (("sequentialize",), ("sequentialize", "--method", "perm"), ("smatrix",),
                    ("program",))


@pytest.mark.parametrize("name", sorted(p.stem for p in COMPILE_GOLDEN.glob("*.txt")))
def test_compile_golden_outputs(capsys, name):
    src = str(COMPILE_GOLDEN / f"{name}.txt")
    out = ""
    for command in COMPILE_COMMANDS:
        code, text, err = run(capsys, *command, src)
        assert (code, err) == (0, ""), command
        out += text
    assert out == (COMPILE_GOLDEN / f"{name}.out").read_text()


#: preimage inputs and outputs: GF(2) n = 4 with and without a constructor
#: (outputs of the former exhaustive search); seq_matrix(P) at n = 12 over
#: GF(7) and GF(2^31-1) and at n = 64 over GF(2^31-1) for P with a nonzero
#: diagonal, whose output is P; seq_matrix(P) over GF(3) at n = 24 for P
#: with 8 zero rows, whose class has more than one member, so the output
#: is the first of them and not P; and GF(2) n = 32 with no constructor,
#: its first unsolvable row being row 21.  The last three are outputs of
#: the former row-by-row solve.  CI diffs the same files.
PREIMAGE_GOLDEN = Path(__file__).parent / "data" / "preimage_golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in PREIMAGE_GOLDEN.glob("*.txt")))
def test_preimage_golden_outputs(capsys, name):
    code, out, err = run(capsys, "preimage", str(PREIMAGE_GOLDEN / f"{name}.txt"))
    assert (code, err) == (0, "")
    assert out == (PREIMAGE_GOLDEN / f"{name}.out").read_text()


def test_preimage_limit_is_gone(tmp_path):
    src = write(tmp_path, "m.txt", "gf2\nn 2\n1 1\n1 0\n")
    with pytest.raises(SystemExit) as exited:
        main(["preimage", "--limit", "10", src])
    assert exited.value.code == 2


def test_digit_limit_exits_one(capsys, tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int/str digit limit")
    huge = "7" * (limit + 1)
    inputs = {
        "rational scalar": f"rational\nn 1\n{huge}/3\n",
        "gfp scalar": f"gfp 7\nn 1\n{huge}\n",
        "gfp modulus": f"gfp {huge}\nn 1\n1\n",
    }
    for name, text in inputs.items():
        code, out, err = run(capsys, "smatrix", write(tmp_path, "in.txt", text))
        assert (code, out) == (1, ""), name
        assert err.startswith("error: bad") and len(err.splitlines()) == 1, name
    # A short input whose in-place matrix has an entry of about twice as
    # many digits: A**2 for the A of limit - 300 digits below.
    a = "9" * (limit - 300)
    src = write(tmp_path, "a.txt", f"rational\nn 2\n{a} 0\n{a} {a}\n")
    code, out, err = run(capsys, "smatrix", src)
    assert (code, out) == (1, "")
    assert err == f"error: a result coefficient has more than {limit} digits, Python's int-to-text limit\n"


def test_bad_numbers_exit_one(capsys, tmp_path):
    # Dimensions and coding numbers that pass str.isdigit but not int().
    huge = "7" * 5000
    for text in ("gf2\nn ²\n1\n", f"gf2\nn {huge}\n1\n"):
        code, out, err = run(capsys, "smatrix", write(tmp_path, "in.txt", text))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad dimension") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["--n", "40", "--force"], ["--n", "1" + "0" * 2200]], ids=["40-force", "2201-digits"]
)
def test_census_past_index_range_exits_one(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "census", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("error: census") and len(err.splitlines()) == 1


def test_census_past_table_cap_exits_one(capsys):
    code, out, err = run(capsys, "census", "--n", "7", "--force")
    assert (code, out) == (1, "")
    assert err.startswith("error: census") and len(err.splitlines()) == 1


@pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
def test_memory_error_and_interrupt_exit_one(capsys, monkeypatch, exc):
    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr("seqmat.cli.census", fail)
    code, out, err = run(capsys, "census", "--n", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_stdin_twice_is_a_usage_error(capsys, monkeypatch, m3):
    for argv in (["equiv", "-", "-"], ["apply", "--mode", "parallel", "-", "-"]):
        monkeypatch.setattr("sys.stdin", stdin_stream(M3_TEXT))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: seqmat")
        assert "at most one argument" in err.splitlines()[-1]
    # one '-' next to a file path is still allowed
    monkeypatch.setattr("sys.stdin", stdin_stream(M3_TEXT))
    code, out, _ = run(capsys, "equiv", m3, "-")
    assert code == 0 and out == "true\n"


def test_usage_errors_exit_two(capsys, m3):
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--mode", "sideways", m3, m3])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["regularize", "--trace", "--units", "1,1", m3])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err.splitlines()[-1]


def test_outputs_are_deterministic(capsys, m3):
    first = run(capsys, "smatrix", m3)
    second = run(capsys, "smatrix", m3)
    assert first == second


def test_printed_matrices_reparse(capsys, tmp_path, m3):
    for argv in (["smatrix", m3], ["phi", write(tmp_path, "i.txt", "gf2\nn 2\n1 0\n0 1\n")]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert format_matrix(parse_matrix(out)) == out
