"""Acceptance suite: the package's exit criteria, at full stated sizes.

Each test prints one "criterion N ... PASS" line on success (run with
``pytest -s tests/test_acceptance.py`` to see them as they pass); a
failed assertion surfaces as an ordinary pytest failure for that
criterion.  All equality checks are bit-exact; timed sections assert
their stated wall-clock budgets.
"""

import itertools
import random
import time

from conftest import (
    FIELDS,
    all_gf2_matrices,
    all_regular_gf2_matrices,
    random_matrix,
    random_regular_gf2,
)
from seqmat import (
    GF2,
    RATIONAL,
    Digraph,
    Matrix,
    Vector,
    census,
    chain_rewrite,
    decode_coding,
    format_program,
    graph_equivalent,
    is_regular,
    is_similar,
    linorder_rewrite,
    load_orbit_seed,
    orbit,
    phi,
    preimage_search,
    program_symbolic,
    regularize,
    regularize_trace,
    seq_apply,
    seq_matrix,
    seq_program,
    sequentialize,
    sequentialize_perm,
)
from test_dynamics import _plain_orbit


def _ok(num: int, label: str) -> None:
    print(f"criterion {num:2d} ({label}): PASS", flush=True)


def test_criterion_01_sequential_matrix_worked_example():
    start = time.perf_counter()
    M = Matrix.of(RATIONAL, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    assert seq_matrix(M) == Matrix.of(RATIONAL, [[0, 1, 2], [0, 7, 11], [0, 55, 97]])
    # in-place map is (a, b, c) -> (b + 2c, 7b + 11c, 55b + 97c)
    closed_form = {
        (1, 0, 0): (0, 0, 0),
        (0, 1, 0): (1, 7, 55),
        (0, 0, 1): (2, 11, 97),
    }
    for basis, image in closed_form.items():
        assert seq_apply(M, Vector.of(RATIONAL, basis)) == Vector.of(RATIONAL, image)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    _ok(1, "3x3 in-place matrix, exact")


def test_criterion_02_compiler_exact_examples():
    M = Matrix.of(RATIONAL, [[0, 0, 1], [1, 1, 1], [3, 3, 2]])
    program, coding = sequentialize(M)
    assert format_program(program) == (
        "x1 := -x1 - x2\n"
        "x2 := -x1 + x3\n"
        "x3 := -3*x1 + 2*x3\n"
        "x1 := x1 + x2\n"
    )
    assert coding.matrix == Matrix.of(RATIONAL, [[-1, -1, 0], [-1, 0, 1], [-3, 0, 2]])
    assert coding.fixups_one_based == (2, 0, 0)

    M2 = Matrix.of(RATIONAL, [[0, 0], [1, 0]])
    program2, coding2 = sequentialize(M2)
    assert format_program(program2) == "x1 := -x1\nx2 := -x1\nx1 := x1 + x2\n"
    assert coding2.matrix == Matrix.of(RATIONAL, [[-1, 0], [-1, 0]])
    assert coding2.fixups_one_based == (2, 0)
    _ok(2, "compiler reproduces both worked codings")


def test_criterion_03_compiler_property_suite():
    start = time.perf_counter()
    for field in FIELDS:
        rng = random.Random(1009)
        for trial in range(1000):
            n = trial % 8 + 1
            M = random_matrix(rng, field, n)
            program, coding = sequentialize(M)
            assert program_symbolic(program) == M
            assert len(program) <= 2 * n - 1
            assert program.steps[:n] == seq_program(coding.matrix).steps
            assert decode_coding(coding) == program
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(3, f"3000 random compiles verified in {elapsed:.2f}s")


def test_criterion_04_impossible_preimage():
    start = time.perf_counter()
    M = Matrix.of(GF2, [[0, 0], [1, 0]])
    assert preimage_search(M) is None
    # plain 16-candidate sweep, independently of the search's pruning
    hits = []
    for flat in itertools.product((0, 1), repeat=4):
        P = Matrix.of(GF2, [flat[:2], flat[2:]])
        if seq_matrix(P) == M:
            hits.append(P)
    assert hits == []
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    _ok(4, "no in-place constructor for the minimal 2x2 case")


def test_criterion_05_regular_constructor_exhaustive():
    start = time.perf_counter()
    for M in all_gf2_matrices(3):
        dM = regularize(M)
        assert is_regular(dM)
        assert is_similar(seq_matrix(dM), M)
    M = Matrix.of(GF2, [[0, 1, 1], [1, 1, 0], [1, 0, 1]])
    trace = regularize_trace(M)
    assert trace[0] == Matrix.of(GF2, [[1, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert trace[1] == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    assert trace[-1] == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])

    # same intermediates through the CLI --trace path
    from seqmat.cli import main
    from seqmat.formats import format_matrix, parse_matrix
    import io, contextlib, tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w") as fh:
            fh.write(format_matrix(M))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["regularize", "--trace", path]) == 0
        blocks = buf.getvalue().split("\n\n")
        assert [parse_matrix(b) for b in blocks] == trace
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(5, f"512 exhaustive constructor checks in {elapsed:.2f}s")


def test_criterion_06_dynamics_headline_numbers():
    start = time.perf_counter()
    report = census(4)
    census_time = time.perf_counter() - start
    assert report.max_cycle_length == 18
    assert report.matrix_count == 4096
    assert census_time < 1.0

    seed = load_orbit_seed()
    start = time.perf_counter()
    cycle = orbit(seed).cycle_length
    orbit_time = time.perf_counter() - start
    assert cycle == 13122
    assert orbit_time < 1.0
    _ok(6, f"census(4) max 18 ({census_time:.2f}s); 10x10 cycle 13122 ({orbit_time:.2f}s)")


def test_criterion_07_dynamics_structural_laws():
    for M in all_regular_gf2_matrices(4):
        assert phi(regularize(M)) == M

    # pure cycles: census raises unless every level walk returns to its
    # start and every composed fiber map is a bijection; _plain_orbit
    # asserts that no matrix but the start repeats
    census(3)
    census(4)
    rng = random.Random(2017)
    for _ in range(100):
        M = random_regular_gf2(rng, 10)
        assert orbit(M).cycle_length == _plain_orbit(M)
    _ok(7, "inverse law on all 4096 regular 4x4; every orbit a pure cycle")


def test_criterion_08_equivalent_pair():
    M = Matrix.of(RATIONAL, [[1, 2, 3, 4], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    W = Matrix.of(RATIONAL, [[1, 2, 3, 4], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    expected = Matrix.of(RATIONAL, [[1, 2, 3, 4]] * 4)
    assert seq_matrix(M) == expected
    assert seq_matrix(W) == expected
    _ok(8, "4x4 pair shares the all-[1,2,3,4] in-place matrix")


def _embedded_chain(rng):
    n = rng.randint(2, 9)
    p = rng.randint(1, n - 1)
    q = rng.randint(p + 1, n)
    rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
    for r in range(p + 1, q + 1):
        rows[r - 1] = [0] * n
        rows[r - 1][r - 2] = 1
    return Digraph(Matrix.of(GF2, rows)), p, q


def test_criterion_09_graph_rewrites():
    rng = random.Random(3023)
    for _ in range(500):
        G, p, q = _embedded_chain(rng)
        i = rng.randint(p, q - 1)
        j = rng.randint(p, i)
        assert graph_equivalent(G, chain_rewrite(G, p, q, i, j))

    for _ in range(500):
        n = rng.randint(2, 9)
        p = rng.randint(1, n - 1)
        q = rng.randint(p + 1, n)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        for r in range(p + 1, q + 1):
            rows[r - 1] = [0] * n
            for c in range(p, r):
                rows[r - 1][c - 1] = 1
        G = Digraph(Matrix.of(GF2, rows))
        out = linorder_rewrite(G, p, q)
        assert graph_equivalent(G, out)
        for r in range(p + 2, q + 1):
            assert all(out.adjacency.rows[r - 1][c - 1] == 0 for c in range(p, q + 1))
    _ok(9, "500 chain + 500 linear-order rewrites stay equivalent")


def test_criterion_10_row_exchange_method():
    rng = random.Random(4051)
    for trial in range(1000):
        field = FIELDS[trial % 3]
        n = trial % 8 + 1
        M = random_matrix(rng, field, n)
        program, coding = sequentialize_perm(M)
        assert len(program) == n
        S = program_symbolic(program)
        for k in range(n):
            assert S.rows[k] == M.rows[coding.perm[k]]
    _ok(10, "1000 row-exchange compiles match their permuted targets")
