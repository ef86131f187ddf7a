"""The in-place compilers and the preimage solve: exact runs, contracts, and
exhaustive checks against full enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIELDS, GF7, random_matrix
from seqmat import (
    GF2,
    RATIONAL,
    InSituCoding,
    Matrix,
    decode_coding,
    format_program,
    gfp,
    preimage_search,
    program_symbolic,
    seq_matrix,
    seq_program,
    sequentialize,
    sequentialize_perm,
)
from seqmat.errors import PreconditionError

GF3 = gfp(3)


# -- exact worked runs ---------------------------------------------------------


def test_compile_3x3_with_one_fixup():
    M = Matrix.of(RATIONAL, [[0, 0, 1], [1, 1, 1], [3, 3, 2]])
    program, coding = sequentialize(M)
    assert format_program(program) == (
        "x1 := -x1 - x2\n"
        "x2 := -x1 + x3\n"
        "x3 := -3*x1 + 2*x3\n"
        "x1 := x1 + x2\n"
    )
    assert coding.matrix == Matrix.of(RATIONAL, [[-1, -1, 0], [-1, 0, 1], [-3, 0, 2]])
    assert coding.fixups == (1, None, None)
    assert program_symbolic(program) == M


def test_compile_2x2_with_one_fixup():
    M = Matrix.of(RATIONAL, [[0, 0], [1, 0]])
    program, coding = sequentialize(M)
    assert format_program(program) == "x1 := -x1\nx2 := -x1\nx1 := x1 + x2\n"
    assert coding.matrix == Matrix.of(RATIONAL, [[-1, 0], [-1, 0]])
    assert coding.fixups == (1, None)
    assert program_symbolic(program) == M


def test_compile_identity_is_self_assignments():
    for field in FIELDS:
        I = Matrix.identity(4, field)
        program, coding = sequentialize(I)
        assert program == seq_program(I)
        assert coding.fixups == (None,) * 4
        assert coding.matrix == I


def test_compile_one_by_one():
    for entries in ([[0]], [[5]]):
        M = Matrix.of(GF7, entries)
        program, coding = sequentialize(M)
        assert len(program) == 1
        assert program.steps[0].coeffs == M.rows[0]
        assert coding.fixups == (None,)
        assert program_symbolic(program) == M


# -- contracts over random matrices ----------------------------------------------


def test_compile_contracts_random():
    rng = random.Random(211)
    for field in FIELDS:
        for trial in range(200):
            n = trial % 8 + 1
            M = random_matrix(rng, field, n)
            program, coding = sequentialize(M)
            assert program_symbolic(program) == M
            assert len(program) <= 2 * n - 1
            assert program.steps[:n] == seq_program(coding.matrix).steps
            assert decode_coding(coding) == program
            fixup_count = sum(1 for j in coding.fixups if j is not None)
            assert len(program) == n + fixup_count
            assert (len(program) == n) == (fixup_count == 0)


def test_compile_steps_have_single_targets_only():
    rng = random.Random(6)
    M = random_matrix(rng, GF2, 6)
    program, _ = sequentialize(M)
    for step in program.steps:
        assert 0 <= step.target < 6
        assert len(step.coeffs) == 6


def test_fixup_steps_add_exactly_one_partner():
    rng = random.Random(8)
    seen_fixup = False
    for _ in range(200):
        M = random_matrix(rng, GF2, 5)
        program, coding = sequentialize(M)
        for i in range(4, -1, -1):
            j = coding.fixups[i]
            if j is None:
                continue
            seen_fixup = True
            matching = [
                s
                for s in program.steps[5:]
                if s.target == i
            ]
            assert len(matching) == 1
            coeffs = matching[0].coeffs
            assert coeffs[i] == 1 and coeffs[j] == 1
            assert sum(1 for v in coeffs if v) == 2
    assert seen_fixup


# -- decoding ---------------------------------------------------------------------


def test_decode_known_codings():
    c = InSituCoding(
        Matrix.of(RATIONAL, [[-1, -1, 0], [-1, 0, 1], [-3, 0, 2]]), (1, None, None)
    )
    assert format_program(decode_coding(c)) == (
        "x1 := -x1 - x2\n"
        "x2 := -x1 + x3\n"
        "x3 := -3*x1 + 2*x3\n"
        "x1 := x1 + x2\n"
    )
    c2 = InSituCoding(Matrix.identity(3, GF2), (None, None, None))
    assert decode_coding(c2) == seq_program(Matrix.identity(3, GF2))
    c3 = InSituCoding(Matrix.of(RATIONAL, [[-1, 0], [-1, 0]]), (1, None))
    assert len(decode_coding(c3)) == 3


# -- preimage search -----------------------------------------------------------------


def test_preimage_minimal_impossible_case():
    M = Matrix.of(GF2, [[0, 0], [1, 0]])
    assert preimage_search(M) is None


def test_preimage_identity_and_known_hit():
    I = Matrix.identity(3, GF2)
    assert preimage_search(I) == I
    M = Matrix.of(GF2, [[1, 1], [1, 0]])
    P = preimage_search(M)
    assert P == Matrix.of(GF2, [[1, 1], [1, 1]])
    assert seq_matrix(P) == M


def _enumerate_first_hit(M):
    """Independent full scan in row-major lexicographic order."""
    field = M.field
    n = M.n
    for flat in itertools.product(range(field.modulus), repeat=n * n):
        P = Matrix.of(field, [flat[i * n : (i + 1) * n] for i in range(n)])
        if seq_matrix(P) == M:
            return P
    return None


@pytest.mark.parametrize("field,n", [(GF2, 2), (GF2, 3), (GF3, 2), (gfp(5), 2)])
def test_preimage_agrees_with_full_enumeration(field, n):
    rng = random.Random(303)
    for _ in range(12):
        M = random_matrix(rng, field, n)
        assert preimage_search(M) == _enumerate_first_hit(M)


def test_preimage_result_always_validates():
    rng = random.Random(304)
    for _ in range(30):
        M = random_matrix(rng, GF2, 3)
        P = preimage_search(M)
        if P is not None:
            assert seq_matrix(P) == M


def test_preimage_guards():
    with pytest.raises(PreconditionError):
        preimage_search(Matrix.identity(2, RATIONAL))


def all_matrices(field, n):
    """Every n x n matrix over a finite field, row-major lexicographic."""
    for flat in itertools.product(range(field.modulus), repeat=n * n):
        yield Matrix.of(field, [flat[i * n : (i + 1) * n] for i in range(n)])


def _rank(rows, p):
    """Rank over GF(p) of a list of rows of ints, by Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inv
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize(
    "field,n,constructible",
    [(GF2, 1, 2), (GF2, 2, 12), (GF2, 3, 248), (GF3, 1, 3), (GF3, 2, 63), (gfp(5), 2, 525),
     pytest.param(GF2, 4, 18800, marks=pytest.mark.slow)],
)
def test_preimage_matches_full_image_map(field, n, constructible):
    # the image map keeps, for each seq_matrix(P), the first P in
    # row-major lexicographic order, and counts the P of each class
    first, size = {}, {}
    for P in all_matrices(field, n):
        T = seq_matrix(P)
        first.setdefault(T, P)
        size[T] = size.get(T, 0) + 1
    assert len(first) == constructible
    for M in all_matrices(field, n):
        assert preimage_search(M) == first.get(M)
    # the class-size law: row i of a constructor of T is any solution y of
    # y * T[:i, :i] = T[i, :i], followed by a z that y fixes
    p = field.modulus
    for T, count in size.items():
        free = sum(i - _rank([row[:i] for row in T.rows[:i]], p) for i in range(n))
        assert count == p**free


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from([GF2, GF3, GF7, gfp(2**31 - 1), RATIONAL]),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_constructor_is_an_lu_factorisation(field, n, seed):
    # With Ls the strictly lower part of P and U its upper part, diagonal
    # included: (I - Ls) * seq_matrix(P) == U.
    P = random_matrix(random.Random(seed), field, n)
    S = seq_matrix(P).rows
    p = field.modulus
    for i, row in enumerate(P.rows):
        for c in range(n):
            lhs = S[i][c] - sum(row[k] * S[k][c] for k in range(i))
            assert (lhs if p is None else lhs % p) == (row[c] if c >= i else 0)


@pytest.mark.parametrize("n", [32, 128])
def test_preimage_recovers_source_with_nonzero_diagonal(n):
    # The leading i x i block of seq_matrix(P) has determinant
    # P[0][0] * ... * P[i-1][i-1], so with a nonzero diagonal every row's
    # system has one solution and the first preimage is P itself.
    field = gfp(2**31 - 1)
    p = field.modulus
    rng = random.Random(1532)
    P = Matrix.of(
        field,
        [[rng.randrange(1, p) if i == j else rng.randrange(p) for j in range(n)] for i in range(n)],
    )
    assert preimage_search(seq_matrix(P)) == P


def test_preimage_is_at_most_any_source():
    # P itself is a preimage of seq_matrix(P), so the first one is a
    # preimage no later than P in row-major lexicographic order.
    rng = random.Random(1533)
    for trial in range(60):
        field = (GF2, GF3, GF7)[trial % 3]
        n = trial % 10 + 1
        P = random_matrix(rng, field, n)
        for i in rng.sample(range(n), rng.randrange(n + 1)):
            P = Matrix(field, P.rows[:i] + ((0,) * n,) + P.rows[i + 1 :])
        M = seq_matrix(P)
        Q = preimage_search(M)
        assert seq_matrix(Q) == M
        assert Q.rows <= P.rows


def _reference_preimage(M):
    """Reference for preimage_search, row by row: row i of the first P is
    the lexicographically first y with y * M[:i, :i] = M[i, :i], followed
    by z = M[i, i:] - y * M[:i, i:].  Each row's system is eliminated
    afresh, O(n^4) in all."""
    p = M.field.modulus
    found = []
    for i, target in enumerate(M.rows):
        above = M.rows[:i]
        # one equation per column c < i: sum_k y_k * M[k][c] = M[i][c]
        y = _first_solution([[row[c] for row in above] + [target[c]] for c in range(i)], p)
        if y is None:
            return None
        z = [(target[c] - sum(a * row[c] for a, row in zip(y, above))) % p for c in range(i, M.n)]
        found.append(tuple(y + z))
    return Matrix(M.field, tuple(found))


def _first_solution(equations, p):
    """Lexicographically first y with sum_k y_k * eq[k] = eq[-1] (mod p)
    for every equation, or None when there is none.

    Forward elimination takes the unknowns from the last down to y_0, so
    each pivot unknown is left depending only on earlier unknowns; with
    every free unknown 0, back substitution upwards gives the first y.
    """
    y = [0] * len(equations)
    pivots = {}
    for k in reversed(range(len(y))):
        r = next((t for t, eq in enumerate(equations) if eq[k]), None)
        if r is None:
            continue  # y_k is free
        inv = pow(equations[r][k], -1, p)
        pivots[k] = pivot = [a * inv % p for a in equations.pop(r)]
        for eq in equations:
            f = eq[k]
            if f:
                eq[:] = [(a - f * b) % p for a, b in zip(eq, pivot)]
    if any(eq[-1] for eq in equations):  # all their coefficients are 0
        return None
    for k in sorted(pivots):  # y[k:] is still 0 here
        pivot = pivots[k]
        y[k] = (pivot[-1] - sum(a * b for a, b in zip(pivot, y))) % p
    return y


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from([GF2, GF3, GF7, gfp(2**31 - 1), gfp(2**63 - 25)]),
    n=st.integers(1, 16),
    kind=st.sampled_from(["constructed", "low rank", "plain"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_preimage_matches_row_by_row_reference(field, n, kind, seed):
    # "constructed": seq_matrix(P) for P with some zero rows and zero
    # diagonal entries, whose leading blocks are singular, so classes have
    # many members and the first-y rule decides; "low rank": a sum of r
    # rank-1 products, whose leading blocks have large null spaces with
    # columns read by several of their vectors; "plain": mostly None.
    rng = random.Random(seed)
    p = field.modulus
    if kind == "constructed":
        rows = [list(row) for row in random_matrix(rng, field, n).rows]
        for i in rng.sample(range(n), rng.randrange(n + 1)):
            rows[i] = [0] * n
        for i in rng.sample(range(n), rng.randrange(n + 1)):
            rows[i][i] = 0
        M = seq_matrix(Matrix.of(field, rows))
    elif kind == "low rank":
        rows = [[0] * n for _ in range(n)]
        for _ in range(rng.randrange(n)):
            u = [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n)]
            v = [rng.randrange(p) for _ in range(n)]
            rows = [[(x + a * b) % p for x, b in zip(row, v)] for row, a in zip(rows, u)]
        M = Matrix.of(field, rows)
    else:
        M = random_matrix(rng, field, n)
    assert preimage_search(M) == _reference_preimage(M)


# -- exhaustive ground truth for both compilers -----------------------------------------


@pytest.mark.parametrize("field,n", [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 1), (GF3, 2)])
def test_compilers_on_every_matrix(field, n):
    for M in all_matrices(field, n):
        program, _ = sequentialize(M)
        assert program_symbolic(program) == M
        assert len(program) <= 2 * n - 1
        program, coding = sequentialize_perm(M)
        assert len(program) == n
        S = program_symbolic(program)
        assert list(S.rows) == [M.rows[s] for s in coding.perm]


# -- row-exchange method ----------------------------------------------------------------


def test_perm_identity_input():
    I = Matrix.identity(3, RATIONAL)
    program, coding = sequentialize_perm(I)
    assert program == seq_program(I)
    assert coding.perm == (0, 1, 2)


def test_perm_known_swap():
    M = Matrix.of(RATIONAL, [[0, 0, 1], [1, 1, 1], [3, 3, 2]])
    program, coding = sequentialize_perm(M)
    assert coding.perm != (0, 1, 2)
    S = program_symbolic(program)
    for i in range(3):
        assert S.rows[i] == M.rows[coding.perm[i]]
    assert len(program) == 3


def test_perm_contracts_random():
    rng = random.Random(404)
    for trial in range(600):
        field = FIELDS[trial % 3]
        n = trial % 8 + 1
        M = random_matrix(rng, field, n)
        program, coding = sequentialize_perm(M)
        assert len(program) == n
        assert program.steps == seq_program(coding.matrix).steps
        S = program_symbolic(program)
        for i in range(n):
            assert S.rows[i] == M.rows[coding.perm[i]]


def test_perm_identity_permutation_means_plain_compile():
    # Whenever no swap fires, both methods walk identical working
    # matrices, so the n-step program equals the full fix-up-free result.
    rng = random.Random(405)
    checked = 0
    for trial in range(300):
        field = FIELDS[trial % 3]
        n = trial % 6 + 1
        # lower-triangular with invertible diagonal: substitution never
        # disturbs later pivots, so no swap can fire
        rows = [[random_value_nonzero(rng, field) if j < i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = random_value_nonzero(rng, field)
        M = Matrix.of(field, rows)
        program, coding = sequentialize_perm(M)
        assert coding.perm == tuple(range(n))
        full_program, full_coding = sequentialize(M)
        assert program == full_program
        assert all(j is None for j in full_coding.fixups)
        checked += 1
    assert checked == 300


def random_value_nonzero(rng, field):
    if field.modulus is not None:
        return rng.randrange(1, field.modulus)
    from fractions import Fraction

    return Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
