"""Matrix core: both interpretations, the coefficient oracle, predicates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIELDS, GF7, random_matrix, random_vector
from seqmat import (
    GF2,
    RATIONAL,
    Assignment,
    Matrix,
    StraightLineProgram,
    Vector,
    format_program,
    is_regular,
    is_similar,
    pack_gf2_rows,
    parallel_apply,
    preimage_search,
    program_apply,
    program_symbolic,
    seq_apply,
    seq_equivalent,
    seq_matrix,
    seq_program,
    set_diag_ones,
    gfp,
    unpack_gf2_rows,
)
from seqmat.errors import DimensionMismatchError, FieldMismatchError, PreconditionError
from test_eliminate import _check_all_policies
from test_sequentialize import _reference_preimage

M3 = Matrix.of(RATIONAL, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])


def vec(field, *entries):
    return Vector.of(field, entries)


def step(field, target, coeffs):
    return Assignment(target, tuple(map(field.coerce, coeffs)))


# -- parallel interpretation -------------------------------------------------


def test_parallel_apply_row_dots():
    assert parallel_apply(M3, vec(RATIONAL, 1, 1, 1)) == vec(RATIONAL, 3, 12, 21)


def test_parallel_apply_identity_and_zero():
    rng = random.Random(5)
    for field in FIELDS:
        X = random_vector(rng, field, 4)
        assert parallel_apply(Matrix.identity(4, field), X) == X
        zero = Matrix.of(field, [[0] * 4 for _ in range(4)])
        assert parallel_apply(zero, X) == Vector.of(field, [0] * 4)


def test_parallel_apply_mismatch_errors():
    with pytest.raises(DimensionMismatchError):
        parallel_apply(M3, vec(RATIONAL, 1, 1))
    with pytest.raises(FieldMismatchError):
        parallel_apply(M3, vec(GF7, 1, 1, 1))


# -- in-place programs ---------------------------------------------------------


def test_seq_program_four_by_four_shift():
    M = Matrix.of(RATIONAL, [[1, 2, 3, 4], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert format_program(seq_program(M)) == (
        "x1 := x1 + 2*x2 + 3*x3 + 4*x4\n"
        "x2 := x1\n"
        "x3 := x2\n"
        "x4 := x3\n"
    )


def test_seq_program_four_by_four_fanout():
    W = Matrix.of(RATIONAL, [[1, 2, 3, 4], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert format_program(seq_program(W)) == (
        "x1 := x1 + 2*x2 + 3*x3 + 4*x4\n"
        "x2 := x1\n"
        "x3 := x1\n"
        "x4 := x1\n"
    )


def test_seq_program_identity_self_assignments():
    P = seq_program(Matrix.identity(3, GF2))
    assert [s.target for s in P.steps] == [0, 1, 2]
    for i, s in enumerate(P.steps):
        assert s.coeffs == Matrix.identity(3, GF2).rows[i]


def test_program_apply_three_by_three():
    # In-place run of M3 maps (a, b, c) to (b + 2c, 7b + 11c, 55b + 97c).
    P = seq_program(M3)
    assert program_apply(P, vec(RATIONAL, 1, 1, 1)) == vec(RATIONAL, 3, 18, 152)


def test_program_apply_empty_program():
    P = StraightLineProgram(RATIONAL, 3, ())
    X = vec(RATIONAL, 4, 5, 6)
    assert program_apply(P, X) == X


def test_program_apply_compiled_form_on_basis():
    # x1 := -x1-x2 ; x2 := -x1+x3 ; x3 := -3x1+2x3 ; x1 := x1+x2
    # realizes (a, b, c) -> (c, a+b+c, 3a+3b+2c).
    P = StraightLineProgram(
        RATIONAL,
        3,
        (
            step(RATIONAL, 0, [-1, -1, 0]),
            step(RATIONAL, 1, [-1, 0, 1]),
            step(RATIONAL, 2, [-3, 0, 2]),
            step(RATIONAL, 0, [1, 1, 0]),
        ),
    )
    expected = {
        (1, 0, 0): (0, 1, 3),
        (0, 1, 0): (0, 1, 3),
        (0, 0, 1): (1, 1, 2),
    }
    for basis, image in expected.items():
        assert program_apply(P, vec(RATIONAL, *basis)) == vec(RATIONAL, *image)


def test_seq_apply_examples():
    assert seq_apply(M3, vec(RATIONAL, 0, 1, 0)) == vec(RATIONAL, 1, 7, 55)
    X = vec(GF7, 1, 2, 3)
    assert seq_apply(Matrix.identity(3, GF7), X) == X
    ones = Matrix.of(GF2, [[1, 1], [1, 1]])
    assert seq_apply(ones, vec(GF2, 1, 0)) == vec(GF2, 1, 1)


# -- the coefficient-tracking oracle -------------------------------------------


def test_program_symbolic_three_by_three():
    assert program_symbolic(seq_program(M3)) == Matrix.of(
        RATIONAL, [[0, 1, 2], [0, 7, 11], [0, 55, 97]]
    )


def test_program_symbolic_empty_is_identity():
    P = StraightLineProgram(GF7, 4, ())
    assert program_symbolic(P) == Matrix.identity(4, GF7)


def test_program_symbolic_single_copy_step():
    P = StraightLineProgram(RATIONAL, 2, (step(RATIONAL, 0, [0, 1]),))
    assert program_symbolic(P) == Matrix.of(RATIONAL, [[0, 1], [0, 1]])


def test_seq_matrix_examples():
    assert seq_matrix(M3) == Matrix.of(RATIONAL, [[0, 1, 2], [0, 7, 11], [0, 55, 97]])
    assert seq_matrix(Matrix.identity(5, GF2)) == Matrix.identity(5, GF2)
    dM = Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    assert seq_matrix(dM) == Matrix.of(GF2, [[1, 1, 1], [1, 0, 0], [1, 0, 1]])


def test_gf2_symbolic_matches_independent_reference():
    # Plain mod-2 coefficient tracking, written out longhand, checks the
    # bit-packed fast path.
    def reference(P):
        n = P.n
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for s in P.steps:
            new = [
                sum(c * rows[t][u] for t, c in enumerate(s.coeffs)) % 2
                for u in range(n)
            ]
            rows[s.target] = new
        return Matrix.of(GF2, rows)

    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 7)
        steps = []
        for _ in range(rng.randint(0, 2 * n)):
            steps.append(
                Assignment(rng.randrange(n), tuple(rng.randrange(2) for _ in range(n)))
            )
        P = StraightLineProgram(GF2, n, tuple(steps))
        assert program_symbolic(P) == reference(P)


def _reference_symbolic_q(P):
    # The entrywise Fraction loop: C starts as the identity and each step
    # replaces row C_target by sum_t coeffs[t] * C_t, one Fraction per entry.
    n = P.n
    rows = [[Fraction(int(t == u)) for u in range(n)] for t in range(n)]
    for s in P.steps:
        acc = [Fraction(0)] * n
        for c, row in zip(s.coeffs, rows):
            if c:
                for u, v in enumerate(row):
                    if v:
                        acc[u] += c * v
        rows[s.target] = acc
    return Matrix.of(RATIONAL, rows)


def _random_rational_row(rng, n, density, bound):
    return [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) if rng.random() < density else 0
        for _ in range(n)
    ]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 24),
    density=st.sampled_from((0.0, 0.1, 0.4, 1.0)),
    bound=st.sampled_from((9, 10**30)),
    kind=st.sampled_from(("seq_program", "random")),
    seed=st.integers(0, 2**32 - 1),
)
def test_rational_symbolic_matches_fraction_reference(n, density, bound, kind, seed):
    rng = random.Random(seed)
    if kind == "seq_program":
        M = Matrix.of(RATIONAL, [_random_rational_row(rng, n, density, bound) for _ in range(n)])
        P = seq_program(M)
    else:
        # Random targets, and some steps whose coefficient row is all zero.
        steps = tuple(
            step(RATIONAL, rng.randrange(n),
                 _random_rational_row(rng, n, density if rng.random() < 0.8 else 0.0, bound))
            for _ in range(rng.randint(0, 2 * n))
        )
        P = StraightLineProgram(RATIONAL, n, steps)
    assert program_symbolic(P).rows == _reference_symbolic_q(P).rows


def _reference_symbolic_gfp(P):
    # The entrywise loop: each step replaces row C_target by
    # sum_t coeffs[t] * C_t, summed entry by entry and reduced mod p.
    p, n = P.field.modulus, P.n
    rows = [tuple(int(t == u) for u in range(n)) for t in range(n)]
    for s in P.steps:
        acc = [0] * n
        for c, row in zip(s.coeffs, rows):
            if c:
                for u, v in enumerate(row):
                    if v:
                        acc[u] += c * v
        rows[s.target] = tuple(v % p for v in acc)
    return Matrix(P.field, tuple(rows))


#: Small odd primes, where slots are narrow, and a 31-bit and a 63-bit prime.
SYMBOLIC_PRIMES = (3, 7, 2**31 - 1, 2**63 - 25)


def _random_gfp_row(rng, p, n, density):
    # 1 and p-1 are frequent: p-1 makes the largest slot sums.
    return [rng.choice((1, p - 1, rng.randrange(1, p))) if rng.random() < density else 0
            for _ in range(n)]


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(SYMBOLIC_PRIMES),
    n=st.integers(1, 40),
    density=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    kind=st.sampled_from(("seq_program", "random")),
    seed=st.integers(0, 2**32 - 1),
)
def test_gfp_symbolic_matches_entrywise_reference(p, n, density, kind, seed):
    rng = random.Random(seed)
    field = gfp(p)
    if kind == "seq_program":
        M = Matrix.of(field, [_random_gfp_row(rng, p, n, density) for _ in range(n)])
        P = seq_program(M)
    else:
        # Up to 3n steps on random targets, so targets repeat, and some
        # steps whose coefficient row is all zero.
        steps = tuple(
            step(field, rng.randrange(n),
                 _random_gfp_row(rng, p, n, density if rng.random() < 0.8 else 0.0))
            for _ in range(rng.randint(0, 3 * n))
        )
        P = StraightLineProgram(field, n, steps)
    assert program_symbolic(P).rows == _reference_symbolic_gfp(P).rows


def test_gfp_symbolic_largest_slot_sums():
    for p in SYMBOLIC_PRIMES:
        for n in (1, 2, 17, 40):
            P = _largest_slot_sums(gfp(p), n)
            assert program_symbolic(P).rows == _reference_symbolic_gfp(P).rows


def _largest_slot_sums(field, n):
    # The first n steps make every row of C all p-1; the last one then sums
    # n terms of (p-1)*(p-1) into every slot, the most a slot must hold.
    top, copy = [field.modulus - 1] * n, [1] + [0] * (n - 1)
    steps = [step(field, 0, top)]
    steps += [step(field, t, copy) for t in range(1, n)]
    steps.append(step(field, 0, top))
    return StraightLineProgram(field, n, tuple(steps))


#: For each slot edge B (in bits), a prime p and the largest n with n*p*p
#: below 2**B: n rows fit a B-bit slot, and n + 1 rows need the next array
#: item or, past 64 bits, one more 8-byte word (p = 2**63 - 25 takes three
#: words from n = 5).  (n + 1)*(p - 1)**2 is at least 2**B, so the largest
#: slot sums at n + 1 overflow a B-bit slot.  No n*p*p crosses 192 bits
#: below n = 2**66, so three words are the widest slot.
SLOT_EDGES = {8: (11, 2), 16: (73, 12), 32: (18917, 12), 64: (1239850223, 12),
              128: (2**63 - 25, 4)}


@pytest.mark.parametrize("bits", sorted(SLOT_EDGES))
def test_gfp_slot_edges_match_entrywise_references(bits):
    # preimage_search packs n augmented rows of width 2n, so its slot
    # follows the row count n too; the rank-1 all-(p-1) matrix keeps every
    # row but the first in its live basis.  Mutation checks: with every
    # slot one array item narrower (one word fewer past 64 bits), where a
    # narrower one exists, this test fails at every edge.  With GF(p) rows
    # not stored back reduced on read, it fails at every edge but 8 bits,
    # where the products of unreduced rows still fit their 2-byte slots.
    # Only little-endian machines have run it; the big-endian byte swaps
    # in the GF(p) backend are unverified.  The unit rows over a last row
    # of p - 1 make every slot of each substitution base p (pivot 1, zero
    # entries) and every multiplier p - 1, so the last row grows by
    # (p - 1) * p per slot and update, the largest update term.
    p, fit = SLOT_EDGES[bits]
    field = gfp(p)
    rng = random.Random(bits)
    for n in (fit, fit + 1):
        assert (n * p * p).bit_length() == bits + n - fit
        assert (n * (p - 1) ** 2).bit_length() > bits or n == fit
        units = tuple(_random_gfp_row(rng, p, n, 1.0))
        for M in (Matrix.of(field, [[p - 1] * n] * n),
                  Matrix.of(field, Matrix.identity(n, field).rows[:-1] + ((p - 1,) * n,)),
                  Matrix.of(field, [_random_gfp_row(rng, p, n, 1.0) for _ in range(n)]),
                  Matrix.of(field, [_random_gfp_row(rng, p, n, 0.5) for _ in range(n)])):
            _check_all_policies(M, units)
            assert preimage_search(M) == _reference_preimage(M)
            P = seq_program(M)
            assert program_symbolic(P).rows == _reference_symbolic_gfp(P).rows
        P = _largest_slot_sums(field, n)
        assert program_symbolic(P).rows == _reference_symbolic_gfp(P).rows
        P = Matrix.of(field, [[rng.randrange(1, p) if i == j else rng.randrange(p)
                               for j in range(n)] for i in range(n)])
        assert preimage_search(seq_matrix(P)) == P


def test_oracle_identity_random():
    # parallel_apply(seq_matrix(M), X) == seq_apply(M, X)
    rng = random.Random(97)
    for field in FIELDS:
        for _ in range(1000):
            n = rng.randint(1, 8)
            M = random_matrix(rng, field, n)
            X = random_vector(rng, field, n)
            assert parallel_apply(seq_matrix(M), X) == seq_apply(M, X)


def test_seq_matrix_gf2_closure():
    rng = random.Random(3)
    for _ in range(50):
        M = random_matrix(rng, GF2, rng.randint(1, 6))
        S = seq_matrix(M)
        assert all(v in (0, 1) for row in S.rows for v in row)


# -- predicates ------------------------------------------------------------------


def test_is_regular():
    assert is_regular(Matrix.identity(4, GF7))
    assert not is_regular(Matrix.of(RATIONAL, [[0, 0], [1, 0]]))
    assert is_regular(Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]]))


def test_is_similar():
    A = Matrix.of(GF2, [[1, 1, 1], [1, 0, 0], [1, 0, 1]])
    B = Matrix.of(GF2, [[0, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert is_similar(A, A)
    assert is_similar(A, B)
    assert not is_similar(
        Matrix.of(GF2, [[0, 0], [1, 0]]), Matrix.of(GF2, [[0, 1], [1, 0]])
    )


def test_is_similar_is_equivalence_relation():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 5)
        A = random_matrix(rng, GF7, n)
        B = random_matrix(rng, GF7, n)
        C = random_matrix(rng, GF7, n)
        assert is_similar(A, A)
        assert is_similar(A, B) == is_similar(B, A)
        if is_similar(A, B) and is_similar(B, C):
            assert is_similar(A, C)


def test_set_diag_ones():
    assert set_diag_ones(Matrix.identity(3, GF7)) == Matrix.identity(3, GF7)
    assert set_diag_ones(Matrix.of(GF2, [[0, 1], [0, 0]])) == Matrix.of(
        GF2, [[1, 1], [0, 1]]
    )
    assert set_diag_ones(
        Matrix.of(GF2, [[1, 1, 1], [1, 0, 0], [1, 0, 1]])
    ) == Matrix.of(GF2, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])


def test_seq_equivalent_four_by_four_pair():
    M = Matrix.of(RATIONAL, [[1, 2, 3, 4], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    W = Matrix.of(RATIONAL, [[1, 2, 3, 4], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert seq_equivalent(M, W)
    every_row = Matrix.of(RATIONAL, [[1, 2, 3, 4]] * 4)
    assert seq_matrix(M) == every_row
    assert seq_matrix(W) == every_row


def test_seq_equivalent_self_and_negative():
    assert seq_equivalent(M3, M3)
    assert not seq_equivalent(
        Matrix.of(GF2, [[0, 0], [1, 0]]), Matrix.of(GF2, [[0, 1], [1, 0]])
    )


def test_seq_equivalent_iff_basis_images_agree():
    rng = random.Random(59)
    for trial in range(200):
        n = rng.randint(1, 5)
        field = FIELDS[trial % 3]
        M = random_matrix(rng, field, n)
        if trial % 4 == 0:
            W = M
        else:
            W = random_matrix(rng, field, n)
        basis_agree = all(
            seq_apply(M, Matrix.identity(n, field).row(j))
            == seq_apply(W, Matrix.identity(n, field).row(j))
            for j in range(n)
        )
        assert seq_equivalent(M, W) == basis_agree


# -- construction and packing ------------------------------------------------------


def test_matrix_of_validation():
    with pytest.raises(DimensionMismatchError):
        Matrix.of(GF2, [[1, 0], [1]])
    with pytest.raises(DimensionMismatchError):
        Matrix.of(GF2, [])
    with pytest.raises(DimensionMismatchError):
        Vector.of(GF2, [])
    assert Matrix.of(GF7, [[9, -1], [0, 3]]).rows == ((2, 6), (0, 3))


def test_pack_unpack_round_trip():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(1, 12)
        M = random_matrix(rng, GF2, n)
        assert unpack_gf2_rows(pack_gf2_rows(M), n) == M
    with pytest.raises(PreconditionError):
        pack_gf2_rows(Matrix.identity(2, GF7))


def test_vector_accessors():
    X = vec(GF7, 5, 9)
    assert len(X) == 2
    assert X[1] == 2
    assert X.entries == (5, 2)
    assert M3.entry(2, 1) == 7
    assert M3.row(0) == vec(RATIONAL, 0, 1, 2)
