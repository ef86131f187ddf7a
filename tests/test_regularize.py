"""Regular constructors: the GF(2) procedure and its general-diagonal form."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GF7, all_gf2_matrices, all_regular_gf2_matrices, random_matrix
from seqmat import (
    GF2,
    RATIONAL,
    Matrix,
    Vector,
    gfp,
    is_regular,
    is_similar,
    pack_gf2_rows,
    regularize,
    regularize_general,
    regularize_packed,
    regularize_plan,
    regularize_trace,
    seq_matrix,
    unpack_gf2_rows,
)
from seqmat.errors import PreconditionError

GF5 = gfp(5)


def _reference_trace(M: Matrix) -> list[Matrix]:
    """The GF(2) procedure entrywise: the working matrix after each step."""
    n = M.n
    rows = [list(r) for r in M.rows]
    snaps = []
    for i in range(n):
        rows[i][i] = 0
        ri = rows[i]
        for k in range(i + 1, n):
            rk = rows[k]
            if rk[i]:
                for t in range(n):
                    rk[t] ^= ri[t]
        rows[i][i] = 1
        snaps.append(Matrix(M.field, tuple(tuple(r) for r in rows)))
    return snaps


def _reference_packed(rows: tuple[int, ...], steps: int) -> tuple[int, ...]:
    """Steps 1..steps of the GF(2) procedure on rows packed one int each
    (bit t of row k = entry (k, t)), one row update at a time; the
    updates reach every row, extra rows below the matrix included."""
    out = list(rows)
    for i in range(steps):
        bit = 1 << i
        ri = out[i] & ~bit
        for k in range(i + 1, len(out)):
            if out[k] & bit:
                out[k] ^= ri
        out[i] = ri | bit
    return tuple(out)


def _word(rows, n):
    return sum(r << k * n for k, r in enumerate(rows))


def _split(word, n, count):
    return tuple((word >> k * n) & ((1 << n) - 1) for k in range(count))


def test_worked_example_with_intermediates():
    M = Matrix.of(GF2, [[0, 1, 1], [1, 1, 0], [1, 0, 1]])
    dM = regularize(M)
    assert dM == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    trace = regularize_trace(M)
    assert trace[0] == Matrix.of(GF2, [[1, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert trace[1] == Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    assert trace[-1] == dM
    assert seq_matrix(dM) == Matrix.of(GF2, [[1, 1, 1], [1, 0, 0], [1, 0, 1]])
    assert is_similar(seq_matrix(dM), M)


def test_identity_is_fixed_point():
    I = Matrix.identity(6, GF2)
    assert regularize(I) == I


def test_exhaustive_3x3_postconditions():
    # Every one of the 512 matrices yields a regular constructor whose
    # in-place matrix agrees off the diagonal.
    ones = Vector.of(GF2, [1, 1, 1])
    for M in all_gf2_matrices(3):
        dM = regularize(M)
        assert is_regular(dM)
        assert is_similar(seq_matrix(dM), M)
        assert regularize_general(M, ones) == dM
        assert regularize_trace(M)[-1] == dM


def test_random_larger_sizes():
    rng = random.Random(55)
    for _ in range(1000):
        n = rng.randint(4, 10)
        M = random_matrix(rng, GF2, n)
        dM = regularize(M)
        assert is_regular(dM)
        assert is_similar(seq_matrix(dM), M)


@pytest.mark.parametrize("n", [3, 4])
def test_injective_on_regular_matrices(n):
    images = {regularize(M).rows for M in all_regular_gf2_matrices(n)}
    assert len(images) == 1 << (n * n - n)


def test_packed_variant_matches_entrywise_trace():
    rng = random.Random(66)
    for _ in range(100):
        n = rng.randint(1, 9)
        M = random_matrix(rng, GF2, n)
        word = regularize_packed(pack_gf2_rows(M), regularize_plan(n))
        assert unpack_gf2_rows(word, n) == _reference_trace(M)[-1]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 16),
    kind=st.sampled_from(("random", "zeros", "ones")),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_prefixes_match_entrywise_reference(n, kind, seed):
    # The plan of the first k steps gives the working matrix after step k,
    # the input itself for k = 0; regularize_trace lists prefixes 1..n.
    rng = random.Random(seed)
    bit = {"random": lambda: rng.randrange(2), "zeros": lambda: 0, "ones": lambda: 1}[kind]
    M = Matrix.of(GF2, [[bit() for _ in range(n)] for _ in range(n)])
    expected = [M] + _reference_trace(M)
    assert regularize_trace(M) == expected[1:]
    word = pack_gf2_rows(M)
    for k in range(n + 1):
        assert unpack_gf2_rows(regularize_packed(word, regularize_plan(n, n, k)), n) == expected[k]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 16),
    extra=st.integers(0, 16),
    kind=st.sampled_from(("random", "zeros", "ones")),
    seed=st.integers(0, 2**32 - 1),
)
def test_word_kernel_matches_tuple_reference(n, extra, kind, seed):
    # n..2n rows of width n (census lets the unit rows ride along below
    # the matrix), every step count 0..n.
    count = n + extra % (n + 1)
    rng = random.Random(seed)
    full = (1 << n) - 1
    row = {"random": lambda: rng.getrandbits(n), "zeros": lambda: 0, "ones": lambda: full}[kind]
    rows = tuple(row() for _ in range(count))
    for steps in range(n + 1):
        word = regularize_packed(_word(rows, n), regularize_plan(n, count, steps))
        assert _split(word, n, count) == _reference_packed(rows, steps)
        assert word >> count * n == 0
        if count == n:
            expected = unpack_gf2_rows(_word(_reference_packed(rows, steps), n), n)
            assert unpack_gf2_rows(word, n) == expected
            assert pack_gf2_rows(expected) == _word(_reference_packed(rows, steps), n)


def test_requires_gf2():
    with pytest.raises(PreconditionError):
        regularize(Matrix.identity(2, GF7))
    with pytest.raises(PreconditionError):
        regularize_trace(Matrix.identity(2, RATIONAL))


# -- general diagonal ------------------------------------------------------------


def test_general_identity_diag_contract():
    D = regularize_general(Matrix.identity(3, GF5), Vector.of(GF5, [2, 3, 4]))
    assert D == Matrix.of(GF5, [[2, 0, 0], [0, 3, 0], [0, 0, 4]])


def test_general_random_gf7():
    rng = random.Random(77)
    for _ in range(200):
        n = 4
        M = random_matrix(rng, GF7, n)
        units = Vector.of(GF7, [rng.randrange(1, 7) for _ in range(n)])
        D = regularize_general(M, units)
        for i in range(n):
            assert D.rows[i][i] == units[i]
        assert is_similar(seq_matrix(D), M)


def test_general_random_rationals():
    from fractions import Fraction

    rng = random.Random(78)
    for _ in range(50):
        n = rng.randint(1, 5)
        M = random_matrix(rng, RATIONAL, n)
        units = Vector.of(
            RATIONAL,
            [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)],
        )
        D = regularize_general(M, units)
        for i in range(n):
            assert D.rows[i][i] == units[i]
        assert is_similar(seq_matrix(D), M)


def test_general_validation():
    M = Matrix.identity(2, GF5)
    with pytest.raises(PreconditionError):
        regularize_general(M, Vector.of(GF5, [1, 0]))
    with pytest.raises(PreconditionError):
        regularize_general(M, Vector.of(GF5, [1, 1, 1]))
    with pytest.raises(PreconditionError):
        regularize_general(M, Vector.of(GF7, [1, 1]))
