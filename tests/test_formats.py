"""Text formats: bit-exact round trips and fixed renderings."""

import random
from fractions import Fraction

import pytest

from conftest import FIELDS, GF7, random_matrix, random_vector
from seqmat import (
    GF2,
    RATIONAL,
    Assignment,
    InSituCoding,
    Matrix,
    PermCoding,
    StraightLineProgram,
    Vector,
    format_coding,
    format_matrix,
    format_program,
    format_vector,
    parse_coding,
    parse_matrix,
    parse_vector,
)
from seqmat.errors import ParseError, PreconditionError


def test_matrix_round_trip_random():
    rng = random.Random(19)
    for field in FIELDS:
        for _ in range(50):
            M = random_matrix(rng, field, rng.randint(1, 6))
            assert parse_matrix(format_matrix(M)) == M


def test_matrix_golden_text():
    M = Matrix.of(RATIONAL, [[Fraction(-1, 2), 3], [55, Fraction(-97, 4)]])
    assert format_matrix(M) == "rational\nn 2\n-1/2 3\n55 -97/4\n"


def test_matrix_of_accepts_only_values_not_strings():
    with pytest.raises(PreconditionError):
        Matrix.of(GF2, [["1", "0"], ["0", "1"]])


def test_parse_matrix_tolerates_blank_lines():
    M = parse_matrix("\ngf2\n\nn 2\n1 0\n\n0 1\n\n")
    assert M == Matrix.identity(2, GF2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "gf2\n",
        "gf9\nn 2\n1 0\n0 1\n",
        "gfp 6\nn 2\n1 0\n0 1\n",
        "gf2\nm 2\n1 0\n0 1\n",
        "gf2\nn 0\n",
        "gf2\nn 2\n1 0\n",
        "gf2\nn 2\n1 0\n0 1\n1 1\n",
        "gf2\nn 2\n1 0 1\n0 1\n",
        "gf2\nn 2\n1 x\n0 1\n",
        "rational\nn 1\n1.5\n",
        # str.isdigit accepts "²", which int() refuses; int() also refuses
        # more than 4300 digits, "+1" and "1_0" are not plain decimals.
        "gf2\nn ²\n1\n",
        pytest.param(f"gf2\nn {'7' * 5000}\n1\n", id="5000-digit-dimension"),
        "gf2\nn +1\n1\n",
        "gf2\nn 1_0\n1\n",
    ],
)
def test_parse_matrix_rejects(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_vector_round_trip_and_golden():
    rng = random.Random(29)
    for field in FIELDS:
        X = random_vector(rng, field, 5)
        assert parse_vector(format_vector(X)) == X
    assert format_vector(Vector.of(GF7, [9, 0, 3])) == "gfp 7\nn 3\n2 0 3\n"


def test_parse_vector_needs_single_entry_line():
    with pytest.raises(ParseError):
        parse_vector("gf2\nn 2\n1 0\n0 1\n")


# -- program listings -----------------------------------------------------------


def _program(field, n, *raw_steps):
    steps = tuple(Assignment(t, Vector.of(field, cs)) for t, cs in raw_steps)
    return StraightLineProgram(field, n, steps)


def test_program_listing_with_signs_and_coefficients():
    P = _program(
        RATIONAL,
        3,
        (0, [-1, -1, 0]),
        (1, [-1, 0, 1]),
        (2, [-3, 0, 2]),
        (0, [1, 1, 0]),
    )
    assert format_program(P) == (
        "x1 := -x1 - x2\n"
        "x2 := -x1 + x3\n"
        "x3 := -3*x1 + 2*x3\n"
        "x1 := x1 + x2\n"
    )


def test_program_listing_zero_row_and_fractions():
    P = _program(
        RATIONAL,
        3,
        (1, [0, 0, 0]),
        (0, [Fraction(1, 2), 0, Fraction(-1, 3)]),
    )
    assert format_program(P) == "x2 := 0\nx1 := 1/2*x1 - 1/3*x3\n"


def test_program_listing_residues_never_signed():
    P = _program(GF7, 2, (0, [6, 1]))
    assert format_program(P) == "x1 := 6*x1 + x2\n"
    Q = _program(GF2, 2, (0, [1, 1]))
    assert format_program(Q) == "x1 := x1 + x2\n"


# -- codings ----------------------------------------------------------------------


def test_coding_golden_and_round_trip():
    coding = InSituCoding.from_one_based(
        Matrix.of(RATIONAL, [[-1, -1, 0], [-1, 0, 1], [-3, 0, 2]]), [2, 0, 0]
    )
    text = format_coding(coding)
    assert text == (
        "rational\nn 3\n-1 -1 0\n-1 0 1\n-3 0 2\nfixups: 2 0 0\n"
    )
    assert parse_coding(text) == coding


def test_perm_coding_round_trip():
    coding = PermCoding.from_one_based(
        Matrix.of(GF2, [[1, 1], [0, 1]]), [2, 1]
    )
    text = format_coding(coding)
    assert text.endswith("perm: 2 1\n")
    assert parse_coding(text) == coding


@pytest.mark.parametrize(
    "text",
    [
        "gf2\nn 2\n1 0\n0 1\n",
        "gf2\nn 2\n1 0\n0 1\nfixups: 2\n",
        "gf2\nn 2\n1 0\n0 1\nswaps: 0 0\n",
        "gf2\nn 2\n1 0\n0 1\nfixups: x 0\n",
        "fixups: 0\n",
        "gf2\nn 2\n1 0\n0 1\nfixups: ² 0\n",
        "gf2\nn 2\n1 0\n0 1\nfixups: --1 0\n",
        "gf2\nn 2\n1 0\n0 1\nperm: - 1\n",
        pytest.param(f"gf2\nn 2\n1 0\n0 1\nperm: {'7' * 5000} 1\n", id="5000-digit-perm"),
    ],
)
def test_parse_coding_rejects(text):
    with pytest.raises(ParseError):
        parse_coding(text)


def test_coding_validation():
    I2 = Matrix.identity(2, GF2)
    with pytest.raises(PreconditionError):
        InSituCoding.from_one_based(I2, [0, 2])  # last row may not point anywhere
    with pytest.raises(PreconditionError):
        InSituCoding.from_one_based(I2, [1, 0])  # partner must lie strictly below
    with pytest.raises(PreconditionError):
        InSituCoding.from_one_based(I2, [3, 0])  # out of range
    with pytest.raises(PreconditionError):
        PermCoding.from_one_based(I2, [1, 1])
