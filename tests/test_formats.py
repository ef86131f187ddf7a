"""Text formats: bit-exact round trips and fixed renderings."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gfp,
    parse_coding,
    parse_matrix,
    parse_vector,
)
from seqmat.errors import GuardError, ParseError, PreconditionError


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
    steps = tuple(Assignment(t, tuple(map(field.coerce, cs))) for t, cs in raw_steps)
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
    coding = InSituCoding(
        Matrix.of(RATIONAL, [[-1, -1, 0], [-1, 0, 1], [-3, 0, 2]]), (1, None, None)
    )
    text = format_coding(coding)
    assert text == (
        "rational\nn 3\n-1 -1 0\n-1 0 1\n-3 0 2\nfixups: 2 0 0\n"
    )
    assert parse_coding(text) == coding


def test_perm_coding_round_trip():
    coding = PermCoding(Matrix.of(GF2, [[1, 1], [0, 1]]), (1, 0))
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
        InSituCoding(I2, (None, 1))  # last row may not point anywhere
    with pytest.raises(PreconditionError):
        InSituCoding(I2, (0, None))  # partner must lie strictly below
    with pytest.raises(PreconditionError):
        InSituCoding(I2, (2, None))  # out of range
    with pytest.raises(PreconditionError):
        PermCoding(I2, (0, 0))
    # The same codings as 1-based text lines.
    for line in ("fixups: 0 2", "fixups: 1 0", "fixups: 3 0", "perm: 1 1"):
        with pytest.raises(PreconditionError):
            parse_coding(f"gf2\nn 2\n1 0\n0 1\n{line}\n")


# -- whole-row codecs against the entrywise references ---------------------------

#: GF(2), small odd primes, a 31-bit and a 63-bit prime, and Q.
CODEC_FIELDS = (GF2, gfp(3), GF7, gfp(2**31 - 1), gfp(2**63 - 25), RATIONAL)


def _reference_format_linear(field, coeffs):
    # One format_scalar call and one string per term, the sign of each
    # term printed apart from its magnitude.
    terms = []
    for j, c in enumerate(coeffs, start=1):
        if not c:
            continue
        negative = c < 0  # canonical residues are never negative
        a = -c if negative else c
        body = f"x{j}" if a == field.one else f"{field.format_scalar(a)}*x{j}"
        terms.append((negative, body))
    if not terms:
        return "0"
    first_neg, first = terms[0]
    pieces = [("-" if first_neg else "") + first]
    for negative, body in terms[1:]:
        pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def _reference_format_program(P):
    lines = [f"x{s.target + 1} := {_reference_format_linear(P.field, s.coeffs)}"
             for s in P.steps]
    return "\n".join(lines) + "\n" if lines else ""


def _random_coefficient(rng, field):
    p = field.modulus
    if p is not None:
        return rng.choice((0, 1, p - 1, rng.randrange(p)))
    return rng.choice((Fraction(0), Fraction(1), Fraction(-1),
                       Fraction(-rng.randint(1, 99), rng.randint(2, 99)),
                       Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**20))))


@settings(max_examples=150, deadline=None)
@given(
    field=st.sampled_from(CODEC_FIELDS),
    n=st.one_of(st.integers(1, 8), st.integers(101, 140)),
    density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_format_program_matches_entrywise_reference(field, n, density, seed):
    rng = random.Random(seed)
    steps = []
    for _ in range(rng.randint(0, 6)):
        # Some rows are all zero, whatever the density.
        d = density if rng.random() < 0.8 else 0.0
        coeffs = [_random_coefficient(rng, field) if rng.random() < d else field.zero
                  for _ in range(n)]
        steps.append(Assignment(rng.randrange(n), tuple(coeffs)))
    P = StraightLineProgram(field, n, tuple(steps))
    assert format_program(P) == _reference_format_program(P)


def test_format_program_digit_limit_message():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int/str digit limit")
    big = Fraction(10**limit, 3)
    P = _program(RATIONAL, 2, (0, [1, -big]))
    with pytest.raises(GuardError) as caught:
        format_program(P)
    with pytest.raises(GuardError) as expected:
        RATIONAL.format_scalar(big)
    assert str(caught.value) == str(expected.value)


#: Tokens for the parse differential: plain and signed integers, ones
#: parse_scalar refuses ("--1", "²", "1_0", "1.5", "x"), an Arabic-Indic
#: digit that int() reads, fractions, and a 5000-digit token, which int()
#: refuses past its digit limit.
PARSE_TOKENS = ("0", "1", "6", "-1", "+1", "--1", "+-1", "²", "٣", "1٣", "1_0", "1.5", "x",
                "007", "-0", "3/4", "-5/6", "1/0", "2147483646", "9223372036854775782",
                "18446744073709551616", "7" * 5000)


def _parse_outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _reference_parse_line(field, line):
    return tuple(field.parse_scalar(tok) for tok in line.split())


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(CODEC_FIELDS),
    tokens=st.lists(st.sampled_from(PARSE_TOKENS), min_size=1, max_size=6),
    seps=st.lists(st.sampled_from((" ", "  ", "\t", " \t ", "　")), min_size=6, max_size=6),
)
def test_parse_line_matches_per_token_reference(field, tokens, seps):
    line = tokens[0] + "".join(sep + tok for sep, tok in zip(seps, tokens[1:]))
    text = f"{field.describe()}\nn {len(tokens)}\n{line}\n"
    got = _parse_outcome(lambda: parse_vector(text).entries)
    assert got == _parse_outcome(_reference_parse_line, field, line.strip())


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_body_text_matches_str_join(p):
    rng = random.Random(p)
    field = gfp(p)
    for n in (1, 2, 3, 9, 10, 11, 40):
        M = random_matrix(rng, field, n)
        assert M.body_text() == "\n".join(" ".join(map(str, row)) for row in M.rows)
