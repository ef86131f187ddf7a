"""Field arithmetic: parsing, canonical forms, and the field axioms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqmat import (
    GF2,
    RATIONAL,
    FieldKind,
    FieldSpec,
    field_parse,
    gfp,
)
from seqmat.errors import NotInvertibleError, ParseError, PreconditionError

GF3 = gfp(3)
GF5 = gfp(5)
GF7 = gfp(7)


# -- parsing ----------------------------------------------------------------


def test_field_parse_gf2():
    assert field_parse("gf2") == GF2
    assert GF2.kind is FieldKind.GF2
    assert GF2.modulus == 2


def test_field_parse_gfp():
    f = field_parse("gfp 7")
    assert f.kind is FieldKind.GFP
    assert f.modulus == 7


def test_field_parse_rational():
    assert field_parse("rational") == RATIONAL
    assert RATIONAL.kind is FieldKind.RATIONAL
    assert RATIONAL.modulus is None


def test_field_parse_rejects_non_prime():
    with pytest.raises(ParseError):
        field_parse("gfp 6")


@pytest.mark.parametrize(
    "text",
    ["gfp", "gfp x", "gf3", "", "gf2 7", "gfp 0", "gfp 1", "gfp ²", "gfp +7", "gfp " + "7" * 5000],
    ids=lambda text: text if len(text) < 20 else "gfp <5000 digits>",
)
def test_field_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        field_parse(text)


def test_gfp_two_canonicalizes_to_gf2():
    assert gfp(2) == GF2
    assert field_parse("gfp 2") == GF2


def test_field_descriptions_round_trip():
    for f in (GF2, GF7, RATIONAL):
        assert field_parse(f.describe()) == f


def test_direct_spec_validation():
    with pytest.raises(PreconditionError):
        FieldSpec(9)
    with pytest.raises(PreconditionError):
        FieldSpec(1)
    with pytest.raises(PreconditionError):
        FieldSpec(-7)
    with pytest.raises(PreconditionError):
        gfp((1 << 63) + 9)  # beyond the modulus limit, prime or not


def test_large_prime_modulus_accepted():
    f = gfp((1 << 61) - 1)
    assert f.inv(2) * 2 % f.modulus == 1


# -- arithmetic examples ------------------------------------------------------


def test_gf2_characteristic_two():
    assert GF2.add(1, 1) == 0


def test_rational_inverse_pair():
    assert RATIONAL.mul(Fraction(2, 3), Fraction(3, 2)) == 1


def test_gf7_add_reduces():
    # 5 + 4 = 9 = 7 + 2
    assert GF7.add(5, 4) == 2


def test_inv_examples():
    assert GF2.inv(1) == 1
    assert GF5.inv(2) == 3  # 2*3 = 6 = 5 + 1
    assert RATIONAL.inv(Fraction(-3, 2)) == Fraction(-2, 3)


def test_inv_of_zero_fails():
    with pytest.raises(NotInvertibleError):
        GF7.inv(0)
    with pytest.raises(NotInvertibleError):
        RATIONAL.inv(RATIONAL.zero)


def test_inverse_law_exhaustive_small_fields():
    for field in (GF2, GF3, GF5, GF7):
        for a in range(1, field.modulus):
            assert field.mul(a, field.inv(a)) == 1


def test_inverse_law_random_rationals():
    rng = random.Random(101)
    for _ in range(1000):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        if not a:
            continue
        assert RATIONAL.mul(a, RATIONAL.inv(a)) == Fraction(1)


# -- canonical form ----------------------------------------------------------


def test_scalar_canonicalizes_on_construction():
    assert GF7.coerce(9) == 2
    assert GF7.coerce(-1) == 6
    assert RATIONAL.coerce(Fraction(4, 6)) == Fraction(2, 3)
    assert type(RATIONAL.coerce(3)) is Fraction


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for field in (GF2, GF5, GF7, RATIONAL):
        for _ in range(200):
            if field.modulus is not None:
                raw = rng.randrange(field.modulus)
            else:
                raw = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            assert field.coerce(field.coerce(raw)) == field.coerce(raw)


def test_scalar_rejects_wrong_types():
    with pytest.raises(PreconditionError):
        GF7.coerce(Fraction(1, 2))
    with pytest.raises(PreconditionError):
        RATIONAL.coerce(0.5)
    with pytest.raises(PreconditionError):
        GF2.coerce(True)


# -- algebra laws -------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, GF7, RATIONAL])
def test_ring_laws_random_triples(field):
    rng = random.Random(31)

    def draw():
        if field.modulus is not None:
            return rng.randrange(field.modulus)
        return Fraction(rng.randint(-20, 20), rng.randint(1, 20))

    for _ in range(500):
        a, b, c = draw(), draw(), draw()
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == field.zero


_fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**6
)


@given(_fractions, _fractions, _fractions)
def test_rational_laws_hypothesis(a, b, c):
    assert RATIONAL.mul(a, RATIONAL.add(b, c)) == RATIONAL.add(
        RATIONAL.mul(a, b), RATIONAL.mul(a, c)
    )
    if a:
        assert RATIONAL.mul(a, RATIONAL.inv(a)) == Fraction(1)


# -- scalar operations and text ----------------------------------------------------


def test_scalar_operators():
    assert GF7.add(3, 6) == 2
    assert GF7.mul(3, 6) == 4
    assert GF7.neg(3) == 4
    assert GF7.sub(3, 6) == 4
    assert GF7.neg(6) == 1
    assert GF7.inv(6) == 6  # 6*6 = 36 = 35 + 1
    assert RATIONAL.format_scalar(Fraction(-2, 3)) == "-2/3"


def test_scalar_parse_and_format():
    assert GF7.parse_scalar("-3") == 4
    assert RATIONAL.parse_scalar("4/6") == Fraction(2, 3)
    with pytest.raises(ParseError):
        RATIONAL.parse_scalar("1.5")
    with pytest.raises(ParseError):
        RATIONAL.parse_scalar("2/0")
    with pytest.raises(ParseError):
        GF2.parse_scalar("x")
    with pytest.raises(ParseError):
        GF7.parse_scalar("1/2")
