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
    Scalar,
    add,
    field_parse,
    gfp,
    inv,
    mul,
    neg,
    scalar_parse,
)
from seqmat.errors import (
    FieldMismatchError,
    NotInvertibleError,
    ParseError,
    PreconditionError,
)

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
        FieldSpec(FieldKind.GFP, 9)
    with pytest.raises(PreconditionError):
        FieldSpec(FieldKind.GF2, 3)
    with pytest.raises(PreconditionError):
        FieldSpec(FieldKind.RATIONAL, 5)
    with pytest.raises(PreconditionError):
        gfp((1 << 63) + 9)  # beyond the modulus limit, prime or not


def test_large_prime_modulus_accepted():
    f = gfp((1 << 61) - 1)
    assert f.inv(2) * 2 % f.modulus == 1


# -- arithmetic examples ------------------------------------------------------


def test_gf2_characteristic_two():
    one = Scalar(1, GF2)
    assert add(one, one) == Scalar(0, GF2)


def test_rational_inverse_pair():
    a = Scalar(Fraction(2, 3), RATIONAL)
    b = Scalar(Fraction(3, 2), RATIONAL)
    assert mul(a, b) == Scalar(1, RATIONAL)


def test_gf7_add_reduces():
    # 5 + 4 = 9 = 7 + 2
    assert add(Scalar(5, GF7), Scalar(4, GF7)) == Scalar(2, GF7)


def test_inv_examples():
    assert inv(Scalar(1, GF2)) == Scalar(1, GF2)
    assert inv(Scalar(2, GF5)) == Scalar(3, GF5)  # 2*3 = 6 = 5 + 1
    assert inv(Scalar(Fraction(-3, 2), RATIONAL)) == Scalar(Fraction(-2, 3), RATIONAL)


def test_inv_of_zero_fails():
    with pytest.raises(NotInvertibleError):
        inv(Scalar(0, GF7))
    with pytest.raises(NotInvertibleError):
        inv(Scalar(0, RATIONAL))


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
    assert Scalar(9, GF7).value == 2
    assert Scalar(-1, GF7).value == 6
    assert Scalar(Fraction(4, 6), RATIONAL).value == Fraction(2, 3)


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for field in (GF2, GF5, GF7, RATIONAL):
        for _ in range(200):
            if field.modulus is not None:
                raw = rng.randrange(field.modulus)
            else:
                raw = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            s = Scalar(raw, field)
            assert Scalar(s.value, s.field) == s


def test_scalar_rejects_wrong_types():
    with pytest.raises(PreconditionError):
        Scalar(Fraction(1, 2), GF7)
    with pytest.raises(PreconditionError):
        Scalar(0.5, RATIONAL)
    with pytest.raises(PreconditionError):
        Scalar(True, GF2)


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


# -- scalar wrapper ------------------------------------------------------------


def test_scalar_field_mismatch():
    with pytest.raises(FieldMismatchError):
        add(Scalar(1, GF2), Scalar(1, GF7))
    with pytest.raises(FieldMismatchError):
        mul(Scalar(1, RATIONAL), Scalar(1, GF7))


def test_scalar_operators():
    a = Scalar(3, GF7)
    b = Scalar(6, GF7)
    assert a + b == Scalar(2, GF7)
    assert a * b == Scalar(4, GF7)
    assert -a == Scalar(4, GF7)
    assert a - b == Scalar(4, GF7)
    assert neg(b) == Scalar(1, GF7)
    assert b.inv() == Scalar(6, GF7)  # 6*6 = 36 = 35 + 1
    assert str(Scalar(Fraction(-2, 3), RATIONAL)) == "-2/3"


def test_scalar_parse_and_format():
    assert scalar_parse("-3", GF7) == Scalar(4, GF7)
    assert scalar_parse("4/6", RATIONAL).value == Fraction(2, 3)
    with pytest.raises(ParseError):
        scalar_parse("1.5", RATIONAL)
    with pytest.raises(ParseError):
        scalar_parse("2/0", RATIONAL)
    with pytest.raises(ParseError):
        scalar_parse("x", GF2)
    with pytest.raises(ParseError):
        scalar_parse("1/2", GF7)
