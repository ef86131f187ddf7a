"""Exact scalar arithmetic over GF(2), GF(p) with prime p, and rationals.

A FieldSpec is its modulus: a prime p for GF(p), GF(2) included, or
None for the rationals; its kind is derived from it.  It performs
arithmetic on *raw* canonical values: Python ints for the prime fields,
fractions.Fraction for the rationals.  A field element is such a value;
matrices and vectors hold them with their FieldSpec.

Canonical forms are unique: residues live in [0, p) and rationals are
fully reduced with a positive denominator (Fraction guarantees this), so
equality of values is equality of representations.
"""

from __future__ import annotations

import enum
import re
import sys
from fractions import Fraction

from .errors import GuardError, NotInvertibleError, ParseError, PreconditionError
from .record import Record, set_field

#: Moduli are limited so residues stay machine-word sized.
MAX_MODULUS = 1 << 63

_ZERO = Fraction(0)
_ONE = Fraction(1)

_INT_RE = re.compile(r"[+-]?\d+")
_FRACTION_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


class FieldKind(enum.Enum):
    GF2 = "gf2"
    GFP = "gfp"
    RATIONAL = "rational"


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for all p < 2**64."""
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldSpec(Record):
    """Descriptor of an exact field: GF(p) for a prime modulus p, the
    rationals for none."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int | None = None) -> None:
        if modulus is not None:
            if modulus >= MAX_MODULUS:
                raise PreconditionError(f"modulus {modulus} exceeds the 63-bit limit")
            if not _is_prime(modulus):
                raise PreconditionError(f"modulus {modulus} is not prime")
        set_field(self, "modulus", modulus)

    @property
    def kind(self) -> FieldKind:
        p = self.modulus
        if p is None:
            return FieldKind.RATIONAL
        return FieldKind.GF2 if p == 2 else FieldKind.GFP

    # -- description ---------------------------------------------------

    def describe(self) -> str:
        """The text form used in file headers: 'gf2' | 'gfp <p>' | 'rational'."""
        p = self.modulus
        if p is None:
            return "rational"
        return "gf2" if p == 2 else f"gfp {p}"

    def __str__(self) -> str:
        return self.describe()

    @property
    def is_finite(self) -> bool:
        return self.modulus is not None

    # -- raw-value arithmetic -------------------------------------------

    @property
    def zero(self):
        return 0 if self.modulus is not None else _ZERO

    @property
    def one(self):
        return 1 if self.modulus is not None else _ONE

    def coerce(self, x):
        """Canonicalize a raw value into this field."""
        p = self.modulus
        if p is not None:
            if isinstance(x, bool) or not isinstance(x, int):
                raise PreconditionError(f"not an integer residue: {x!r}")
            return x % p
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise PreconditionError(f"not an exact rational: {x!r}")

    def add(self, a, b):
        p = self.modulus
        return (a + b) % p if p is not None else a + b

    def sub(self, a, b):
        p = self.modulus
        return (a - b) % p if p is not None else a - b

    def mul(self, a, b):
        p = self.modulus
        return a * b % p if p is not None else a * b

    def neg(self, a):
        p = self.modulus
        return -a % p if p is not None else -a

    def inv(self, a):
        if not a:
            raise NotInvertibleError("0 has no multiplicative inverse")
        p = self.modulus
        return pow(a, -1, p) if p is not None else 1 / a

    # -- scalar text ----------------------------------------------------

    def parse_scalar(self, text: str):
        """Parse one scalar literal: signed integer, or 'p/q' for rationals."""
        text = text.strip()
        if self.modulus is not None:
            if not _INT_RE.fullmatch(text):
                raise ParseError(f"bad {self.describe()} scalar: {text!r}")
            try:
                return int(text) % self.modulus
            except ValueError as exc:  # more digits than int() accepts
                raise ParseError(f"bad {self.describe()} scalar: {exc}") from None
        if not _FRACTION_RE.fullmatch(text):
            raise ParseError(f"bad rational scalar: {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator: {text!r}") from None
        except ValueError as exc:  # more digits than int() accepts
            raise ParseError(f"bad rational scalar: {exc}") from None

    def format_scalar(self, v) -> str:
        try:
            return str(v)
        except ValueError:
            raise digit_limit_error() from None


GF2 = FieldSpec(2)
RATIONAL = FieldSpec()


def gfp(p: int) -> FieldSpec:
    """The prime field with p elements; p = 2 yields the GF2 spec."""
    return FieldSpec(p)


def digit_limit_error() -> GuardError:
    """The error for a value whose text passes Python's int-to-text limit
    (str raises ValueError on it); every formatter raises this one."""
    return GuardError(
        "a result coefficient has more than "
        f"{sys.get_int_max_str_digits()} digits, Python's int-to-text limit"
    )


def parse_int(token: str, what: str) -> int:
    """A decimal integer with an optional minus sign, else ParseError."""
    if not token.removeprefix("-").isdecimal():
        raise ParseError(f"bad {what}: {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # more digits than int() accepts
        raise ParseError(f"bad {what}: {exc}") from None


def field_parse(text: str) -> FieldSpec:
    """Parse a field descriptor: 'gf2' | 'gfp <p>' | 'rational'."""
    tokens = text.split()
    if tokens == ["gf2"]:
        return GF2
    if tokens == ["rational"]:
        return RATIONAL
    if len(tokens) == 2 and tokens[0] == "gfp":
        p = parse_int(tokens[1], "gfp modulus")
        try:
            return gfp(p)
        except PreconditionError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"unknown field descriptor: {text.strip()!r}")
