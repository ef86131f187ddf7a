"""The record contract of seqmat's ten value types.

Every value type is immutable, equal by value within its own class,
hashable when its fields are, printed as ``Name(field=value, ...)``, and
survives copy, deepcopy and pickle.  The repr strings have the form a
frozen dataclass with the same fields prints.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from seqmat import (
    GF2,
    RATIONAL,
    Assignment,
    CensusReport,
    Digraph,
    FieldKind,
    FieldSpec,
    Matrix,
    OrbitReport,
    StraightLineProgram,
    Vector,
    gfp,
)
from seqmat.errors import DimensionMismatchError, PreconditionError
from seqmat.record import Record, set_field
from seqmat.sequentialize import InSituCoding, PermCoding

GF7 = gfp(7)
F2 = "FieldSpec(modulus=2)"
M2 = f"Matrix(field={F2}, rows=((1, 1), (0, 1)))"


def _m2(a=1):
    return Matrix(GF2, ((1, a), (0, 1)))


# (make, other, repr of make()): make() builds a fresh record, other is a
# record of the same class that differs from it in one field.
CASES = {
    "FieldSpec": (lambda: FieldSpec(7), FieldSpec(5), "FieldSpec(modulus=7)"),
    "FieldSpec-rational": (lambda: FieldSpec(), GF2, "FieldSpec(modulus=None)"),
    "Vector": (lambda: Vector(GF2, (1, 0)), Vector(GF2, (1, 1)),
               f"Vector(field={F2}, entries=(1, 0))"),
    "Matrix": (lambda: Matrix(GF2, ((1,),)), Matrix(GF7, ((1,),)),
               f"Matrix(field={F2}, rows=((1,),))"),
    "Matrix-rational": (
        lambda: Matrix(RATIONAL, ((Fraction(1, 2),),)), Matrix(RATIONAL, ((Fraction(1, 3),),)),
        "Matrix(field=FieldSpec(modulus=None), rows=((Fraction(1, 2),),))"),
    "Assignment": (
        lambda: Assignment(0, (3,)), Assignment(1, (3,)), "Assignment(target=0, coeffs=(3,))"),
    "StraightLineProgram": (
        lambda: StraightLineProgram(GF2, 1, (Assignment(0, (1,)),)),
        StraightLineProgram(GF2, 1, ()),
        f"StraightLineProgram(field={F2}, n=1, steps=(Assignment(target=0, coeffs=(1,)),))"),
    "InSituCoding": (lambda: InSituCoding(_m2(), (1, None)), InSituCoding(_m2(), (None, None)),
                     f"InSituCoding(matrix={M2}, fixups=(1, None))"),
    "PermCoding": (lambda: PermCoding(_m2(), (1, 0)), PermCoding(_m2(), (0, 1)),
                   f"PermCoding(matrix={M2}, perm=(1, 0))"),
    "Digraph": (lambda: Digraph(_m2()), Digraph(_m2(0)), f"Digraph(adjacency={M2})"),
    "OrbitReport": (lambda: OrbitReport(_m2(), 3), OrbitReport(_m2(), 2),
                    f"OrbitReport(start={M2}, cycle_length=3)"),
    "CensusReport": (lambda: CensusReport(2, {1: 2, 2: 2}), CensusReport(2, {1: 4}),
                     "CensusReport(n=2, histogram={1: 2, 2: 2})"),
}
RECORDS = pytest.mark.parametrize("case", sorted(CASES))


def _fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_cases_cover_every_record_type():
    types = {type(make()) for make, _, _ in CASES.values()}
    assert types == {t for t in Record.__subclasses__() if t.__module__.startswith("seqmat.")}
    assert len(types) == 10


@RECORDS
def test_equal_by_value_and_hash(case):
    make, other, _ = CASES[case]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if isinstance(a, CensusReport):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@RECORDS
def test_never_equal_to_another_class_with_the_same_fields(case):
    record = CASES[case][0]()
    twin_type = type("Twin", (Record,), {"__slots__": type(record).__slots__})
    twin = object.__new__(twin_type)
    for name, value in _fields(record).items():
        set_field(twin, name, value)
    values = tuple(_fields(record).values())
    assert record != twin and twin != record
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented


@RECORDS
def test_repr_is_the_dataclass_text(case):
    make, _, text = CASES[case]
    assert repr(make()) == text


@RECORDS
def test_fields_are_read_only(case):
    record = CASES[case][0]()
    for name in [*type(record).__slots__, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == CASES[case][0]()


@RECORDS
def test_keyword_construction(case):
    record = CASES[case][0]()
    assert type(record)(**_fields(record)) == record


@RECORDS
def test_copy_deepcopy_and_pickle(case):
    record = CASES[case][0]()
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


def test_field_spec_default_modulus():
    assert FieldSpec() == RATIONAL
    assert FieldSpec().modulus is None
    assert FieldSpec().kind is FieldKind.RATIONAL


@pytest.mark.parametrize("build, message", [
    (lambda: FieldSpec(1 << 63), f"modulus {1 << 63} exceeds the 63-bit limit"),
    (lambda: FieldSpec(9), "modulus 9 is not prime"),
    (lambda: InSituCoding(_m2(), (None,)), "need one fix-up slot per row"),
    (lambda: InSituCoding(_m2(), (0, None)), "fix-up partner for row 1 must lie strictly below it"),
    (lambda: InSituCoding(_m2(), (None, 1)), "fix-up partner for row 2 must lie strictly below it"),
    (lambda: PermCoding(_m2(), (0, 0)), "perm must be a permutation of the row indices"),
    (lambda: Digraph(Matrix(GF7, ((1,),))), "digraph adjacency requires a GF(2) matrix, got gfp 7"),
    (lambda: StraightLineProgram(GF7, 3, (Assignment(3, (1, 0, 0)),)),
     "step 0 targets 3, outside range(3)"),
    (lambda: StraightLineProgram(GF7, 3, (Assignment(0, (1, 0, 0)), Assignment(-1, (1, 0, 0)))),
     "step 1 targets -1, outside range(3)"),
    (lambda: StraightLineProgram(GF7, 3, (Assignment(0, (1, 0, 0)), Assignment(0, (1, 1)))),
     "step 1 has 2 coefficients, not 3"),
    # program_symbolic mapped (1, 1) to (5, 1) with the coefficient 1000,
    # and -1 raised a bare OverflowError from the packed rows.
    (lambda: StraightLineProgram(GF7, 2, (Assignment(0, (1000, 1)),)),
     "step 0 has a coefficient not canonical in gfp 7"),
    (lambda: StraightLineProgram(GF7, 2, (Assignment(1, (0, 1)), Assignment(0, (-1, 1)))),
     "step 1 has a coefficient not canonical in gfp 7"),
    (lambda: StraightLineProgram(GF2, 2, (Assignment(0, (2, 1)),)),
     "step 0 has a coefficient not canonical in gf2"),
    (lambda: StraightLineProgram(RATIONAL, 2, (Assignment(0, (Fraction(1, 2), 1)),)),
     "step 0 has a coefficient not canonical in rational"),
    (lambda: StraightLineProgram(RATIONAL, 1, (Assignment(0, (0.5,)),)),
     "step 0 has a coefficient not canonical in rational"),
])
def test_validation_errors(build, message):
    error = DimensionMismatchError if "coefficients, not" in message else PreconditionError
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
