"""Dense matrices, vectors, straight-line assignment programs.

Two interpretations of a square matrix live here: the usual linear map
(each output component computed from the untouched input vector) and the
in-place one, where row i is executed as the single assignment
``x_i := row_i . X`` against the current state, for i = 1..n.  The
in-place interpretation of M is itself a linear map; its matrix is
computed by program_symbolic / seq_matrix.

Entries are stored as raw canonical field values (ints / Fractions);
indices are 0-based in code, 1-based in all text formats.  GF(2) rows
can be bit-packed into plain ints for word-level XOR arithmetic, and
rational rows can be held as int numerators over one denominator for
arithmetic without a Fraction per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, FieldMismatchError, PreconditionError
from .fields import GF2, FieldSpec, Scalar


@dataclass(frozen=True)
class Vector:
    """Length-n vector of canonical raw values over one field."""

    field: FieldSpec
    entries: tuple

    @classmethod
    def of(cls, field: FieldSpec, entries) -> "Vector":
        ents = tuple(field.coerce(x) for x in entries)
        if not ents:
            raise DimensionMismatchError("vector must have at least one entry")
        return cls(field, ents)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def scalars(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(v, self.field) for v in self.entries)

    def __str__(self) -> str:
        return " ".join(self.field.format_scalar(v) for v in self.entries)


@dataclass(frozen=True)
class Matrix:
    """Square n x n matrix over one field, stored row-major."""

    field: FieldSpec
    rows: tuple[tuple, ...]

    @classmethod
    def of(cls, field: FieldSpec, rows) -> "Matrix":
        built = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        n = len(built)
        if n == 0:
            raise DimensionMismatchError("matrix must have at least one row")
        for row in built:
            if len(row) != n:
                raise DimensionMismatchError(
                    f"matrix is not square: {n} rows, row of length {len(row)}"
                )
        return cls(field, built)

    @classmethod
    def identity(cls, n: int, field: FieldSpec) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Vector:
        return Vector(self.field, self.rows[i])

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def body_text(self) -> str:
        fmt = self.field.format_scalar
        return "\n".join(" ".join(fmt(v) for v in row) for row in self.rows)

    def __str__(self) -> str:
        return self.body_text()


@dataclass(frozen=True)
class Assignment:
    """One program step: ``x_target := coeffs . X`` against the current X."""

    target: int
    coeffs: Vector


@dataclass(frozen=True)
class StraightLineProgram:
    """Ordered single-target linear assignments, executed in place."""

    field: FieldSpec
    n: int
    steps: tuple[Assignment, ...]

    def __len__(self) -> int:
        return len(self.steps)


# -- consistency checks -----------------------------------------------


def _check_pair(field_a: FieldSpec, field_b: FieldSpec, n_a: int, n_b: int) -> None:
    if field_a != field_b:
        raise FieldMismatchError(f"mixed fields: {field_a} vs {field_b}")
    if n_a != n_b:
        raise DimensionMismatchError(f"mixed dimensions: {n_a} vs {n_b}")


def require_gf2(M: Matrix, what: str = "operation") -> None:
    if M.field != GF2:
        raise PreconditionError(f"{what} requires a GF(2) matrix, got {M.field}")


# -- raw kernels -------------------------------------------------------


def _dot(field: FieldSpec, xs, ys):
    total = field.zero
    for a, b in zip(xs, ys):
        if a and b:
            total = total + a * b
    p = field.modulus
    return total % p if p is not None else total


def _combine(field: FieldSpec, coeffs, rows, n: int) -> tuple:
    """Row-vector times row-stack product: sum_t coeffs[t] * rows[t]."""
    acc = [field.zero] * n
    for c, row in zip(coeffs, rows):
        if c:
            for t, v in enumerate(row):
                if v:
                    acc[t] = acc[t] + c * v
    p = field.modulus
    if p is not None:
        return tuple(v % p for v in acc)
    return tuple(acc)


# -- rational rows: int numerators over one positive denominator ----------------
#
# A row of Fractions v_t is held as (N, d) with v_t = N[t] / d, d > 0, and
# kept reduced, gcd(d, *N) == 1.  The reduced pair is unique (d is the lcm
# of the entries' denominators), so equal rows have equal pairs and the
# integers stay as small as the row allows.


def _q_pack(entries) -> tuple[list[int], int]:
    """Fractions as a reduced (N, d): d is the lcm of their denominators.

    The pair is already reduced: for each prime q dividing d, some entry's
    denominator holds the whole power of q in d, and q divides neither
    that entry's numerator nor d over its denominator, so not its N[t].
    """
    d = lcm(*(v.denominator for v in entries))
    return [v.numerator * (d // v.denominator) for v in entries], d


def _q_reduce(N: list[int], d: int) -> tuple[list[int], int]:
    """(N, d) divided by gcd(d, *N); d must be positive."""
    g = gcd(d, *N)
    if g == 1:
        return N, d
    return [v // g for v in N], d // g


def _q_unpack(N: list[int], d: int) -> tuple:
    """The canonical Fractions N[t] / d."""
    return tuple(Fraction(v, d) for v in N)


# -- the two interpretations --------------------------------------------


def parallel_apply(M: Matrix, X: Vector) -> Vector:
    """The ordinary linear map: (row_1 . X, ..., row_n . X); X is untouched."""
    _check_pair(M.field, X.field, M.n, len(X))
    field = M.field
    return Vector(field, tuple(_dot(field, row, X.entries) for row in M.rows))


def seq_program(M: Matrix) -> StraightLineProgram:
    """The n-step program executing each row in place: step i is ``x_i := row_i . X``."""
    field = M.field
    steps = tuple(Assignment(i, Vector(field, row)) for i, row in enumerate(M.rows))
    return StraightLineProgram(field, M.n, steps)


def program_apply(P: StraightLineProgram, X: Vector) -> Vector:
    """Run P on a single state vector; only the state and one accumulator are live."""
    _check_pair(P.field, X.field, P.n, len(X))
    field = P.field
    state = list(X.entries)
    for step in P.steps:
        state[step.target] = _dot(field, step.coeffs.entries, state)
    return Vector(field, tuple(state))


def seq_apply(M: Matrix, X: Vector) -> Vector:
    """The in-place image of X by M: run M's rows as assignments in order."""
    return program_apply(seq_program(M), X)


def program_symbolic(P: StraightLineProgram) -> Matrix:
    """The matrix C with parallel_apply(C, X) = program_apply(P, X) for all X.

    Tracks coefficients: C starts as the identity and each step
    (target t, coeffs R) replaces row C_t by the product R . C.  This is
    the single correctness oracle the compilation modules are checked
    against.  Rows of C are bit-packed ints over GF(2), where a step is
    one XOR per nonzero coefficient, and reduced int numerators over one
    denominator over Q, where a step is one pass over the numerators per
    nonzero coefficient and one gcd reduction; over GF(p) a step is the
    entrywise _combine.
    """
    field = P.field
    n = P.n
    if field.modulus == 2:
        return _program_symbolic_gf2(P)
    if field.modulus is None:
        return _program_symbolic_q(P)
    ident = Matrix.identity(n, field)
    rows = list(ident.rows)
    for step in P.steps:
        rows[step.target] = _combine(field, step.coeffs.entries, rows, n)
    return Matrix(field, tuple(rows))


def _program_symbolic_q(P: StraightLineProgram) -> Matrix:
    # Rows of C as reduced (N, d) pairs.  The sum R . C is kept over one
    # running denominator D: a term c*N_t/d_t has denominator
    # q = den(c)*d_t, so D grows to lcm(D, q) and the sum so far is
    # multiplied by lcm(D, q)/D.  The row is reduced once, after the last
    # term.
    n = P.n
    rows = [([int(t == u) for u in range(n)], 1) for t in range(n)]
    for step in P.steps:
        acc, D = [0] * n, 1
        for c, (N, d) in zip(step.coeffs.entries, rows):
            if c:
                q = c.denominator * d
                g = gcd(D, q)
                scale, m = q // g, c.numerator * (D // g)
                acc = [scale * x + m * y for x, y in zip(acc, N)]
                D *= scale
        rows[step.target] = _q_reduce(acc, D)
    return Matrix(P.field, tuple(_q_unpack(N, d) for N, d in rows))


def _program_symbolic_gf2(P: StraightLineProgram) -> Matrix:
    # Same computation on bit-packed rows; cross-checked against the
    # generic path in the test suite.
    n = P.n
    packed = [1 << t for t in range(n)]
    for step in P.steps:
        acc = 0
        for t, c in enumerate(step.coeffs.entries):
            if c:
                acc ^= packed[t]
        packed[step.target] = acc
    return unpack_gf2_rows(packed, n)


def seq_matrix(M: Matrix) -> Matrix:
    """The matrix whose ordinary interpretation equals M's in-place one."""
    return program_symbolic(seq_program(M))


# -- predicates and small rewrites ---------------------------------------


def is_regular(M: Matrix) -> bool:
    """True iff every diagonal entry equals 1."""
    one = M.field.one
    return all(row[i] == one for i, row in enumerate(M.rows))


def is_similar(M: Matrix, W: Matrix) -> bool:
    """True iff M and W agree everywhere except possibly on the diagonal."""
    _check_pair(M.field, W.field, M.n, W.n)
    for i, (ra, rb) in enumerate(zip(M.rows, W.rows)):
        for j, (a, b) in enumerate(zip(ra, rb)):
            if i != j and a != b:
                return False
    return True


def set_diag_ones(M: Matrix) -> Matrix:
    """Copy of M with every diagonal entry forced to 1."""
    one = M.field.one
    rows = []
    for i, row in enumerate(M.rows):
        r = list(row)
        r[i] = one
        rows.append(tuple(r))
    return Matrix(M.field, tuple(rows))


def seq_equivalent(M: Matrix, W: Matrix) -> bool:
    """True iff the in-place interpretations of M and W are the same map."""
    _check_pair(M.field, W.field, M.n, W.n)
    return seq_matrix(M) == seq_matrix(W)


# -- GF(2) bit packing ----------------------------------------------------


def pack_gf2_rows(M: Matrix) -> tuple[int, ...]:
    """Rows as ints, bit j of row i = entry (i, j)."""
    require_gf2(M, "bit packing")
    out = []
    for row in M.rows:
        bits = 0
        for j, v in enumerate(row):
            if v:
                bits |= 1 << j
        out.append(bits)
    return tuple(out)


def unpack_gf2_rows(packed, n: int) -> Matrix:
    return Matrix(GF2, tuple(tuple((r >> j) & 1 for j in range(n)) for r in packed))
