"""Compiling any linear map into an in-place straight-line program.

Three routes:

* sequentialize: at most 2n-1 single-target assignments.  Rows are
  processed top to bottom; a zero pivot with live entries below is
  repaired by subtracting a lower row (recorded as a fix-up), and every
  assignment is followed by substitution updates so later rows keep
  referring to the values they can still reach.  The deferred fix-ups
  ``x_i := x_i + x_j`` run in reverse order at the end.  The whole
  result is coded compactly as (matrix, fix-up list).
* sequentialize_perm: exactly n assignments, repairing zero pivots by
  swapping the offending row up; coded as (matrix, permutation).
* preimage_search: the converse question, whether some matrix has an
  in-place interpretation equal to the ordinary interpretation of the
  target.  Over a finite field it is answered by one leading-block
  linear solve per row, which also picks the lexicographically first
  such matrix.

Both compilers, and regularize_general in the regularize module, are one
elimination kernel, eliminate, with different pivot policies.  It keeps
the working rows in the packed backend of their field (see the matrix
module).  Its output is bit-identical to the entrywise field-method
elimination, which the tests keep as its reference.  Everything is
checked against the program_symbolic oracle in the tests.
"""

from __future__ import annotations

from .errors import PreconditionError
from .matrix import (
    Assignment,
    Matrix,
    StraightLineProgram,
    Vector,
    row_backend,
    seq_program,
)
from .record import Record, set_field


class InSituCoding(Record):
    """Compact form of a sequentialization: the matrix whose in-place
    program is the first n steps, plus one optional fix-up partner per row.

    fixups[i] is the 0-based row j > i whose value repairs row i at the
    end, or None when row i needs no fix-up.  The last row never has one.
    """

    __slots__ = ("matrix", "fixups")

    def __init__(self, matrix: Matrix, fixups: tuple[int | None, ...]) -> None:
        n = matrix.n
        if len(fixups) != n:
            raise PreconditionError("need one fix-up slot per row")
        for i, j in enumerate(fixups):
            if j is None:
                continue
            if not i < j < n:
                raise PreconditionError(
                    f"fix-up partner for row {i + 1} must lie strictly below it"
                )
        if fixups[n - 1] is not None:
            raise PreconditionError("the last row cannot have a fix-up partner")
        set_field(self, "matrix", matrix)
        set_field(self, "fixups", fixups)

    @property
    def fixups_one_based(self) -> tuple[int, ...]:
        """The external form: 0 for no fix-up, else the 1-based partner."""
        return tuple(0 if j is None else j + 1 for j in self.fixups)

    @classmethod
    def from_one_based(cls, matrix: Matrix, values) -> "InSituCoding":
        return cls(matrix, tuple(None if v == 0 else v - 1 for v in values))


class PermCoding(Record):
    """Compact form of the row-exchange method: matrix plus the permutation
    mapping each output position to the input row it realizes."""

    __slots__ = ("matrix", "perm")

    def __init__(self, matrix: Matrix, perm: tuple[int, ...]) -> None:
        if sorted(perm) != list(range(matrix.n)):
            raise PreconditionError("perm must be a permutation of the row indices")
        set_field(self, "matrix", matrix)
        set_field(self, "perm", perm)

    @property
    def perm_one_based(self) -> tuple[int, ...]:
        return tuple(s + 1 for s in self.perm)

    @classmethod
    def from_one_based(cls, matrix: Matrix, values) -> "PermCoding":
        return cls(matrix, tuple(v - 1 for v in values))


# -- the elimination kernel ---------------------------------------------------


def eliminate(M: Matrix, policy: str, units: tuple = ()) -> tuple[tuple[tuple, ...], tuple]:
    """The elimination shared by both compilers and regularize_general.

    Walks the rows top to bottom.  At row i it settles the pivot by the
    policy, emits the row, and, when the pivot is nonzero, applies the
    substitution update to every later row k reading column i:
    ``row_k += row_k[i] * pivot^-1 * (e_i - row_i)``, which rewrites row
    k's reference to the old x_i in terms of the values it can still
    reach.  Policies for a zero pivot with a nonzero entry below it, in
    the first such row j:

    * "fixup": subtract row j from row i; moves[i] = j.
    * "perm": swap rows i and j; moves is the resulting row permutation.
    * "units": set the pivot of every row i to units[i] (never zero);
      moves is all None.

    Returns the emitted rows and moves.
    """
    field = M.field
    n = M.n
    rows = row_backend(M)
    moves = list(range(n)) if policy == "perm" else [None] * n
    out = []
    for i in range(n):
        row = rows.read(i)
        if policy == "units":
            row[i] = units[i]
        elif not row[i]:
            j = next((k for k in range(i + 1, n) if rows.coeff(k, i)), None)
            if j is not None and policy == "fixup":
                moves[i] = j
                row = [field.sub(a, b) for a, b in zip(row, rows.read(j))]
            elif j is not None:
                rows.rows[i], rows.rows[j] = rows.rows[j], rows.rows[i]
                moves[i], moves[j] = moves[j], moves[i]
                row = rows.read(i)
        out.append(tuple(row))
        if row[i]:
            rows.substitute(i, row)
        # else: nothing below reads column i, no updates are needed.
    return tuple(out), tuple(moves)


def sequentialize(M: Matrix) -> tuple[StraightLineProgram, InSituCoding]:
    """In-place program for the ordinary interpretation of M, <= 2n-1 steps.

    program_symbolic(program) equals M; the first n steps are the
    in-place program of coding.matrix and the remaining ones are the
    fix-ups ``x_i := x_i + x_j`` for descending i.
    """
    rows, fixups = eliminate(M, "fixup")
    coding = InSituCoding(Matrix(M.field, rows), fixups)
    return decode_coding(coding), coding


def decode_coding(coding: InSituCoding) -> StraightLineProgram:
    """Expand (matrix, fix-ups) back into the full program."""
    M = coding.matrix
    field = M.field
    n = M.n
    steps = list(seq_program(M).steps)
    one, zero = field.one, field.zero
    for i in range(n - 2, -1, -1):
        j = coding.fixups[i]
        if j is not None:
            coeffs = [zero] * n
            coeffs[i] = one
            coeffs[j] = one
            steps.append(Assignment(i, Vector(field, tuple(coeffs))))
    return StraightLineProgram(field, n, tuple(steps))


def sequentialize_perm(M: Matrix) -> tuple[StraightLineProgram, PermCoding]:
    """Row-exchange variant: exactly n steps and a permutation s with
    program_symbolic(program) row i equal to row s(i) of M."""
    rows, perm = eliminate(M, "perm")
    coding = PermCoding(Matrix(M.field, rows), perm)
    return seq_program(coding.matrix), coding


def preimage_search(M: Matrix):
    """First matrix P (row-major lexicographic order on canonical entries)
    with seq_matrix(P) = M, or None when no such matrix exists.

    The rows of P are independent linear systems.  Step i of P's
    in-place program replaces row i of the running coefficient matrix C
    and no later step touches it, so if seq_matrix(P) = M then, just
    before step i, the rows of C are M's rows 0..i-1 followed by the
    unit rows e_i..e_(n-1), whatever P's earlier rows are.  Row i of P
    is therefore any (y, z) with y * M[:i, :i] = M[i, :i] and
    z = M[i, i:] - y * M[:i, i:]; the first P takes the first y of
    every row (see _first_solution).  O(n^4) entry operations, no guard.
    """
    field = M.field
    p = field.modulus
    if p is None:
        raise PreconditionError("preimage search needs a finite field")
    found = []
    for i, target in enumerate(M.rows):
        above = M.rows[:i]
        # one equation per column c < i: sum_k y_k * M[k][c] = M[i][c]
        y = _first_solution([[row[c] for row in above] + [target[c]] for c in range(i)], p)
        if y is None:
            return None
        z = [(target[c] - sum(a * row[c] for a, row in zip(y, above))) % p for c in range(i, M.n)]
        found.append(tuple(y + z))
    return Matrix(field, tuple(found))


def _first_solution(equations: list[list[int]], p: int) -> list[int] | None:
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
