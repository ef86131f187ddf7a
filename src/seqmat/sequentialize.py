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
  target.  Over a finite field it is answered by one forward
  elimination over the target's rows augmented by the unit rows, O(n^3),
  which solves every row's leading-block system at once and picks the
  lexicographically first such matrix.

Both compilers, and regularize_general in the regularize module, are one
elimination kernel, eliminate, with different pivot policies.  It keeps
the working rows in the packed backend of their field (see the matrix
module), and so does preimage_search.  Its output is bit-identical to
the entrywise field-method elimination, which the tests keep as its
reference.  Everything is checked against the program_symbolic oracle
in the tests.
"""

from __future__ import annotations

from .errors import PreconditionError
from .matrix import (
    Assignment,
    Matrix,
    StraightLineProgram,
    row_backend,
    seq_program,
)
from .record import Record, set_field


class InSituCoding(Record):
    """Compact form of a sequentialization: the matrix whose in-place
    program is the first n steps, plus one optional fix-up partner per row.

    fixups[i] is the 0-based row j > i whose value repairs row i at the
    end, or None when row i needs no fix-up.  The last row never has one.
    The coding holds only this form; the coding file's 1-based line (0 for
    None) is made and read by formats.format_coding and parse_coding.
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
        set_field(self, "matrix", matrix)
        set_field(self, "fixups", fixups)


class PermCoding(Record):
    """Compact form of the row-exchange method: matrix plus the permutation
    mapping each output position to the 0-based input row it realizes."""

    __slots__ = ("matrix", "perm")

    def __init__(self, matrix: Matrix, perm: tuple[int, ...]) -> None:
        if sorted(perm) != list(range(matrix.n)):
            raise PreconditionError("perm must be a permutation of the row indices")
        set_field(self, "matrix", matrix)
        set_field(self, "perm", perm)


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

    The rows stay packed in the field's backend, and the stored row i is
    the emitted row when the update runs: read stores a GF(p) row back
    reduced, a forced unit pivot is stored with one pack, and the fix-up
    row is one combine of the stored rows i and j with coefficients 1
    and -1, row j read first so that both terms are reduced.  The
    backend holds no unit rows, so that combine is a plain row sum and
    stores its result reduced.  So the update, rows.substitute(i), takes
    its pivot row from the backend and never repacks the emitted entries.

    Returns the emitted rows and moves.
    """
    field = M.field
    n = M.n
    rows = row_backend(field, n, n)
    rows.rows = [rows.pack(r) for r in M.rows]
    moves = list(range(n)) if policy == "perm" else [None] * n
    out = []
    for i in range(n):
        row = rows.read(i)
        if policy == "units" and row[i] != units[i]:
            row[i] = units[i]
            rows.rows[i] = rows.pack(row)
        elif not row[i]:
            j = next((k for k in range(i + 1, n) if rows.coeff(k, i)), None)
            if j is not None and policy == "fixup":
                moves[i], coeffs = j, [field.zero] * n
                coeffs[i], coeffs[j] = field.one, field.coerce(-1)
                rows.read(j)  # combine's terms are stored reduced
                rows.rows[i], row = rows.combine(coeffs)
            elif j is not None:
                rows.rows[i], rows.rows[j] = rows.rows[j], rows.rows[i]
                moves[i], moves[j] = moves[j], moves[i]
                row = rows.read(i)
        out.append(tuple(row))
        if row[i]:
            rows.substitute(i)
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
    # seq_program's steps, built here so that only the full program below
    # checks them.
    steps = [Assignment(i, row) for i, row in enumerate(M.rows)]
    one, zero = field.one, field.zero
    for i in range(n - 2, -1, -1):
        j = coding.fixups[i]
        if j is not None:
            coeffs = [zero] * n
            coeffs[i] = one
            coeffs[j] = one
            steps.append(Assignment(i, tuple(coeffs)))
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

    Step i of P's in-place program replaces row i of the running
    coefficient matrix C and no later step touches it, so if
    seq_matrix(P) = M then, just before step i, the rows of C are M's
    rows 0..i-1 followed by the unit rows e_i..e_(n-1), whatever P's
    earlier rows are.  Row i of P is therefore any (y, z) with
    y * M[:i, :i] = M[i, :i] and z = M[i, i:] - y * M[:i, i:].  The
    solutions y differ by the left null space of M[:i, :i], so the first
    y is the one that is 0 at the leading (lowest nonzero) position of
    every vector of that null space.

    One forward pass finds every row's first y.  It works on augmented
    rows a = [w | w * M] of width 2n, where w is the combination of M's
    rows, packed in the row backend of the field, and keeps two
    structures of row indices before row i:

    * live: one row per leading position of its w part, together a
      basis of the left null space of M[:i, :i]; their w * M part is 0
      on every column below i.
    * pivots: in column order, the row that cleared column c; its
      w * M part is 0 on the columns below c and nonzero at c.

    Row i starts as [e_i | M[i]], packed only when the pass reaches it
    (an input refused at row i packs i + 1 rows), and is cleared by
    pivots in column order, which leaves M[i, :i] - y * M[:i, :i] = 0
    exactly when a solution exists, then by live in ascending lead
    order, which zeroes y at every lead.  Then it is read and joins
    live, and column i leaves: among the live rows reading it, the one
    with the largest lead clears it from the others (their leads stay
    put) and moves to pivots.  Every row is read after its last clear,
    so each row that clears another is reduced (see the matrix module).
    O(n^3) entry operations, no guard.
    """
    field = M.field
    p = field.modulus
    if p is None:
        raise PreconditionError("preimage search needs a finite field")
    n = M.n
    rows = row_backend(field, n, 2 * n)
    pivots, live, found = [], {}, []
    for i, e in enumerate(Matrix.identity(n, field).rows):
        rows.rows[i] = rows.pack(e + M.rows[i])
        for k, j in pivots + sorted(live.items()):
            if rows.coeff(i, k):
                rows.clear(i, k, j)
        a = rows.read(i)
        if any(a[n : n + i]):
            return None
        found.append(tuple([-x % p for x in a[:i]] + a[n + i :]))
        live[next(k for k, x in enumerate(a) if x)] = i
        readers = [lead for lead in sorted(live) if rows.coeff(live[lead], n + i)]
        if readers:
            j = live.pop(readers[-1])
            for lead in readers[:-1]:
                rows.clear(live[lead], n + i, j)
                rows.read(live[lead])
            pivots.append((n + i, j))
    return Matrix(field, tuple(found))
