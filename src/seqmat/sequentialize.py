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
* preimage_search: brute force, asking whether any matrix has an
  in-place interpretation equal to the ordinary interpretation of the
  target.

Both compilers, and regularize_general in the regularize module, are one
elimination kernel, eliminate, with different pivot policies.  It keeps
the working rows in the packed backend of their field (see the matrix
module).  Its output is bit-identical to the entrywise field-method
elimination, which the tests keep as its reference.  Everything is
checked against the program_symbolic oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import GuardError, PreconditionError
from .matrix import (
    Assignment,
    Matrix,
    StraightLineProgram,
    Vector,
    row_backend,
    seq_program,
)


@dataclass(frozen=True)
class InSituCoding:
    """Compact form of a sequentialization: the matrix whose in-place
    program is the first n steps, plus one optional fix-up partner per row.

    fixups[i] is the 0-based row j > i whose value repairs row i at the
    end, or None when row i needs no fix-up.  The last row never has one.
    """

    matrix: Matrix
    fixups: tuple[int | None, ...]

    def __post_init__(self) -> None:
        n = self.matrix.n
        if len(self.fixups) != n:
            raise PreconditionError("need one fix-up slot per row")
        for i, j in enumerate(self.fixups):
            if j is None:
                continue
            if not i < j < n:
                raise PreconditionError(
                    f"fix-up partner for row {i + 1} must lie strictly below it"
                )
        if self.fixups[n - 1] is not None:
            raise PreconditionError("the last row cannot have a fix-up partner")

    @property
    def fixups_one_based(self) -> tuple[int, ...]:
        """The external form: 0 for no fix-up, else the 1-based partner."""
        return tuple(0 if j is None else j + 1 for j in self.fixups)

    @classmethod
    def from_one_based(cls, matrix: Matrix, values) -> "InSituCoding":
        return cls(matrix, tuple(None if v == 0 else v - 1 for v in values))


@dataclass(frozen=True)
class PermCoding:
    """Compact form of the row-exchange method: matrix plus the permutation
    mapping each output position to the input row it realizes."""

    matrix: Matrix
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(self.matrix.n)):
            raise PreconditionError("perm must be a permutation of the row indices")

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


#: Default enumeration budget: all GF(2) matrices up to 4 x 4.
PREIMAGE_MAX_CANDIDATES = 1 << 16


def preimage_search(M: Matrix, *, max_candidates: int = PREIMAGE_MAX_CANDIDATES):
    """First matrix P (row-major lexicographic order on canonical entries)
    with seq_matrix(P) = M, or None when no such matrix exists.

    The scan prunes by prefix: after its own assignment, row i of the
    running coefficient matrix is final, so candidate prefixes whose
    coefficient row already disagrees with M are skipped along with all
    their extensions.  Hits, and their order, are exactly those of the
    plain |K|**(n*n) enumeration.
    """
    field = M.field
    if not field.is_finite:
        raise PreconditionError("preimage search needs a finite field")
    n = M.n
    # order**(n*n) >= 2**(n*n*(bits-1)), so the bit-length test refuses
    # huge spaces without computing their size.
    if (
        n * n * (field.order.bit_length() - 1) >= max_candidates.bit_length()
        or field.order ** (n * n) > max_candidates
    ):
        raise GuardError(
            f"preimage space {field.order}**{n * n} exceeds "
            f"max_candidates={max_candidates}; raise the limit to force"
        )
    target = row_backend(M).rows
    elements = tuple(field.elements())
    running = row_backend(Matrix.identity(n, field))
    coeff_rows = running.rows
    chosen: list[tuple] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        saved = coeff_rows[i]
        for combo in product(elements, repeat=n):
            produced = running.combine(combo)
            if produced == target[i]:
                coeff_rows[i] = produced
                chosen.append(combo)
                if extend(i + 1):
                    return True
                chosen.pop()
                coeff_rows[i] = saved
        return False

    if extend(0):
        return Matrix(field, tuple(chosen))
    return None
