"""Regular sequential constructors.

regularize(M) rewrites a GF(2) matrix into a regular matrix (all ones on
the diagonal) whose in-place interpretation agrees with M off the
diagonal.  The procedure walks rows top to bottom: at row i it clears
the diagonal entry, adds the cleared row into every later row that reads
column i, then sets the diagonal entry to 1.

regularize_packed runs the procedure on the matrix's word, the whole
matrix in one int (entry (k, t) at bit k*n + t; see pack_gf2_rows).
Step i is a few big-int operations: the rows below i that read column i
are selected as one bit each, at k*n, and one multiply places row i,
its diagonal bit cleared, on each of them for one XOR to add in.  Row i
is below 2**n, so the product never carries into the next row.  No step
reads a diagonal bit (step i masks its own out and reads only column i
of later rows), so one OR at the end sets the finished rows' diagonals,
and the last row's step needs nothing else.  regularize_plan holds the
masks of the first k steps: k < n gives the working matrix after step k
(the regularize_trace snapshots), and extra rows below the matrix get
the same updates (census lets the fiber's unit rows ride along).  The
step is the kernel's GF(2) substitution update (_GF2Rows.substitute in
the matrix module), written out here on the word so orbits and census
pay no backend calls.

regularize_general extends this to any field and any prescribed diagonal
of invertible entries, using the substitution update with pivot
units[i].  It is the "units" policy of the elimination kernel in the
sequentialize module, on the packed rows of the matrix module.
"""

from __future__ import annotations

from .errors import PreconditionError
from .fields import FieldSpec
from .matrix import Matrix, Vector, pack_gf2_rows, require_gf2, unpack_gf2_rows
from .sequentialize import eliminate


def regularize_plan(n: int, rows: int | None = None, steps: int | None = None) -> tuple:
    """Masks for steps 1..steps of the procedure on a word holding `rows`
    rows of width n (both default to n): (shift, keep, column, below) for
    each step with a row below it, and the diagonal bits of the finished rows."""
    rows = n if rows is None else rows
    steps = n if steps is None else steps
    full = (1 << n) - 1
    ones = ((1 << rows * n) - 1) // full  # bit k*n of every row k
    masks = tuple(
        (i * n, full ^ (1 << i), i, (ones >> (i + 1) * n) << (i + 1) * n)
        for i in range(min(steps, rows - 1))
    )
    return masks, ((1 << steps * (n + 1)) - 1) // ((1 << n + 1) - 1)


def regularize_packed(word: int, plan: tuple) -> int:
    """The word after the steps of plan (see regularize_plan)."""
    masks, diag = plan
    for shift, keep, i, below in masks:
        word ^= ((word >> i) & below) * ((word >> shift) & keep)
    return word | diag


def regularize(M: Matrix) -> Matrix:
    """Regular GF(2) constructor: result is regular and its seq_matrix is
    similar to M (equal off the diagonal)."""
    require_gf2(M, "regularize")
    return unpack_gf2_rows(regularize_packed(pack_gf2_rows(M), regularize_plan(M.n)), M.n)


def regularize_trace(M: Matrix) -> list[Matrix]:
    """Working-matrix snapshots after each step i = 1..n; the last is the result."""
    require_gf2(M, "regularize")
    n = M.n
    word = pack_gf2_rows(M)
    return [unpack_gf2_rows(regularize_packed(word, regularize_plan(n, n, k)), n)
            for k in range(1, n + 1)]


def regularize_general(M: Matrix, units: Vector) -> Matrix:
    """Constructor with prescribed diagonal: D[i][i] = units[i] (all invertible)
    and seq_matrix(D) similar to M.

    At step i the emitted row is the current row i with its diagonal
    entry replaced by units[i]; later rows reading column i are patched
    by the substitution update with pivot units[i].
    """
    field: FieldSpec = M.field
    n = M.n
    if units.field != field or len(units) != n:
        raise PreconditionError("units must be a length-n vector over the matrix field")
    if any(not u for u in units.entries):
        raise PreconditionError("every prescribed diagonal entry must be invertible (nonzero)")

    rows, _ = eliminate(M, "units", units.entries)
    return Matrix(field, rows)
