"""Regular sequential constructors.

regularize(M) rewrites a GF(2) matrix into a regular matrix (all ones on
the diagonal) whose in-place interpretation agrees with M off the
diagonal.  The procedure walks rows top to bottom: at row i it clears
the diagonal entry, adds the cleared row into every later row that reads
column i, then sets the diagonal entry to 1.  regularize_packed runs it
on bit-packed rows; it is the hot loop of the dynamics module.

regularize_general extends this to any field and any prescribed diagonal
of invertible entries, using the substitution update with pivot
units[i].  It is the "units" policy of the elimination kernel in the
sequentialize module, on the packed rows of the matrix module.
regularize_trace restates the GF(2) procedure entrywise so its
step-by-step snapshots are directly comparable against known worked
runs.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import PreconditionError
from .fields import FieldSpec
from .matrix import Matrix, Vector, pack_gf2_rows, require_gf2, unpack_gf2_rows
from .sequentialize import eliminate


def regularize_packed(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """The GF(2) procedure on bit-packed rows (word XOR per row update)."""
    out = list(rows)
    for i in range(n):
        bit = 1 << i
        ri = out[i] & ~bit
        for k in range(i + 1, n):
            if out[k] & bit:
                out[k] ^= ri
        out[i] = ri | bit
    return tuple(out)


def regularize(M: Matrix) -> Matrix:
    """Regular GF(2) constructor: result is regular and its seq_matrix is
    similar to M (equal off the diagonal)."""
    require_gf2(M, "regularize")
    return unpack_gf2_rows(regularize_packed(pack_gf2_rows(M), M.n), M.n)


def regularize_trace(M: Matrix) -> list[Matrix]:
    """Working-matrix snapshots after each step i = 1..n; the last is the result.

    Entrywise re-statement of the packed procedure, kept separate so the
    two implementations check each other.
    """
    require_gf2(M, "regularize")
    n = M.n
    rows = [list(r) for r in M.rows]
    snaps = []
    for i in range(n):
        rows[i][i] = 0
        ri = rows[i]
        for k in range(i + 1, n):
            rk = rows[k]
            if rk[i]:
                for t in range(n):
                    rk[t] ^= ri[t]
        rows[i][i] = 1
        snaps.append(Matrix(M.field, tuple(tuple(r) for r in rows)))
    return snaps


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
