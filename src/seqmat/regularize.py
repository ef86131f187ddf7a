"""Regular sequential constructors.

regularize(M) rewrites a GF(2) matrix into a regular matrix (all ones on
the diagonal) whose in-place interpretation agrees with M off the
diagonal.  The procedure walks rows top to bottom: at row i it clears
the diagonal entry, adds the cleared row into every later row that reads
column i, then sets the diagonal entry to 1.  regularize_packed runs its
first k steps on bit-packed rows; it is the hot loop of the dynamics
module, and regularize_trace reads its snapshots off the prefixes k = 1..n.
The step is the kernel's GF(2) substitution update (_GF2Rows.substitute
in the matrix module), written out here so census pays no backend calls.

regularize_general extends this to any field and any prescribed diagonal
of invertible entries, using the substitution update with pivot
units[i].  It is the "units" policy of the elimination kernel in the
sequentialize module, on the packed rows of the matrix module.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import PreconditionError
from .fields import FieldSpec
from .matrix import Matrix, Vector, pack_gf2_rows, require_gf2, unpack_gf2_rows
from .sequentialize import eliminate


def regularize_packed(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Steps 1..n of the GF(2) procedure on bit-packed rows (one word XOR
    per row update); the updates reach every row, so n = len(rows) is the
    whole procedure and a smaller n the working matrix after step n."""
    out = list(rows)
    size = len(out)
    for i in range(n):
        bit = 1 << i
        ri = out[i] & ~bit
        for k in range(i + 1, size):
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
    """Working-matrix snapshots after each step i = 1..n; the last is the result."""
    require_gf2(M, "regularize")
    n = M.n
    packed = pack_gf2_rows(M)
    return [unpack_gf2_rows(regularize_packed(packed, i), n) for i in range(1, n + 1)]


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
