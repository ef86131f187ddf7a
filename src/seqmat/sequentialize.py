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
the working rows in a backend chosen from the field's modulus:

* GF(2): each row is one int, bit t holding entry t.  A row update is
  one XOR with the pivot row minus its diagonal bit.
* GF(p), p odd: each row is one int of n slots, entry t in slot t
  (Kronecker substitution).  A row update ``row_k += c * base`` is one
  big-int multiply-add over the whole row.  Slots are left unreduced and
  are reduced mod p only where they are read: an emitted row, a fix-up
  subtraction, a pivot, a coefficient c.  A slot holds a canonical
  entry below p plus at most n-1 updates of c*b <= (p-1)**2 each before
  its row is emitted, so it stays below n*p*p; with a slot width of
  (n*p*p).bit_length() bits, rounded up to whole bytes, no slot carries
  into the next.
* Q: each row is a list N of int numerators over one positive int
  denominator d, kept reduced (gcd(d, *N) == 1).  For the emitted row
  Nr/dr with pivot numerator a = Nr[i], and B = -Nr except
  B[i] = dr - a, the update of row k is
  ``N_k <- |a|*N_k + sign(a)*N_k[i]*B``, ``d_k <- |a|*d_k``, followed
  by one division by gcd(d_k, *N_k).  Reducing after every update keeps
  d_k at the lcm of the row's denominators instead of letting it collect
  one factor |a| per pivot above it; and since the reduced pair is
  unique, read gives the same canonical Fractions as entrywise
  arithmetic.

The kernel's output is bit-identical to the entrywise field-method
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
    _combine,
    _q_pack,
    _q_reduce,
    _q_unpack,
    pack_gf2_rows,
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


class _GF2Rows:
    """Row k is one int, bit t holding entry (k, t); an update is one XOR."""

    def __init__(self, M: Matrix) -> None:
        self.n = M.n
        self.rows = list(pack_gf2_rows(M))

    def read(self, i: int) -> list:
        r = self.rows[i]
        return [(r >> t) & 1 for t in range(self.n)]

    def coeff(self, k: int, i: int) -> int:
        return (self.rows[k] >> i) & 1

    def substitute(self, i: int, row: list) -> None:
        # The pivot is 1, so base = -row + e_i is row with bit i cleared.
        bit = 1 << i
        base = sum(1 << t for t, v in enumerate(row) if v) & ~bit
        rows = self.rows
        for k in range(i + 1, self.n):
            if rows[k] & bit:
                rows[k] ^= base


class _GFpRows:
    """Row k is one int of n slots, `size` bytes each, slot t holding entry
    (k, t) as an unreduced nonnegative sum; an update is one big-int
    multiply-add.  Slots are reduced mod p only where they are read."""

    def __init__(self, M: Matrix) -> None:
        n, p = M.n, M.field.modulus
        self.n, self.p = n, p
        # A row is read at the latest after n-1 updates, each adding
        # c*b <= (p-1)**2 to every slot on top of an entry < p; that sum
        # stays below n*p*p, so no slot carries into the next.
        self.size = -(-(n * p * p).bit_length() // 8)
        self.mask = (1 << 8 * self.size) - 1
        self.rows = [self._pack(r) for r in M.rows]

    def _pack(self, entries) -> int:
        size = self.size
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in entries), "little")

    def read(self, i: int) -> list:
        size, p = self.size, self.p
        raw = self.rows[i].to_bytes(self.n * size, "little")
        return [int.from_bytes(raw[o:o + size], "little") % p for o in range(0, len(raw), size)]

    def coeff(self, k: int, i: int) -> int:
        return ((self.rows[k] >> (8 * self.size * i)) & self.mask) % self.p

    def substitute(self, i: int, row: list) -> None:
        p = self.p
        pivot = row[i]
        pivot_inv = pow(pivot, -1, p)
        base = [-v % p for v in row]
        base[i] = (1 - pivot) % p
        packed = self._pack(base)
        shift, mask, rows = 8 * self.size * i, self.mask, self.rows
        for k in range(i + 1, self.n):
            c = ((rows[k] >> shift) & mask) % p
            if c:
                rows[k] += c * pivot_inv % p * packed


class _RationalRows:
    """Row k is a reduced pair (N, d) of int numerators over one positive
    denominator (see matrix._q_pack); an update is one pass over N and
    one gcd reduction."""

    def __init__(self, M: Matrix) -> None:
        self.n = M.n
        self.rows = [_q_pack(r) for r in M.rows]

    def read(self, i: int) -> list:
        return list(_q_unpack(*self.rows[i]))

    def coeff(self, k: int, i: int) -> int:
        # A numerator is zero exactly when its entry is.
        return self.rows[k][0][i]

    def substitute(self, i: int, row: list) -> None:
        # With row = Nr/dr, pivot a/dr (a = Nr[i]) and row_k = N/d, the
        # update row_k += (N[i]/d) * (dr/a) * (e_i - row) is
        # (a*N + N[i]*B) / (a*d) for B = dr*e_i - Nr; multiplying through
        # by sign(a) keeps the denominator positive.
        Nr, dr = _q_pack(row)
        a = Nr[i]
        sign = 1 if a > 0 else -1
        base = [-sign * v for v in Nr]
        base[i] = sign * (dr - a)
        scale, rows = abs(a), self.rows
        for k in range(i + 1, self.n):
            N, d = rows[k]
            c = N[i]
            if c:
                rows[k] = _q_reduce([scale * x + c * b for x, b in zip(N, base)], scale * d)


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
    if field.modulus == 2:
        rows = _GF2Rows(M)
    elif field.modulus is not None:
        rows = _GFpRows(M)
    else:
        rows = _RationalRows(M)
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
    target = M.rows
    elements = tuple(field.elements())
    coeff_rows = list(Matrix.identity(n, field).rows)
    chosen: list[tuple] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        saved = coeff_rows[i]
        for combo in product(elements, repeat=n):
            produced = _combine(field, combo, coeff_rows, n)
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
