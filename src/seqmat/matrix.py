"""Dense matrices, vectors, straight-line assignment programs.

Two interpretations of a square matrix live here: the usual linear map
(each output component computed from the untouched input vector) and the
in-place one, where row i is executed as the single assignment
``x_i := row_i . X`` against the current state, for i = 1..n.  The
in-place interpretation of M is itself a linear map; its matrix is
computed by program_symbolic / seq_matrix.

Entries are stored as raw canonical field values (ints / Fractions);
indices are 0-based in code, 1-based in all text formats.

Row arithmetic (program_symbolic, the elimination kernel of the
sequentialize module, and preimage_search) runs on packed rows, in the
backend row_backend picks from the field's modulus.  A backend holds n
rows of any width w (preimage_search packs n augmented rows of width 2n)
and starts with none of them packed: eliminate packs the input rows,
preimage_search packs each row when its step reaches it, and
program_symbolic starts on unit rows it never packs.  Every backend
reads a row back as canonical entries (read) and forms the canonical
row sum_t c_t * row_t, packed and as entries (combine), in which a row
still marked in the backend's units mask is the unit row e_t and enters
the sum as c_t itself, through one mask of the packed coefficients.  The
substitution update of eliminate works from the stored pivot row, the
row that eliminate emitted.  The GF(2) and GF(p) backends also clear
column k of row i with row j, row_i -= (row_i[k] / row_j[k]) * row_j
(clear):

* GF(2): row k is one int, bit t holding entry (k, t), read back w bits
  wide.  A sum is one XOR per nonzero coefficient; a substitution update
  is one XOR with the pivot row minus its diagonal bit; a clear is one
  XOR.  Placed side by side, row k at bit k*n, the rows of an n x n
  matrix make its word (pack_gf2_rows), on which the regularize module
  runs the update for all rows of a step at once.  Rows and words are
  packed and read through their base-2 text, one bytes.translate between
  entry bytes and digits.
* GF(p), p odd: row k is one int of w slots, entry (k, t) in slot t
  (Kronecker substitution).  A term c * row is one big-int multiply-add
  over the whole row.  A slot is the smallest unsigned array item (of
  1, 2, 4 or 8 bytes) that holds (n*p*p).bit_length() bits, n being the
  row count, or, past 64 bits, a whole number k of 8-byte words (p =
  2**63 - 25 takes k = 3 from n = 5); the width sets only the row's
  length in bytes.  So a row packs from an array of its entries in one
  int.from_bytes and reads back as one array of its slots; a k-word slot
  is reduced by Horner's rule over its words, 2**64 taken mod p.  A
  slot never carries into the next as long as its value stays below
  n*p*p.  A coefficient (k, i) is read by masking slots 0..i and
  shifting them down, not by shifting the whole row.  combine sums the
  masked coefficients (below p) and at most n terms of c*v <= (p-1)**2
  over rows of reduced slots (v < p) and reduces the sum slot by slot,
  so its rows stay reduced.  The substitution base -row_i + e_i is one
  subtraction from a row of slots p: slot t is p - row_i[t] and slot i
  is p + 1 - pivot, so a base slot can reach p and one update term is at
  most (p-1)*p.  The substitution update and clear are one multiply-add
  each and leave row i unreduced: a row holds entries below p plus at
  most n-1 updates of at most (p-1)*p before it is read, below n*p*p,
  and a slot is reduced mod p only where it is read: a row (read), a
  pivot, a coefficient (coeff).  read stores its row back reduced,
  because the substitution base, clear's row j and combine's terms are
  stored rows and need reduced slots: rows no update has touched since
  they were packed or read.
* Q: row k is a list N of int numerators over one positive int
  denominator d, kept reduced (gcd(d, *N) == 1).  The reduced pair is
  unique, d being the lcm of the entries' denominators, so equal rows
  have equal pairs and read gives the canonical Fractions of entrywise
  arithmetic.  A sum is kept over one running denominator and reduced
  once; a substitution update is one pass over N and one reduction,
  which keeps d at the lcm of the row's denominators instead of letting
  it collect one factor per pivot above the row.  The units mask has one
  bit per row, as over GF(2).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatchError, FieldMismatchError, PreconditionError
from .fields import GF2, FieldSpec, digit_limit_error
from .record import Record, set_field

# Entries 0..9 as bytes, to and from their digits: the text codec of the
# one-digit fields (Matrix.body_text) and of GF(2) rows and words.
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _bits_to_int(entries) -> int:
    """The int whose bit t is entries[t], each 0 or 1."""
    return int(bytes(entries)[::-1].translate(_TO_DIGITS), 2)


def _int_to_bits(word: int, width: int) -> bytes:
    """Bits 0 .. width - 1 of word as bytes 0 or 1, bit t at index t."""
    return format(word, f"0{width}b")[::-1].encode().translate(_FROM_DIGITS)


class Vector(Record):
    """Length-n vector of canonical raw values over one field."""

    __slots__ = ("field", "entries")

    def __init__(self, field: FieldSpec, entries: tuple) -> None:
        set_field(self, "field", field)
        set_field(self, "entries", entries)

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

    def __str__(self) -> str:
        return " ".join(self.field.format_scalar(v) for v in self.entries)


class Matrix(Record):
    """Square n x n matrix over one field, stored row-major."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FieldSpec, rows: tuple[tuple, ...]) -> None:
        set_field(self, "field", field)
        set_field(self, "rows", rows)

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
        # Row i is the n entries of line from n - 1 - i on: its one at i.
        line = (zero,) * (n - 1) + (one,) + (zero,) * (n - 1)
        return cls(field, tuple(line[n - 1 - i:2 * n - 1 - i] for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Vector:
        return Vector(self.field, self.rows[i])

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def body_text(self) -> str:
        p, n = self.field.modulus, self.n
        if p is not None and p <= 10:
            # One digit per entry: the entries go to every other byte of a
            # buffer of separators, which is then translated to digits.
            text = bytearray(b" ") * (2 * n * n)
            text[::2] = b"".join(map(bytes, self.rows))
            text[2 * n - 1::2 * n] = b"\n" * n
            return text[:-1].translate(_TO_DIGITS).decode()
        try:
            return "\n".join([" ".join(map(str, row)) for row in self.rows])
        except ValueError:
            raise digit_limit_error() from None

    def __str__(self) -> str:
        return self.body_text()


class Assignment(Record):
    """One program step: ``x_target := coeffs . X`` against the current X,
    coeffs being the tuple of canonical coefficients of the program's field."""

    __slots__ = ("target", "coeffs")

    def __init__(self, target: int, coeffs: tuple) -> None:
        set_field(self, "target", target)
        set_field(self, "coeffs", coeffs)


class StraightLineProgram(Record):
    """Ordered single-target linear assignments, executed in place on n
    variables: each step targets one of range(n) and has n coefficients,
    each canonical in the field (an int in range(p) over GF(p), a
    Fraction over Q)."""

    __slots__ = ("field", "n", "steps")

    def __init__(self, field: FieldSpec, n: int, steps: tuple[Assignment, ...]) -> None:
        p = field.modulus
        for k, step in enumerate(steps):
            coeffs = step.coeffs
            if not 0 <= step.target < n:
                raise PreconditionError(f"step {k} targets {step.target}, outside range({n})")
            if len(coeffs) != n:
                raise DimensionMismatchError(f"step {k} has {len(coeffs)} coefficients, not {n}")
            if not ({*map(type, coeffs)} <= {Fraction} if p is None else
                    0 <= min(coeffs) and max(coeffs) < p):
                raise PreconditionError(f"step {k} has a coefficient not canonical in {field}")
        set_field(self, "field", field)
        set_field(self, "n", n)
        set_field(self, "steps", steps)

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


# -- the two interpretations --------------------------------------------


def parallel_apply(M: Matrix, X: Vector) -> Vector:
    """The ordinary linear map: (row_1 . X, ..., row_n . X); X is untouched."""
    _check_pair(M.field, X.field, M.n, len(X))
    field = M.field
    return Vector(field, tuple(_dot(field, row, X.entries) for row in M.rows))


def seq_program(M: Matrix) -> StraightLineProgram:
    """The n-step program executing each row in place: step i is ``x_i := row_i . X``."""
    field = M.field
    steps = tuple(Assignment(i, row) for i, row in enumerate(M.rows))
    return StraightLineProgram(field, M.n, steps)


def program_apply(P: StraightLineProgram, X: Vector) -> Vector:
    """Run P on a single state vector; only the state and one accumulator are live."""
    _check_pair(P.field, X.field, P.n, len(X))
    field = P.field
    state = list(X.entries)
    for step in P.steps:
        state[step.target] = _dot(field, step.coeffs, state)
    return Vector(field, tuple(state))


def seq_apply(M: Matrix, X: Vector) -> Vector:
    """The in-place image of X by M: run M's rows as assignments in order."""
    return program_apply(seq_program(M), X)


def program_symbolic(P: StraightLineProgram) -> Matrix:
    """The matrix C with parallel_apply(C, X) = program_apply(P, X) for all X.

    Tracks coefficients: C starts as the identity and each step
    (target t, coeffs R) replaces row C_t by the product R . C, one
    combine of the field's packed rows.  The identity is never packed:
    the rows no step has targeted yet enter combine as its unit rows, and
    C is built from the entries combine returns.  This is the single
    correctness oracle the compilation modules are checked against.
    """
    rows = row_backend(P.field, P.n, P.n)
    out = list(Matrix.identity(P.n, P.field).rows)
    for step in P.steps:
        t = step.target
        rows.rows[t], out[t] = rows.combine(step.coeffs)
        rows.units &= ~(rows.mask << rows.bits * t)
    return Matrix(P.field, tuple(map(tuple, out)))


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


# -- GF(2) words ------------------------------------------------------------


def pack_gf2_rows(M: Matrix) -> int:
    """M as one int, its word: bit k*n + t holds entry (k, t), so row k is
    bits k*n .. k*n + n - 1 (the GF(2) backend's rows, side by side)."""
    require_gf2(M, "bit packing")
    return _bits_to_int(b"".join(map(bytes, M.rows)))


def unpack_gf2_rows(word: int, n: int) -> Matrix:
    """The n x n matrix of a word."""
    raw = _int_to_bits(word, n * n)
    return Matrix(GF2, tuple(tuple(raw[k * n:k * n + n]) for k in range(n)))


# -- packed row backends (see the module docstring) ---------------------------------


#: Unsigned array typecodes by item size in bytes, ascending (C's integer
#: types never shrink from char to long long): the slot types of _GFpRows.
_SLOT_TYPES = {array(code).itemsize: code for code in "BHILQ"}
_BIG_ENDIAN = sys.byteorder == "big"


class _PackedRows:
    """n rows of width entries of one field, packed in the form of the field.

    A backend starts with no row packed: rows[k] is 0 until the caller
    stores row k packed, pack(entries) packing a row of canonical entries.
    read(i) is row i as a list of canonical entries; coeff(k, i) is
    nonzero iff entry (k, i) is; substitute(i) is the elimination
    kernel's update of every row below row i by the stored row i (see
    sequentialize.eliminate).  Over GF(2) and GF(p), clear(i, k, j)
    clears column k of row i with row j: row_i -= (row_i[k] / row_j[k]) *
    row_j, for nonzero entries (i, k) and (j, k).  combine(coeffs), on a
    square backend, is the canonical row sum_k coeffs[k] * row_k, packed
    and as entries, where row k is the unit row e_k while slot k of units
    is all ones and the stored row k once the caller clears that slot.
    """

    #: Bits per slot of the units mask, and a slot of ones: GF(2) and Q
    #: take one bit per row, GF(p) a whole slot of its packed rows.
    bits = mask = 1

    def __init__(self, field: FieldSpec, n: int, width: int) -> None:
        self.field, self.n, self.width = field, n, width
        self.rows, self.units = [0] * n, (1 << self.bits * n) - 1


class _GF2Rows(_PackedRows):
    pack = staticmethod(_bits_to_int)

    def read(self, i: int) -> list:
        return list(_int_to_bits(self.rows[i], self.width))

    def coeff(self, k: int, i: int) -> int:
        return (self.rows[k] >> i) & 1

    def combine(self, coeffs) -> tuple[int, bytes]:
        acc = self.pack(coeffs) & self.units
        for c, r in zip(coeffs, self.rows):
            if c and r:
                acc ^= r
        return acc, _int_to_bits(acc, self.width)

    def substitute(self, i: int) -> None:
        # The pivot is 1, so base = -row_i + e_i is row_i with bit i cleared.
        bit = 1 << i
        base = self.rows[i] & ~bit
        rows = self.rows
        for k in range(i + 1, self.n):
            if rows[k] & bit:
                rows[k] ^= base

    def clear(self, i: int, k: int, j: int) -> None:
        self.rows[i] ^= self.rows[j]


class _GFpRows(_PackedRows):
    def __init__(self, field: FieldSpec, n: int, width: int) -> None:
        p = self.p = field.modulus
        need = -(-(n * p * p).bit_length() // 8)
        size = next((s for s in _SLOT_TYPES if s >= need), 8 * -(-need // 8))
        self.code = _SLOT_TYPES.get(size, "Q")
        self.words, self.word_mod = -(-size // 8), (1 << 64) % p
        self.bits, self.nbytes = 8 * size, width * size
        self.mask = (1 << self.bits) - 1
        self.top = p * (((1 << self.bits * width) - 1) // self.mask)  # every slot p
        super().__init__(field, n, width)

    def pack(self, entries) -> int:
        k = self.words
        if k == 1:
            items = array(self.code, entries)
        else:
            items = array(self.code, bytes(self.nbytes))
            items[::k] = array(self.code, entries)
        if _BIG_ENDIAN:
            items.byteswap()
        return int.from_bytes(items, "little")

    def _reduce(self, packed: int) -> list:
        items = array(self.code, packed.to_bytes(self.nbytes, "little"))
        if _BIG_ENDIAN:
            items.byteswap()
        k, p = self.words, self.p
        if k == 1:
            return [v % p for v in items]
        # A slot of k words, low word first, by Horner's rule from its high
        # word, with 2**64 taken mod p.
        r = self.word_mod
        slots = items[k - 1::k]
        for j in range(k - 2, 0, -1):
            slots = [v * r + w for v, w in zip(slots, items[j::k])]
        return [(v * r + w) % p for v, w in zip(slots, items[::k])]

    def read(self, i: int) -> list:
        # Stored back reduced: substitute, clear and combine use stored rows.
        row = self._reduce(self.rows[i])
        self.rows[i] = self.pack(row)
        return row

    def coeff(self, k: int, i: int) -> int:
        # Masking slots 0..i first shifts i + 1 slots, not the whole row.
        return ((self.rows[k] & ((1 << self.bits * (i + 1)) - 1)) >> self.bits * i) % self.p

    def combine(self, coeffs) -> tuple[int, list]:
        # The unit rows' terms are the masked coefficients, below p, and
        # the stored rows are reduced (see the module docstring).
        acc = self.pack(coeffs) & self.units
        for c, r in zip(coeffs, self.rows):
            if c and r:
                acc += c * r
        entries = self._reduce(acc)
        return self.pack(entries), entries

    def substitute(self, i: int) -> None:
        # Row i is stored reduced, so base slot t is p - row_i[t] and slot i
        # p + 1 - pivot: -row_i + e_i with every slot in 1..p.
        p, shift, rows = self.p, self.bits * i, self.rows
        pivot_inv = pow(self.coeff(i, i), -1, p)
        base = self.top + (1 << shift) - rows[i]
        low = (1 << shift + self.bits) - 1
        for k in range(i + 1, self.n):
            c = ((rows[k] & low) >> shift) % p
            if c:
                rows[k] += c * pivot_inv % p * base

    def clear(self, i: int, k: int, j: int) -> None:
        # Row j must be reduced (see the module docstring).
        rows = self.rows
        rows[i] += -self.coeff(i, k) * pow(self.coeff(j, k), -1, self.p) % self.p * rows[j]


class _RationalRows(_PackedRows):
    @staticmethod
    def pack(entries) -> tuple[list[int], int]:
        """Fractions as a reduced (N, d): d is the lcm of their denominators.

        The pair is already reduced: for each prime q dividing d, some entry's
        denominator holds the whole power of q in d, and q divides neither
        that entry's numerator nor d over its denominator, so not its N[t].
        """
        d = lcm(*(v.denominator for v in entries))
        return [v.numerator * (d // v.denominator) for v in entries], d

    @staticmethod
    def _reduce(N: list[int], d: int) -> tuple[list[int], int]:
        """(N, d) divided by gcd(d, *N); d must be positive."""
        g = gcd(d, *N)
        if g == 1:
            return N, d
        return [v // g for v in N], d // g

    def read(self, i: int) -> list:
        N, d = self.rows[i]
        return [Fraction(v, d) for v in N]

    def coeff(self, k: int, i: int) -> int:
        # A numerator is zero exactly when its entry is.
        return self.rows[k][0][i]

    def combine(self, coeffs) -> tuple[tuple[list[int], int], list]:
        # The sum starts from the unit rows' terms, the masked coefficients
        # over their lcm D, and is kept over one running denominator: a
        # term c*N_k/d_k has denominator q = den(c)*d_k, so D grows to
        # lcm(D, q) and the sum so far is multiplied by lcm(D, q)/D.  The
        # sum is reduced once, after the last term.
        acc, D = self.pack(coeffs)
        acc = list(map(mul, acc, _int_to_bits(self.units, self.width)))
        for c, r in zip(coeffs, self.rows):
            if c and r:
                N, d = r
                q = c.denominator * d
                g = gcd(D, q)
                scale, m = q // g, c.numerator * (D // g)
                acc = [scale * x + m * y for x, y in zip(acc, N)]
                D *= scale
        N, d = self._reduce(acc, D)
        return (N, d), [Fraction(v, d) for v in N]

    def substitute(self, i: int) -> None:
        # With row i = Nr/dr, pivot a/dr (a = Nr[i]) and row_k = N/d, the
        # update row_k += (N[i]/d) * (dr/a) * (e_i - row_i) is
        # (a*N + N[i]*B) / (a*d) for B = dr*e_i - Nr; multiplying through
        # by sign(a) keeps the denominator positive.
        Nr, dr = self.rows[i]
        a = Nr[i]
        sign = 1 if a > 0 else -1
        base = [-sign * v for v in Nr]
        base[i] = sign * (dr - a)
        scale, rows = abs(a), self.rows
        for k in range(i + 1, self.n):
            N, d = rows[k]
            c = N[i]
            if c:
                rows[k] = self._reduce([scale * x + c * b for x, b in zip(N, base)], scale * d)


def row_backend(field: FieldSpec, n: int, width: int) -> _PackedRows:
    """An empty backend for n rows of width entries of field (see the
    module docstring)."""
    p = field.modulus
    if p == 2:
        return _GF2Rows(field, n, width)
    return _RationalRows(field, n, width) if p is None else _GFpRows(field, n, width)
