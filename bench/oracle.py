"""Output checks that share no code with seqmat.

Everything here reads seqmat's *text* output with its own parser and
checks it against the input with its own arithmetic:

* GF(2) dynamics: ``phi`` on bit-packed rows (the inverse of the
  regularize map, so a cycle walk with it visits the same cycles) and an
  exhaustive census built on it; ``make_expected.py`` pins their results.
* Compiled programs and codings: fingerprints.  A linear claim ``A == B``
  is checked as ``A x == B x`` on random vectors ``x`` over ``Z_q``,
  where q is the field's prime, or the prime 2**61 - 1 for rationals
  (entries ``a/b`` map to ``a * b^-1 mod q``).  Over GF(2) each vector
  entry is a 128-bit word holding 128 independent random vectors.
"""

from __future__ import annotations

import random
import zlib

#: Fingerprint prime for rational outputs.
P61 = (1 << 61) - 1


class Unverifiable(Exception):
    """A rational denominator is divisible by the fingerprint prime."""


# -- GF(2) dynamics on bit-packed rows ----------------------------------------
#
# Row i of a matrix is an int whose bit j is entry (i, j).


def phi_packed(rows, n):
    """seq_matrix with the diagonal forced to ones: the inverse of regularize."""
    coeff = [1 << t for t in range(n)]
    for i in range(n):
        r, acc, t = rows[i], 0, 0
        while r:
            if r & 1:
                acc ^= coeff[t]
            r >>= 1
            t += 1
        coeff[i] = acc
    return tuple(c | (1 << i) for i, c in enumerate(coeff))


def cycle_length(rows, n):
    """Steps of phi until rows recur (regularize has the same cycles)."""
    cur, length = phi_packed(rows, n), 1
    while cur != rows:
        cur, length = phi_packed(cur, n), length + 1
    return length


def census_histogram(n):
    """{cycle length: matrices on cycles of that length} over regular n x n."""
    positions = [(i, j) for i in range(n) for j in range(n) if i != j]
    diag = tuple(1 << i for i in range(n))

    def rows_of(code):
        rows = list(diag)
        for b, (i, j) in enumerate(positions):
            if code >> b & 1:
                rows[i] |= 1 << j
        return tuple(rows)

    def code_of(rows):
        return sum(1 << b for b, (i, j) in enumerate(positions) if rows[i] >> j & 1)

    visited = bytearray(1 << len(positions))
    hist = {}
    for start in range(len(visited)):
        if visited[start]:
            continue
        first = rows_of(start)
        cur, length = first, 0
        while True:
            cur = phi_packed(cur, n)
            visited[code_of(cur)] = 1
            length += 1
            if cur == first:
                break
        hist[length] = hist.get(length, 0) + length
    return dict(sorted(hist.items()))


def gf2_text(rows, n):
    body = "\n".join(" ".join(str(r >> j & 1) for j in range(n)) for r in rows)
    return f"gf2\nn {n}\n{body}\n"


def gf2_rows(text):
    lines = text.split("\n")
    return tuple(sum(int(b) << j for j, b in enumerate(line.split())) for line in lines[2:] if line)


# -- text parsing into residues mod q -------------------------------------------


class _Field:
    """Residue map for one field descriptor; tracks the widest coefficient."""

    def __init__(self, descriptor):
        parts = descriptor.split()
        self.descriptor = descriptor
        self.rational = parts == ["rational"]
        if parts == ["gf2"]:
            self.q = 2
        elif len(parts) == 2 and parts[0] == "gfp":
            self.q = int(parts[1])
        elif self.rational:
            self.q = P61
        else:
            raise ValueError(f"unknown field descriptor {descriptor!r}")
        self.bits = 0

    def residue(self, token):
        num, _, den = token.partition("/")
        a = int(num)
        b = int(den) if den else 1
        if b < 1 or (den and not self.rational):
            raise ValueError(f"bad scalar {token!r}")
        self.bits = max(self.bits, abs(a).bit_length(), b.bit_length())
        if b % self.q == 0:
            raise Unverifiable(token)
        if b == 1:
            return a % self.q
        return a * pow(b, -1, self.q) % self.q


def _matrix(text, field=None):
    """(field, n, rows mod q) from a matrix file's text."""
    lines = [line for line in text.split("\n") if line.strip()]
    if field is None:
        field = _Field(lines[0].strip())
    elif lines[0].strip() != field.descriptor:
        raise ValueError(f"field changed: {lines[0]!r}")
    head = lines[1].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"bad dimension line {lines[1]!r}")
    n = int(head[1])
    rows = [[field.residue(tok) for tok in line.split()] for line in lines[2:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix is not n x n")
    return field, n, rows


def _program(text, field, n):
    """[(target, coefficient row mod q)] from a program listing."""
    steps = []
    for line in text.split("\n"):
        if not line:
            continue
        lhs, sep, expr = line.partition(" := ")
        if not sep or lhs[:1] != "x":
            raise ValueError(f"bad program line {line!r}")
        row = [0] * n
        toks = expr.split()
        if toks != ["0"]:
            if toks[0].startswith("-"):
                toks = ["-", toks[0][1:]] + toks[1:]
            else:
                toks = ["+"] + toks
            for sign, term in zip(toks[::2], toks[1::2]):
                coeff, star, var = term.rpartition("*")
                c = field.residue(coeff) if star else 1
                j = int(var[1:]) - 1
                if sign not in "+-" or var[:1] != "x" or row[j]:
                    raise ValueError(f"bad term {term!r} in {line!r}")
                row[j] = c if sign == "+" else -c % field.q
        steps.append((int(lhs[1:]) - 1, row))
    return steps


def _coding(text, field, n):
    """(rows, kind, 1-based values) from a coding file's text."""
    head, _, last = text.rstrip("\n").rpartition("\n")
    kind, _, values = last.partition(": ")
    _, _, rows = _matrix(head, field)
    nums = [int(v) for v in values.split()]
    if kind not in ("fixups", "perm") or len(nums) != n:
        raise ValueError(f"bad coding tail {last!r}")
    return rows, kind, nums


# -- fingerprint arithmetic --------------------------------------------------------


def _lin(q, coeffs, x):
    if q == 2:
        acc = 0
        for c, v in zip(coeffs, x):
            if c:
                acc ^= v
        return acc
    return sum([c * v for c, v in zip(coeffs, x) if c]) % q


def _matvec(q, rows, x):
    return [_lin(q, r, x) for r in rows]


def _run(q, steps, x):
    """Execute (target, row) assignments in place on x."""
    x = list(x)
    for t, row in steps:
        x[t] = _lin(q, row, x)
    return x


def _in_place(q, rows, x):
    return _run(q, list(enumerate(rows)), x)


def _vectors(q, n, rng):
    if q == 2:
        return [[rng.getrandbits(128) for _ in range(n)] for _ in range(2)]
    count = 8 if q < 1 << 16 else 2
    return [[rng.randrange(q) for _ in range(n)] for _ in range(count)]


def check_compile(source, outputs):
    """Check one compile call's text outputs against its input matrix text.

    outputs holds ``program`` and ``coding`` (fix-up method), ``perm_program``
    and ``perm_coding`` (row-exchange method), ``smatrix`` and, when the
    call ran it, ``regular``.  Returns (problem or None, counts).
    """
    field, n, M = _matrix(source)
    q = field.q
    field.bits = 0
    prog = _program(outputs["program"], field, n)
    C, kind, fix = _coding(outputs["coding"], field, n)
    perm_prog = _program(outputs["perm_program"], field, n)
    P, perm_kind, perm = _coding(outputs["perm_coding"], field, n)
    _, _, S = _matrix(outputs["smatrix"], field)
    D = _matrix(outputs["regular"], field)[2] if "regular" in outputs else None

    fixups = [(i, j - 1) for i, j in enumerate(fix) if j]
    s = [v - 1 for v in perm]
    counts = {
        "fixups": len(fixups),
        "swaps": sum(1 for i, v in enumerate(s) if v != i),
        "steps": len(prog) + len(perm_prog),
        "coeff_bits": field.bits,
    }
    if kind != "fixups" or perm_kind != "perm" or sorted(s) != list(range(n)):
        return "coding tails are not a fix-up list and a permutation", counts
    if any(not i < j < n for i, j in fixups):
        return "fix-up partner not below its row", counts
    if len(prog) != n + len(fixups) or prog[:n] != list(enumerate(C)):
        return "fix-up program does not start with the coding matrix rows", counts
    fix_steps = [(i, [int(t in (i, j)) for t in range(n)]) for i, j in reversed(fixups)]
    if prog[n:] != fix_steps:
        return "fix-up program tail does not match the fix-up list", counts
    if [t for t, _ in perm_prog] != list(range(n)):
        return "row-exchange program is not n steps in row order", counts
    if D is not None and any(D[i][i] != 1 for i in range(n)):
        return "regular constructor diagonal is not all ones", counts

    rng = random.Random(zlib.crc32(source.encode()))
    xs = _vectors(q, n, rng)
    residues = []
    for x in xs:
        Mx = _matvec(q, M, x)
        if _run(q, prog, x) != Mx:
            return "fix-up program does not compute M", counts
        if _run(q, perm_prog, x) != [Mx[v] for v in s]:
            return "row-exchange program does not compute the permuted rows of M", counts
        if _in_place(q, P, x) != [Mx[v] for v in s]:
            return "row-exchange coding does not compute the permuted rows of M", counts
        if _matvec(q, S, x) != _in_place(q, M, x):
            return "seq_matrix differs from the in-place map of M", counts
        if D is not None:
            residues.append([(a - b) % q for a, b in zip(_in_place(q, D, x), Mx)])
    # seq_matrix(D) and M agree off the diagonal iff r(x) = seq(D)x - Mx is
    # diag(d) x for some d, i.e. r_i(x) y_i == r_i(y) x_i for every pair.
    if D is not None:
        mul = (lambda a, b: a & b) if q == 2 else (lambda a, b: a * b % q)
        for k, x in enumerate(xs):
            y, rx, ry = xs[k - 1], residues[k], residues[k - 1]
            if any(mul(rx[i], y[i]) != mul(ry[i], x[i]) for i in range(n)):
                return "seq_matrix of the regular constructor is not similar to M", counts
    return None, counts
