"""Text formats: matrix and vector files, program listings, codings.

Matrix file (bit-exact round trip):
    line 1: field descriptor          gf2 | gfp <p> | rational
    line 2: n <dimension>
    next n lines: n whitespace-separated scalar literals

A vector file is the same with a single entry line.  A coding file is a
matrix file followed by one "fixups: r_1 ... r_n" line (0 = no fix-up,
otherwise the 1-based partner index) or one "perm: s_1 ... s_n" line
(1-based image of each index); format_coding and parse_coding convert
to and from the 0-based indices the codings hold.

Program listings print one assignment per line as
    x<i> := <c1>*x1 + ... + <cn>*xn
with zero terms omitted, coefficient 1 omitted, -1 rendered as a bare
sign, and "x<i> := 0" for an all-zero row.  Indices are 1-based.

Text is converted a row at a time.  Over GF(p) an entry line is checked
by one regular expression and read by int() per token; a line it
refuses, or a token past int()'s digit limit, goes token by token
through FieldSpec.parse_scalar, whose ParseError names the bad token.
A program step prints as one join of its terms, and a matrix body as
one join per row (Matrix.body_text, which prints one-digit residues
through one bytes.translate).  Text past Python's int-to-text limit
raises fields.digit_limit_error, the same GuardError everywhere.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .fields import FieldSpec, digit_limit_error, field_parse, parse_int
from .matrix import Matrix, StraightLineProgram, Vector
from .sequentialize import InSituCoding, PermCoding


def _content_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if line.strip()]


def _parse_header(lines: list[str]) -> tuple[FieldSpec, int]:
    if len(lines) < 2:
        raise ParseError("missing field/dimension header")
    field = field_parse(lines[0])
    parts = lines[1].split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(f"bad dimension line: {lines[1]!r}")
    n = parse_int(parts[1], "dimension")
    if n < 1:
        raise ParseError("dimension must be at least 1")
    return field, n


#: A whole line of the integer literals FieldSpec.parse_scalar reads over
#: GF(p), separated by the whitespace str.split splits on.
_INT_LINE_RE = re.compile(r"[+-]?\d+(?:\s+[+-]?\d+)*")


def _parse_entry_line(field: FieldSpec, n: int, line: str) -> tuple:
    tokens = line.split()
    if len(tokens) != n:
        raise ParseError(f"expected {n} entries, got {len(tokens)}: {line!r}")
    p = field.modulus
    if p is not None and _INT_LINE_RE.fullmatch(line):
        try:
            return tuple([int(tok) % p for tok in tokens])
        except ValueError:  # more digits than int() accepts; parse_scalar says so
            pass
    return tuple(field.parse_scalar(tok) for tok in tokens)


def parse_matrix(text: str) -> Matrix:
    lines = _content_lines(text)
    field, n = _parse_header(lines)
    if len(lines) != 2 + n:
        raise ParseError(f"expected {n} entry lines, got {len(lines) - 2}")
    rows = tuple(_parse_entry_line(field, n, line) for line in lines[2:])
    return Matrix(field, rows)


def format_matrix(M: Matrix) -> str:
    return f"{M.field.describe()}\nn {M.n}\n{M.body_text()}\n"


def parse_vector(text: str) -> Vector:
    lines = _content_lines(text)
    field, n = _parse_header(lines)
    if len(lines) != 3:
        raise ParseError("vector file needs exactly one entry line")
    return Vector(field, _parse_entry_line(field, n, lines[2]))


def format_vector(X: Vector) -> str:
    return f"{X.field.describe()}\nn {len(X)}\n{X}\n"


def _format_linear(coeffs, names: list[str]) -> str:
    # A negative coefficient prints with its sign, so " + -" becomes " - ";
    # no term holds " + -" itself.
    terms = [name if c == 1 else "-" + name if c == -1 else f"{c}*{name}"
             for c, name in zip(coeffs, names) if c]
    return " + ".join(terms).replace(" + -", " - ") or "0"


def format_program(P: StraightLineProgram) -> str:
    names = [f"x{j}" for j in range(1, P.n + 1)]
    try:
        lines = [f"{names[step.target]} := {_format_linear(step.coeffs, names)}"
                 for step in P.steps]
    except ValueError:
        raise digit_limit_error() from None
    return "\n".join(lines) + "\n" if lines else ""


def format_coding(coding: InSituCoding | PermCoding) -> str:
    head = format_matrix(coding.matrix)
    if isinstance(coding, InSituCoding):
        tail = " ".join("0" if j is None else str(j + 1) for j in coding.fixups)
        return f"{head}fixups: {tail}\n"
    tail = " ".join(str(s + 1) for s in coding.perm)
    return f"{head}perm: {tail}\n"


def parse_coding(text: str) -> InSituCoding | PermCoding:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty coding")
    last = lines[-1]
    matrix = parse_matrix("\n".join(lines[:-1]))
    n = matrix.n
    kind, _, rest = last.partition(":")
    kind = kind.strip()
    values = rest.split()
    if kind not in ("fixups", "perm"):
        raise ParseError(f"expected a fixups/perm line, got {last!r}")
    if len(values) != n:
        raise ParseError(f"bad {kind} line: {last!r}")
    nums = [parse_int(v, f"{kind} entry") - 1 for v in values]
    if kind == "fixups":
        return InSituCoding(matrix, tuple(None if j == -1 else j for j in nums))
    return PermCoding(matrix, tuple(nums))
