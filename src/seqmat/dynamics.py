"""Iterating the regular-constructor map on GF(2) matrices.

The map M -> regularize(M) sends regular matrices to regular matrices
and, restricted to them, is a bijection whose inverse is phi (seq_matrix
followed by forcing ones on the diagonal).  Every orbit is therefore a
pure cycle through its start; this module measures those cycles, one at
a time (orbit) or for the whole space of regular n x n matrices
(census).  All iteration runs on bit-packed rows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from importlib import resources

from .errors import GuardError, InvariantViolation, PreconditionError
from .matrix import (
    Matrix,
    is_regular,
    pack_gf2_rows,
    require_gf2,
    seq_matrix,
    set_diag_ones,
    unpack_gf2_rows,
)
from .regularize import regularize_packed

DEFAULT_MAX_ITER = 1 << 20

#: Census is exhaustive over 2**(n*n - n) regular matrices; n = 5 is
#: about a million states and the largest size allowed without force.
CENSUS_MAX_N = 5


@dataclass(frozen=True)
class OrbitReport:
    """Cycle data for one start matrix under repeated regularize."""

    start: Matrix
    cycle_length: int


@dataclass(frozen=True)
class CensusReport:
    """Cycle-length histogram over all regular n x n GF(2) matrices.

    histogram[L] counts the *matrices* lying on cycles of length L, so
    the number of distinct cycles of length L is histogram[L] // L and
    the histogram masses sum to 2**(n*n - n).
    """

    n: int
    histogram: dict[int, int]
    max_cycle_length: int

    @property
    def matrix_count(self) -> int:
        return sum(self.histogram.values())


def _require_regular_gf2(M: Matrix, what: str) -> None:
    require_gf2(M, what)
    if not is_regular(M):
        raise PreconditionError(f"{what} requires a regular matrix (all-ones diagonal)")


def phi(M: Matrix) -> Matrix:
    """Inverse of regularize on regular GF(2) matrices: seq_matrix with the
    diagonal forced back to ones."""
    _require_regular_gf2(M, "phi")
    return set_diag_ones(seq_matrix(M))


def orbit(
    M0: Matrix,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    verify_pure_cycle: bool = False,
) -> OrbitReport:
    """Iterate regularize from M0 until M0 recurs; the recurrence index is
    the cycle length.

    Production mode compares each iterate against the start only (O(1)
    memory).  With verify_pure_cycle a visited set is kept and any
    repeat that is not the start raises InvariantViolation: such a
    rho-shaped orbit would contradict regularize being invertible on
    regular matrices.
    """
    _require_regular_gf2(M0, "orbit")
    if max_iter < 1:
        raise PreconditionError("max_iter must be at least 1")
    n = M0.n
    start = pack_gf2_rows(M0)
    seen = {start} if verify_pure_cycle else None
    cur = start
    length = 0
    while True:
        cur = regularize_packed(cur, n)
        length += 1
        if cur == start:
            return OrbitReport(M0, length)
        if seen is not None:
            if cur in seen:
                raise InvariantViolation(
                    f"orbit revisited a non-start matrix after {length} steps"
                )
            seen.add(cur)
        if length >= max_iter:
            raise GuardError(f"no recurrence within max_iter={max_iter} steps")


def trajectory(M0: Matrix, steps: int) -> list[Matrix]:
    """[M0, d(M0), d2(M0), ...] with the requested number of steps."""
    _require_regular_gf2(M0, "trajectory")
    if steps < 0:
        raise PreconditionError("steps must be nonnegative")
    n = M0.n
    out = [M0]
    cur = pack_gf2_rows(M0)
    for _ in range(steps):
        cur = regularize_packed(cur, n)
        out.append(unpack_gf2_rows(cur, n))
    return out


# -- exhaustive census -----------------------------------------------------
#
# A regular matrix is identified by its off-diagonal bits: row i
# contributes n-1 bits (its row with bit i removed), giving a dense
# index in [0, 2**(n*n - n)).


def _offdiag_index(rows: tuple[int, ...], n: int) -> int:
    idx = 0
    shift = 0
    for i, r in enumerate(rows):
        idx |= ((r & ((1 << i) - 1)) | ((r >> (i + 1)) << i)) << shift
        shift += n - 1
    return idx


def _rows_from_index(idx: int, n: int) -> tuple[int, ...]:
    mask = (1 << (n - 1)) - 1
    rows = []
    for i in range(n):
        packed = idx & mask
        idx >>= n - 1
        low = packed & ((1 << i) - 1)
        high = (packed >> i) << (i + 1)
        rows.append(low | high | (1 << i))
    return tuple(rows)


def census(n: int, *, force: bool = False) -> CensusReport:
    """Cycle-length histogram of regularize over all regular n x n matrices.

    Walks each cycle exactly once, marking visited matrices.  Guarded at
    n <= CENSUS_MAX_N unless force is given (state count is 2**(n*n-n)),
    and refused even with force where that count is past sys.maxsize.
    The refusals do not format n, which may be past Python's int-to-text
    limit.
    """
    if n < 1:
        raise PreconditionError("census needs n >= 1")
    bits = n * n - n
    if bits >= sys.maxsize.bit_length():
        raise GuardError(
            "census enumerates 2**(n*n - n) matrices, too many to index even with force"
        )
    if n > CENSUS_MAX_N and not force:
        raise GuardError(
            f"census above n={CENSUS_MAX_N} enumerates 2**(n*n - n) matrices; pass force to allow"
        )
    size = 1 << bits
    visited = bytearray(size)
    histogram: dict[int, int] = {}
    max_len = 0
    for start in range(size):
        if visited[start]:
            continue
        rows = _rows_from_index(start, n)
        idx = start
        length = 0
        while True:
            visited[idx] = 1
            rows = regularize_packed(rows, n)
            idx = _offdiag_index(rows, n)
            length += 1
            if idx == start:
                break
            if visited[idx]:
                raise InvariantViolation(
                    "cycle walk reached a previously visited non-start matrix"
                )
        histogram[length] = histogram.get(length, 0) + length
        if length > max_len:
            max_len = length
    return CensusReport(n, dict(sorted(histogram.items())), max_len)


def load_orbit_seed() -> Matrix:
    """The bundled regular 10 x 10 matrix whose orbit is a long known cycle."""
    from .formats import parse_matrix

    text = resources.files("seqmat").joinpath("data/orbit_seed_10.txt").read_text()
    return parse_matrix(text)
