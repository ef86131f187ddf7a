"""Iterating the regular-constructor map on GF(2) matrices.

The map M -> regularize(M) sends regular matrices to regular matrices
and, restricted to them, is a bijection whose inverse is phi (seq_matrix
followed by forcing ones on the diagonal).  Every orbit is therefore a
pure cycle through its start; this module measures those cycles, one at
a time (orbit) or for the whole space of regular n x n matrices
(census).  All iteration runs on words, the whole matrix in one int
(pack_gf2_rows), one regularize_packed call per step.

census uses the tower structure of the map.  Rows 0..k of regularize(M)
depend only on rows 0..k of M, so the map on whole matrices is a skew
product over the base map on rows 0..n-2, and the last row moves by a
GF(2)-linear map A_x chosen by the base state x.  census walks the base
cycles; along a base cycle of length L the fiber maps compose to one
linear map F, and each cycle of F of length m on the 2**(n-1) last rows
is a cycle of length L*m of the full map.
"""

from __future__ import annotations

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
from .regularize import regularize_packed, regularize_plan

DEFAULT_MAX_ITER = 1 << 20

#: Census covers all 2**(n*n - n) regular matrices; n = 5 is about a
#: million of them and the largest size allowed without force.
CENSUS_MAX_N = 5
#: Census refuses, even with force, a visited table past 2**32 bytes:
#: n = 6 needs 2**25 bytes, n = 7 would need 2**36.
CENSUS_MAX_TABLE_BITS = 32


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
    plan = regularize_plan(M0.n)
    start = pack_gf2_rows(M0)
    seen = {start} if verify_pure_cycle else None
    cur = start
    length = 0
    while True:
        cur = regularize_packed(cur, plan)
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
    plan = regularize_plan(n)
    out = [M0]
    cur = pack_gf2_rows(M0)
    for _ in range(steps):
        cur = regularize_packed(cur, plan)
        out.append(unpack_gf2_rows(cur, n))
    return out


# -- exhaustive census -----------------------------------------------------
#
# The census walks the base, rows 0..n-2 of a regular matrix, as the low
# (n-1)*n bits of a word.  Its diagonal bits sit at i*(n+1); n off-diagonal
# bits lie between two of them and one after the last, so dropping them
# leaves a dense index in [0, 2**((n-1)**2)).


def _base_index(word: int, n: int) -> int:
    b, full = n - 1, (1 << n) - 1
    idx = 0
    for i in range(b):
        idx |= ((word >> i * (n + 1) + 1) & full) << i * n
    return idx & ((1 << b * b) - 1)


def _base_rows(idx: int, n: int) -> int:
    full = (1 << n) - 1
    word = 0
    for i in range(n - 1):
        word |= (((idx >> i * n) & full) << i * (n + 1) + 1) | (1 << i * (n + 1))
    return word


def _fiber_cycles(cols: list[int]) -> list[int]:
    """Cycle lengths of the GF(2)-linear map with these columns on all
    2**len(cols) vectors; InvariantViolation if it is not a bijection."""
    image = [0]
    for col in cols:
        image += [w ^ col for w in image]
    seen = bytearray(len(image))
    lengths = []
    for v in range(len(image)):
        if seen[v]:
            continue
        w, m = v, 0
        while True:
            seen[w] = 1
            w = image[w]
            m += 1
            if w == v:
                break
            if seen[w]:
                raise InvariantViolation("fiber walk reached a previously visited non-start vector")
        lengths.append(m)
    return lengths


def census(n: int, *, force: bool = False) -> CensusReport:
    """Cycle-length histogram of regularize over all regular n x n matrices.

    Walks the 2**((n-1)**2) base states (rows 0..n-2) with a visited
    table, each base cycle once.  Over a base state x the last row's
    off-diagonal bits y move by y -> A_x y: each step i < n-1 adds the
    updated row i into y when y_i is set.  The unit vectors e_0..e_(n-2)
    ride along as rows n-1..2n-3 of the word, where regularize_packed
    gives them exactly that update, so after the L steps of a base cycle
    they hold the columns of F = A_x(L-1) ... A_x(0) (bit n-1, the last
    row's diagonal, is masked off).  Each cycle of F of length m on the
    2**(n-1) last rows adds a cycle of length L*m.  Both walks check
    that every orbit is a pure cycle.

    Guarded at n <= CENSUS_MAX_N unless force is given, and refused even
    with force where the visited table would pass 2**CENSUS_MAX_TABLE_BITS
    bytes.  The refusals do not format n, which may be past Python's
    int-to-text limit.
    """
    if n < 1:
        raise PreconditionError("census needs n >= 1")
    b = n - 1
    if b * b > CENSUS_MAX_TABLE_BITS:
        raise GuardError(
            f"census needs a 2**((n-1)**2)-byte visited table, past "
            f"2**{CENSUS_MAX_TABLE_BITS} bytes; refused even with force"
        )
    if n > CENSUS_MAX_N and not force:
        raise GuardError(
            f"census above n={CENSUS_MAX_N} enumerates 2**(n*n - n) matrices; pass force to allow"
        )
    plan = regularize_plan(n, 2 * b, b)
    units = sum(1 << (b + j) * n + j for j in range(b))
    mask = (1 << b) - 1
    histogram: dict[int, int] = {}
    visited = bytearray(1 << (b * b))
    for start in range(len(visited)):
        if visited[start]:
            continue
        word = _base_rows(start, n) | units
        idx = start
        length = 0
        while True:
            visited[idx] = 1
            word = regularize_packed(word, plan)
            idx = _base_index(word, n)
            length += 1
            if idx == start:
                break
            if visited[idx]:
                raise InvariantViolation("base walk reached a previously visited non-start state")
        for m in _fiber_cycles([(word >> (b + j) * n) & mask for j in range(b)]):
            histogram[length * m] = histogram.get(length * m, 0) + length * m
    return CensusReport(n, dict(sorted(histogram.items())), max(histogram))


def load_orbit_seed() -> Matrix:
    """The bundled regular 10 x 10 matrix whose orbit is a long known cycle."""
    from .formats import parse_matrix

    text = resources.files("seqmat").joinpath("data/orbit_seed_10.txt").read_text()
    return parse_matrix(text)
