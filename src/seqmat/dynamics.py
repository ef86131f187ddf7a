"""Iterating the regular-constructor map on GF(2) matrices.

The map M -> regularize(M) sends regular matrices to regular matrices
and, restricted to them, is a bijection whose inverse is phi (seq_matrix
followed by forcing ones on the diagonal).  Every orbit is therefore a
pure cycle through its start; this module measures those cycles, one at
a time (orbit) or for the whole space of regular n x n matrices
(census).  All iteration runs on words, the whole matrix in one int
(pack_gf2_rows), one regularize_packed call per step.

orbit and census both use the tower structure of the map.  Rows 0..k of
regularize(M) depend only on rows 0..k of M, so the map on whole
matrices is a skew product over the base map on rows 0..n-2, and the
last row moves by a GF(2)-linear map A_x chosen by the base state x.
Both walk base cycles with the unit vectors of the last row riding along
(_Tower); along a base cycle of length L the fiber maps compose to one
linear map F, and each cycle of F of length m on the 2**(n-1) last rows
is a cycle of length L*m of the full map.  orbit walks the one base
cycle through its start and then the start's last row under F; census
walks every base cycle and every cycle of each F.  census reads base
states through two lookup tables per direction (word -> index and
index -> word, each split into a low and a high half of its bits), and
walks the cycles of each distinct F once: many base cycles compose the
same F (976 distinct maps over the 21,616 base cycles at n = 5).
trajectory, which returns every matrix, takes plain full steps.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class _Tower:
    """The skew-product word for n x n matrices, shared by orbit and census.

    A tower word holds a base state, rows 0..n-2, in its low (n-1)*n
    bits (mask base) and the unit vectors e_0..e_(n-2) as rows
    n-1..2n-3.  plan takes the n-1 steps of the base rows:
    regularize_packed moves the base by the base map and gives each unit
    row the update the last row gets, y -> A_x y (each step i < n-1 adds
    the updated row i into y when y_i is set).  So after the steps of a
    base cycle the unit rows hold the columns of F = A_x(L-1) ... A_x(0);
    columns masks off bit n-1, the last row's diagonal.
    """

    def __init__(self, n: int):
        b = n - 1
        self.n = n
        self.plan = regularize_plan(n, 2 * b, b)
        self.units = sum(1 << (b + j) * n + j for j in range(b))
        self.base = (1 << b * n) - 1
        self.last = (1 << b) - 1

    def split(self, word: int) -> tuple[int, int]:
        """The base state and the last row's off-diagonal bits of the
        n x n matrix word."""
        return word & self.base, (word >> (self.n - 1) * self.n) & self.last

    def columns(self, word: int) -> list[int]:
        """The columns of F that the unit rows of word hold."""
        n, b = self.n, self.n - 1
        return [(word >> (b + j) * n) & self.last for j in range(b)]


def _apply(cols: list[int], y: int) -> int:
    """The GF(2)-linear map with these columns applied to y."""
    out = 0
    for col in cols:
        if y & 1:
            out ^= col
        y >>= 1
    return out


def orbit(
    M0: Matrix,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    verify_pure_cycle: bool = False,
) -> OrbitReport:
    """Iterate regularize from M0 until M0 recurs; the recurrence index is
    the cycle length.

    Computed by the tower (see _Tower): the base walk steps rows 0..n-2
    until they return to M0's after L_b steps, and the fiber walk steps
    M0's last row under the composed fiber map F until it returns after
    m steps; the cycle length is L_b * m.  Either walk raises GuardError
    as soon as the cycle length would pass max_iter, so orbit returns
    exactly when it is at most max_iter.

    Production mode compares each base state and each fiber vector with
    M0's only: O(1) memory besides the n-1 columns of F.  With
    verify_pure_cycle each walk keeps a visited set (up to L_b base
    states and m vectors) and any repeat that is not the start raises
    InvariantViolation: such a rho-shaped orbit would contradict
    regularize being invertible on regular matrices.

    Each base step runs regularize on a word of 2n-2 rows, not n, which
    costs up to about twice a plain step at n >= 32: there an orbit whose
    last row returns after m <= 2 turns of F runs slower than its L_b * m
    plain steps would (about 1.4x at n = 32, m = 1).  For n <= 12 the extra
    rows cost under about 10% per step.
    """
    _require_regular_gf2(M0, "orbit")
    if max_iter < 1:
        raise PreconditionError("max_iter must be at least 1")
    tower = _Tower(M0.n)
    plan, basemask = tower.plan, tower.base
    start = pack_gf2_rows(M0)
    base, y0 = tower.split(start)
    seen = {base} if verify_pure_cycle else None
    word = base | tower.units
    for length in range(1, max_iter + 1):
        word = regularize_packed(word, plan)
        cur = word & basemask
        if cur == base:
            break
        if seen is not None:
            if cur in seen:
                raise InvariantViolation(
                    f"orbit base walk revisited a non-start state after {length} steps"
                )
            seen.add(cur)
    else:
        raise GuardError(f"no recurrence within max_iter={max_iter} steps")
    cols = tower.columns(word)
    seen = {y0} if verify_pure_cycle else None
    y = y0
    for m in range(1, max_iter // length + 1):
        y = _apply(cols, y)
        if y == y0:
            return OrbitReport(M0, length * m)
        if seen is not None:
            if y in seen:
                raise InvariantViolation(
                    f"orbit fiber walk revisited a non-start vector after {m} steps of F"
                )
            seen.add(y)
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


def _halves(fn, n: int, bits: int) -> tuple[list[int], list[int], int]:
    """fn(v, n) for v < 2**bits as two lists low, high and a shift half:
    fn(v, n) == low[v & (len(low) - 1)] | high[v >> half].  This holds
    because fn moves each bit of v on its own (and _base_rows adds the
    same diagonal bits to every word)."""
    half = bits // 2
    low = [fn(v, n) for v in range(1 << half)]
    high = [fn(v << half, n) for v in range(1 << bits - half)]
    return low, high, half


def _fiber_cycles(cols: list[int]) -> tuple[int, ...]:
    """Cycle lengths of the GF(2)-linear map with these columns on all
    2**len(cols) vectors; InvariantViolation if it is not a bijection,
    at the first non-start revisit or, failing that, once a walk takes
    more steps than there are vectors."""
    image = [0]
    for col in cols:
        image += [w ^ col for w in image]
    size = len(image)
    seen = bytearray(size)
    lengths = []
    steps = range(1, size + 1)  # built once: most fiber cycles are a few steps long
    for v in range(size):
        if seen[v]:
            continue
        w = v
        for m in steps:
            seen[w] = 1
            w = image[w]
            if w == v:
                break
            if seen[w]:
                raise InvariantViolation("fiber walk reached a previously visited non-start vector")
        else:
            raise InvariantViolation(f"fiber walk took {size} steps without returning to its start")
        lengths.append(m)
    return tuple(lengths)


def census(n: int, *, force: bool = False) -> CensusReport:
    """Cycle-length histogram of regularize over all regular n x n matrices.

    Walks the 2**((n-1)**2) base states (rows 0..n-2) on tower words
    (see _Tower) with a visited table, each base cycle once, finding the
    next unvisited start with bytearray.find; after the L steps of a
    base cycle the unit rows hold the columns of the composed fiber map
    F.  Each cycle of F of length m on the 2**(n-1) last rows adds a
    cycle of length L*m.  Both walks check that every orbit is a pure
    cycle, and neither walks longer than its table.

    A base state's index is read from a word, and a start word built
    from an index, through the two half tables of _halves.  The cycle
    lengths of F are kept per call, keyed by F's columns, so each
    distinct F is walked (and checked) once; a later base cycle with the
    same F reuses them.

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
    tower = _Tower(n)
    plan, units = tower.plan, tower.units
    index_low, index_high, index_half = _halves(_base_index, n, b * n)
    low_mask, high_mask = len(index_low) - 1, len(index_high) - 1
    rows_low, rows_high, rows_half = _halves(_base_rows, n, b * b)
    rows_mask = len(rows_low) - 1
    # F's columns in place in the unit rows, without bit n-1 of each row
    col_shift, col_mask = b * n, sum(tower.last << j * n for j in range(b))
    fibers: dict[int, tuple[int, ...]] = {}
    histogram: dict[int, int] = {}
    visited = bytearray(1 << (b * b))
    size = len(visited)
    steps = range(1, size + 1)
    start = 0
    while start >= 0:
        word = rows_low[start & rows_mask] | rows_high[start >> rows_half] | units
        idx = start
        for length in steps:
            visited[idx] = 1
            word = regularize_packed(word, plan)
            idx = index_low[word & low_mask] | index_high[(word >> index_half) & high_mask]
            if idx == start:
                break
            if visited[idx]:
                raise InvariantViolation("base walk reached a previously visited non-start state")
        else:
            raise InvariantViolation(f"base walk took {size} steps without returning to its start")
        key = (word >> col_shift) & col_mask
        cycles = fibers.get(key)
        if cycles is None:
            cycles = fibers[key] = _fiber_cycles(tower.columns(word))
        for m in cycles:
            histogram[length * m] = histogram.get(length * m, 0) + length * m
        start = visited.find(0, start + 1)
    return CensusReport(n, dict(sorted(histogram.items())), max(histogram))


def load_orbit_seed() -> Matrix:
    """The bundled regular 10 x 10 matrix whose orbit is a long known cycle."""
    from importlib import resources

    from .formats import parse_matrix

    text = resources.files("seqmat").joinpath("data/orbit_seed_10.txt").read_text()
    return parse_matrix(text)
