"""Iterating the regular-constructor map on GF(2) matrices.

The map M -> regularize(M) sends regular matrices to regular matrices
and, restricted to them, is a bijection whose inverse is phi (seq_matrix
followed by forcing ones on the diagonal).  Every orbit is therefore a
pure cycle through its start; this module measures those cycles, one at
a time (orbit) or for the whole space of regular n x n matrices
(census).  All iteration runs on words, the whole matrix in one int
(pack_gf2_rows), one regularize_packed call per step.

orbit and census both use the tower structure of the map.  Rows 0..k of
regularize(M) depend only on rows 0..k of M, so level k, the map on rows
0..k, is a skew product over level k-1: row k moves by a GF(2)-linear
map A_x chosen by the state x of rows 0..k-1, and row 0 is fixed.  A
walk of a level-(k-1) cycle with the unit vectors of row k riding along
(_Tower) composes the fiber maps to one linear map F, and each cycle of
F of length m is a level-k cycle of length L*m, L being the length of
the level-(k-1) cycle.  orbit walks the one cycle of rows 0..n-2
through its start and then the start's last row under F; census walks
every level, each level-k cycle giving the level-(k+1) walks over it,
and walks the cycles of each distinct F once per level: many cycles
compose the same F.  Both check that each F they walk is invertible
(one rank test on its n-1 columns), so every fiber walk is a cycle
through its start and stays bounded; census also checks that each
level walk returns to its start.
"""

from __future__ import annotations

from .errors import GuardError, InvariantViolation, PreconditionError
from .matrix import (
    Matrix,
    is_regular,
    pack_gf2_rows,
    require_gf2,
    seq_matrix,
    set_diag_ones,
)
from .record import Record, set_field
from .regularize import regularize_packed, regularize_plan

DEFAULT_MAX_ITER = 1 << 20

#: Census covers all 2**(n*n - n) regular matrices; n = 5 is about a
#: million of them and the largest size allowed without force.
CENSUS_MAX_N = 5
#: Census refuses, even with force, past 2**32 steps at its last level:
#: n = 6 takes 2**25 of them, n = 7 would take 2**36.
CENSUS_MAX_STEP_BITS = 32


class OrbitReport(Record):
    """Cycle data for one start matrix under repeated regularize."""

    __slots__ = ("start", "cycle_length")

    def __init__(self, start: Matrix, cycle_length: int) -> None:
        set_field(self, "start", start)
        set_field(self, "cycle_length", cycle_length)


class CensusReport(Record):
    """Cycle-length histogram over all regular n x n GF(2) matrices.

    histogram[L] counts the *matrices* lying on cycles of length L, so
    the number of distinct cycles of length L is histogram[L] // L and
    the histogram masses sum to 2**(n*n - n).
    """

    __slots__ = ("n", "histogram")

    def __init__(self, n: int, histogram: dict[int, int]) -> None:
        set_field(self, "n", n)
        set_field(self, "histogram", histogram)

    @property
    def matrix_count(self) -> int:
        return sum(self.histogram.values())

    @property
    def max_cycle_length(self) -> int:
        return max(self.histogram)


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
    """Level k of the skew-product tower of n x n matrices: orbit uses
    level n-1, census every level.

    Level k is the map on rows 0..k, which regularize closes.  Row k
    moves by a GF(2)-linear map A_x of its n-1 off-diagonal bits, chosen
    by the state x of rows 0..k-1 (no step before step k reads row k's
    diagonal bit).  A tower word holds x in its low k*n bits (mask base)
    and the off-diagonal unit vectors of row k as rows k..k+n-2.  plan
    takes the k steps of rows 0..k-1: regularize_packed moves x by the
    map of level k-1 and gives each unit row the update row k gets.  So
    after the steps of a level-(k-1) cycle the unit rows hold the
    columns of F = A_x(L-1) ... A_x(0).  pack stores row k's off-diagonal
    bits in n-1 bits by dropping bit k, the identity for k = n-1.
    """

    def __init__(self, n: int, k: int):
        b = n - 1
        self.n, self.k = n, k
        self.plan = regularize_plan(n, k + b, k)
        self.shift = k * n
        self.base = (1 << self.shift) - 1
        self.units = sum(1 << (k + j) * n + j + (j >= k) for j in range(b))
        self.full = (1 << n) - 1
        self.low = (1 << k) - 1
        # F's columns in place in the unit rows, without bit k of each row
        self.keymask = (self.full ^ 1 << k) * (((1 << b * n) - 1) // self.full)

    def pack(self, row: int) -> int:
        """Row k's off-diagonal bits of the n-bit row, as n-1 bits."""
        return row & self.low | row >> self.k + 1 << self.k

    def row(self, y: int) -> int:
        """Row k with off-diagonal bits y and its diagonal bit, in place in a word."""
        k = self.k
        return (y & self.low | y >> k << k + 1 | 1 << k) << self.shift

    def split(self, word: int) -> tuple[int, int]:
        """Rows 0..k-1 and row k's packed off-diagonal bits of word."""
        return word & self.base, self.pack((word >> self.shift) & self.full)

    def columns(self, word: int) -> list[int]:
        """The columns of F that the unit rows of word hold."""
        n, k, full = self.n, self.k, self.full
        return [self.pack((word >> (k + j) * n) & full) for j in range(n - 1)]


def _apply(cols: list[int], y: int) -> int:
    """The GF(2)-linear map with these columns applied to y."""
    out = 0
    for col in cols:
        if y & 1:
            out ^= col
        y >>= 1
    return out


def _require_invertible(cols: list[int]) -> None:
    """InvariantViolation unless the GF(2)-linear map with these columns
    is invertible: its columns, reduced one at a time against a pivot
    per top bit, must all be independent."""
    pivots: dict[int, int] = {}
    for col in cols:
        while col:
            top = col.bit_length()
            if top not in pivots:
                pivots[top] = col
                break
            col ^= pivots[top]
        else:
            raise InvariantViolation("composed fiber map F is singular")


def orbit(M0: Matrix, max_iter: int = DEFAULT_MAX_ITER) -> OrbitReport:
    """Iterate regularize from M0 until M0 recurs; the recurrence index is
    the cycle length.

    Computed by the tower (see _Tower): the base walk steps rows 0..n-2
    until they return to M0's after L_b steps, and the fiber walk steps
    M0's last row under the composed fiber map F until it returns after
    m steps; the cycle length is L_b * m.  Either walk raises GuardError
    as soon as the cycle length would pass max_iter, so orbit returns
    exactly when it is at most max_iter.

    Each walk compares its state with M0's only, so orbit needs O(1)
    memory besides the n-1 columns of F.  Between the walks F must be
    invertible (_require_invertible), else InvariantViolation: a singular
    F would send the last row onto a rho-shaped walk that never returns.
    A base walk that never returns, which would equally contradict
    regularize being invertible on regular matrices, runs out of steps
    and raises GuardError.  That no state but the start repeats is left
    to the tests, which compare orbit with a plain walk that keeps every
    state.

    Each base step runs regularize on a word of 2n-2 rows, not n, which
    costs up to about twice a plain step at n >= 32: there an orbit whose
    last row returns after m <= 2 turns of F runs slower than its L_b * m
    plain steps would (about 1.4x at n = 32, m = 1).  For n <= 12 the extra
    rows cost under about 10% per step.
    """
    _require_regular_gf2(M0, "orbit")
    if max_iter < 1:
        raise PreconditionError("max_iter must be at least 1")
    tower = _Tower(M0.n, M0.n - 1)
    plan, basemask = tower.plan, tower.base
    base, y0 = tower.split(pack_gf2_rows(M0))
    word = base | tower.units
    for length in range(1, max_iter + 1):
        word = regularize_packed(word, plan)
        if word & basemask == base:
            break
    else:
        raise GuardError(f"no recurrence within max_iter={max_iter} steps")
    cols = tower.columns(word)
    _require_invertible(cols)
    y = y0
    for m in range(1, max_iter // length + 1):
        y = _apply(cols, y)
        if y == y0:
            return OrbitReport(M0, length * m)
    raise GuardError(f"no recurrence within max_iter={max_iter} steps")


# -- exhaustive census -----------------------------------------------------


def _fiber_cycles(cols: list[int]) -> tuple[tuple[int, int], ...]:
    """(first vector, length) of each cycle of the GF(2)-linear map with
    these columns on all 2**len(cols) vectors, ordered by first vector;
    InvariantViolation if the map is not invertible (_require_invertible),
    so that every walk is a cycle through its first vector."""
    _require_invertible(cols)
    image = [0]
    for col in cols:
        image += [w ^ col for w in image]
    size = len(image)
    seen = bytearray(size)
    cycles = []
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
        cycles.append((v, m))
    return tuple(cycles)


def census(n: int, *, force: bool = False) -> CensusReport:
    """Cycle-length histogram of regularize over all regular n x n matrices.

    Walks the levels of the tower (see _Tower) depth first.  Level 0 is
    the 2**(n-1) fixed points of row 0.  Each level-(k-1) cycle (start x,
    length L) is stepped L times on a level-k tower word and must return
    to x; its unit rows then hold the composed map F of row k, and each
    cycle (y, m) of F is a level-k cycle (x with row k set from y, L*m).
    At level n-1 these are the cycles of the full map.  No state is
    looked up, so nothing scales with the 2**(n*n - n) matrices but the
    walking.

    _fiber_cycles checks by a rank test that F is a bijection, and each
    level walk must return to its start; a skew product of bijections
    over a bijection is one, so every orbit is a pure cycle.  F's cycles
    are kept per level, keyed by F's columns, so each distinct F is
    walked once per level; the last level keeps only how many vectors
    lie on cycles of each length, and equal cycle lists are stored once.

    Guarded at n <= CENSUS_MAX_N unless force is given, and refused even
    with force past 2**CENSUS_MAX_STEP_BITS steps of the last level.
    The refusals do not format n, which may be past Python's int-to-text
    limit.
    """
    if n < 1:
        raise PreconditionError("census needs n >= 1")
    b = n - 1
    if b * b > CENSUS_MAX_STEP_BITS:
        raise GuardError(
            f"census takes 2**((n-1)**2) steps at its last level, past "
            f"2**{CENSUS_MAX_STEP_BITS}; refused even with force"
        )
    if n > CENSUS_MAX_N and not force:
        raise GuardError(
            f"census above n={CENSUS_MAX_N} enumerates 2**(n*n - n) matrices; pass force to allow"
        )
    towers = [_Tower(n, k) for k in range(n)]
    rows = [[tower.row(y) for y in range(1 << b)] for tower in towers]
    fibers: list[dict] = [{} for _ in range(n)]
    shapes: dict[tuple, tuple] = {}  # one copy of each distinct cycle list
    histogram: dict[int, int] = {}

    def walk(k: int, x: int, length: int) -> None:
        tower, cache = towers[k], fibers[k]
        plan = tower.plan
        word = x | tower.units
        for _ in range(length):
            word = regularize_packed(word, plan)
        if word & tower.base != x:
            raise InvariantViolation(f"level {k} walk of length {length} did not return to its start")
        key = (word >> tower.shift) & tower.keymask
        cycles = cache.get(key)
        if cycles is None:
            found = _fiber_cycles(tower.columns(word))
            if k == b:
                mass: dict[int, int] = {}
                for _, m in found:
                    mass[m] = mass.get(m, 0) + m
                found = tuple(mass.items())
            cycles = cache[key] = shapes.setdefault(found, found)
        if k == b:
            for m, vectors in cycles:
                histogram[length * m] = histogram.get(length * m, 0) + length * vectors
        else:
            row = rows[k]
            for y, m in cycles:
                walk(k + 1, x | row[y], length * m)

    walk(0, 0, 1)
    return CensusReport(n, dict(sorted(histogram.items())))


def load_orbit_seed() -> Matrix:
    """The bundled regular 10 x 10 matrix whose orbit is a long known cycle."""
    from importlib import resources

    from .formats import parse_matrix

    text = resources.files("seqmat").joinpath("data/orbit_seed_10.txt").read_text()
    return parse_matrix(text)
