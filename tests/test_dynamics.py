"""Orbits and censuses of the regular-constructor map on GF(2) matrices,
and a tests-only walk of the unit-diagonal map over GF(p)."""

import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_regular_gf2_matrices, random_regular_gf2
from seqmat import (
    GF2,
    Matrix,
    Vector,
    census,
    gfp,
    is_regular,
    load_orbit_seed,
    orbit,
    parse_matrix,
    phi,
    regularize,
    regularize_general,
)
from seqmat.dynamics import _apply, _fiber_cycles, _require_invertible, _Tower
from seqmat.errors import GuardError, InvariantViolation, PreconditionError
from seqmat.regularize import regularize_packed
from test_regularize import _reference_packed

CENSUS_6 = Path(__file__).parent / "data" / "census_6.json"
BENCH_EXPECTED = Path(__file__).parent.parent / "bench" / "expected.json"
CENSUS_5_HISTOGRAM = {
    1: 15920, 2: 144496, 3: 22656, 4: 144672, 6: 250752, 8: 58624, 9: 1584,
    12: 148704, 16: 9216, 18: 161712, 24: 24576, 36: 38016, 54: 27648,
}


def test_phi_identity():
    I = Matrix.identity(4, GF2)
    assert phi(I) == I


def test_phi_of_worked_constructor():
    dM = Matrix.of(GF2, [[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    # seq_matrix is [[1,1,1],[1,0,0],[1,0,1]]; forcing the diagonal gives:
    assert phi(dM) == Matrix.of(GF2, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])


def test_phi_inverts_regularize_exhaustive_3x3():
    for M in all_regular_gf2_matrices(3):
        assert phi(regularize(M)) == M


def test_phi_preconditions():
    with pytest.raises(PreconditionError):
        phi(Matrix.of(GF2, [[0, 0], [0, 1]]))
    with pytest.raises(PreconditionError):
        phi(Matrix.identity(2, gfp(3)))


def test_regularize_permutes_regular_matrices():
    for n in (2, 3, 4):
        domain = {M.rows for M in all_regular_gf2_matrices(n)}
        image = {regularize(Matrix(GF2, rows)).rows for rows in domain}
        assert image == domain


# -- orbits -------------------------------------------------------------------


def test_orbit_identity_is_fixed():
    report = orbit(Matrix.identity(5, GF2))
    assert report.cycle_length == 1


def test_orbit_minimality_and_recurrence():
    rng = random.Random(15)
    for _ in range(20):
        M = random_regular_gf2(rng, 4)
        # _plain_orbit takes full steps until the start recurs and asserts
        # that no other matrix repeats on the way.
        assert orbit(M).cycle_length == _plain_orbit(M)


def test_orbit_detects_max_iter():
    seed = load_orbit_seed()
    with pytest.raises(GuardError):
        orbit(seed, 100)


def _constant_map(image):
    """A non-injective stand-in for regularize_packed: every word goes to image."""
    return lambda word, plan: image


def _keep_base_rows(word, plan):
    """The real map on a 3 x 3 tower word, with the unit rows riding
    along (rows 2..3) zeroed, so the composed fiber map F is singular."""
    return regularize_packed(word, plan) & 0b111_111


def test_orbit_verification_catches_non_injective_map(monkeypatch):
    start = Matrix.of(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    # The base walk sees rows 0..1 only: every step lands on I's base rows
    # e_0, e_1 (a word's row k holds its diagonal bit at k*3 + k), so
    # start -> I -> I -> ... is a rho-shaped base walk that never returns.
    # orbit compares each state with the start's only, so it runs out of
    # steps.
    monkeypatch.setattr("seqmat.dynamics.regularize_packed", _constant_map(0b100_010_001))
    with pytest.raises(GuardError, match="max_iter=50 steps"):
        orbit(start, 50)


def test_orbit_fiber_walk_catches_singular_product(monkeypatch):
    # The start's base rows e_0, e_1 are a fixed point of the real base
    # map (L_b = 1), but F = 0: the last row's y0 = e_0 would go to 0,
    # which F fixes, a rho-shaped fiber walk that never returns to y0.
    # The invertibility check refuses F before the fiber walk starts.
    start = Matrix.of(GF2, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    monkeypatch.setattr("seqmat.dynamics.regularize_packed", _keep_base_rows)
    with pytest.raises(InvariantViolation, match="fiber map F is singular"):
        orbit(start, 50)


def test_census_base_walk_catches_non_injective_map(monkeypatch):
    # Every step lands on one word.  Its rows 0..1 are row 0's
    # off-diagonal unit vectors (0b010, 0b100), the unit rows of a level-0
    # word of census(3), so level 0's F is the identity.  A level-1 word
    # holds row 0 in its low bits, and the image's row 0 has no diagonal
    # bit, so no level-1 walk returns to its start.
    monkeypatch.setattr("seqmat.dynamics.regularize_packed", _constant_map(0b100_010))
    with pytest.raises(InvariantViolation, match="level 1 walk of length 1 did not return"):
        census(3)


def test_census_level_walk_catches_moving_row_0(monkeypatch):
    # The real map, but bit 1 of row 0 flips at every step of a level >= 1
    # word (its plan has steps): still a bijection, but row 0 is no
    # longer fixed, so no level-1 walk returns after its one step.
    def drift(word, plan):
        return regularize_packed(word, plan) ^ (0b010 if plan[0] else 0)

    monkeypatch.setattr("seqmat.dynamics.regularize_packed", drift)
    with pytest.raises(InvariantViolation, match="level 1 walk of length 1 did not return"):
        census(3)


def test_census_fiber_walk_catches_singular_product(monkeypatch):
    # The real map, but every row past row 1 is zeroed: at level 1 of
    # census(3) the unit row of row 1's e_2 goes to 0, a zero column of F,
    # whose fiber walk would reach a fixed point that an earlier walk met.
    monkeypatch.setattr("seqmat.dynamics.regularize_packed", _keep_base_rows)
    with pytest.raises(InvariantViolation, match="fiber map F is singular"):
        census(3)


def test_census_fiber_walk_catches_rho_shaped_walk(monkeypatch):
    # Both unit rows of a level-0 word of census(3) become 0b100, row 0's
    # unit vector e_2, packed as e_1: F e_0 = F e_1 = e_1.  The walk
    # e_0 -> e_1 -> e_1 -> ... would meet no earlier cycle and never return.
    monkeypatch.setattr("seqmat.dynamics.regularize_packed", _constant_map(0b100_100))
    with pytest.raises(InvariantViolation, match="fiber map F is singular"):
        census(3)


@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_require_invertible_matches_brute_force(b):
    # Every list of b columns of b bits: the rank test refuses exactly the
    # maps that are not a permutation of the 2**b vectors.
    vectors = range(1 << b)
    for cols in itertools.product(vectors, repeat=b):
        if len({_apply(cols, y) for y in vectors}) == 1 << b:
            _require_invertible(list(cols))
        else:
            with pytest.raises(InvariantViolation, match="fiber map F is singular"):
                _require_invertible(list(cols))


def test_fiber_cycles_keeps_no_walk_time_check(monkeypatch):
    # With the rank test stubbed out, a singular map goes through
    # _fiber_cycles unrefused, and its walks still end: each is bounded
    # by the number of vectors.  F e_0 = F e_1 = e_1 is the rho-shaped walk
    # of the census stub above.
    monkeypatch.setattr("seqmat.dynamics._require_invertible", lambda cols: None)
    assert _fiber_cycles([0b10, 0b10]) == ((0, 1), (1, 4), (3, 4))
    assert _fiber_cycles([0, 0]) == ((0, 1), (1, 4), (2, 4), (3, 4))


def test_fiber_cycles_first_vectors_and_lengths():
    # columns e_1, e_0 swap the two bits: 0 and 3 are fixed, 1 <-> 2
    assert _fiber_cycles([0b10, 0b01]) == ((0, 1), (1, 2), (3, 1))
    assert _fiber_cycles([]) == ((0, 1),)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_tower_rows_round_trip(n):
    # Row k's n-1 off-diagonal bits, packed by dropping bit k, round trip
    # through the word, and the unit rows hold F = identity before a step.
    for k in range(n):
        tower = _Tower(n, k)
        for y in range(1 << n - 1):
            assert tower.split(tower.row(y)) == (0, y)
        assert tower.columns(tower.units) == [1 << j for j in range(n - 1)]
    # orbit's level n-1: the last row's bits below its diagonal, unchanged
    assert _Tower(n, n - 1).pack((1 << n) - 1) == (1 << n - 1) - 1


def test_orbit_preconditions():
    with pytest.raises(PreconditionError):
        orbit(Matrix.of(GF2, [[0, 1], [1, 1]]))
    with pytest.raises(PreconditionError):
        orbit(Matrix.identity(2, GF2), 0)


def test_orbit_pure_cycle_verification_random_n10():
    # _plain_orbit asserts that no matrix but the start repeats.
    rng = random.Random(16)
    for _ in range(10):
        M = random_regular_gf2(rng, 10)
        assert orbit(M).cycle_length == _plain_orbit(M)


def test_bundled_seed_matrix_shape():
    seed = load_orbit_seed()
    assert seed.n == 10
    assert seed.field == GF2
    assert is_regular(seed)


def test_bundled_seed_cycle_length():
    assert orbit(load_orbit_seed()).cycle_length == 13122


def test_orbit_max_iter_boundary_on_seed(monkeypatch):
    # The seed's base cycle has L_b = 4374 steps and its last row needs
    # m = 3 turns of F: orbit returns exactly when 13122 <= max_iter, also
    # where the base walk alone would fit.
    seed = load_orbit_seed()
    steps = []

    def counted(word, plan):
        steps.append(1)
        return regularize_packed(word, plan)

    monkeypatch.setattr("seqmat.dynamics.regularize_packed", counted)
    assert orbit(seed, 13122).cycle_length == 13122
    for max_iter in (13121, 8748, 4374, 4373, 100):
        steps.clear()
        with pytest.raises(GuardError, match=f"max_iter={max_iter} steps"):
            orbit(seed, max_iter)
        # the base walk takes at most max_iter steps
        assert len(steps) == min(max_iter, 4374)


# -- the tower orbit against a plain full-step walk --------------------------------


def _plain_orbit(M):
    """Reference cycle length: full steps of _reference_packed on tuple
    rows until the start recurs, asserting that no other matrix repeats."""
    start = tuple(sum(x << t for t, x in enumerate(row)) for row in M.rows)
    seen = {start}
    rows = _reference_packed(start, M.n)
    while rows != start:
        assert rows not in seen
        seen.add(rows)
        rows = _reference_packed(rows, M.n)
    return len(seen)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_matches_plain_walk_exhaustive(n):
    for M in all_regular_gf2_matrices(n):
        length = _plain_orbit(M)
        assert orbit(M).cycle_length == length


@settings(max_examples=80, deadline=None)
@given(n=st.integers(5, 12), seed=st.integers(0, 2**32 - 1))
def test_orbit_matches_plain_walk_random(n, seed):
    M = random_regular_gf2(random.Random(seed), n)
    length = _plain_orbit(M)
    assert orbit(M).cycle_length == length


def test_orbit_matches_pinned_bench_orbits():
    # The 200 reference cycles (n = 8..12) the benchmark checks orbit against.
    refs = json.loads(BENCH_EXPECTED.read_text())["orbits"]
    assert len(refs) == 200
    for ref in refs:
        n = ref["n"]
        rows = [int(h, 16) for h in ref["rows"]]
        M = Matrix.of(GF2, [[(r >> t) & 1 for t in range(n)] for r in rows])
        assert orbit(M).cycle_length == ref["length"]


# -- the GF(2) cycle-length bound 2 * 3**(n-2) at n = 7..9 ---------------------------

ORBIT_BOUND = {n: Path(__file__).parent / "data" / f"gf2_orbit_bound_n{n}.txt" for n in (7, 8, 9)}


@pytest.mark.parametrize("n", [7, 8, 9])
def test_orbit_reaches_bound_on_pinned_matrix(n):
    # The first sample of random_regular_gf2(random.Random(20261019), n)
    # whose cycle reaches 2 * 3**(n-2): samples 74, 753 and 90 (0-based)
    # at n = 7, 8 and 9.
    M = parse_matrix(ORBIT_BOUND[n].read_text())
    assert (M.field, M.n) == (GF2, n) and is_regular(M)
    assert orbit(M).cycle_length == _plain_orbit(M) == 2 * 3 ** (n - 2)


@pytest.mark.parametrize("n", [7, 8, 9])
def test_orbit_samples_stay_within_bound(n):
    rng = random.Random(20261019)
    lengths = [orbit(random_regular_gf2(rng, n)).cycle_length for _ in range(400)]
    assert max(lengths) <= 2 * 3 ** (n - 2)


# -- census ------------------------------------------------------------------------


def test_census_n1():
    report = census(1)
    assert report.histogram == {1: 1}
    assert report.max_cycle_length == 1


def test_census_n2_against_brute_force():
    # Independent walk: iterate the entrywise constructor over all four
    # regular 2x2 matrices.
    lengths = {}
    for M in all_regular_gf2_matrices(2):
        cur = regularize(M)
        steps = 1
        while cur != M:
            cur = regularize(cur)
            steps += 1
        lengths[steps] = lengths.get(steps, 0) + 1
    report = census(2)
    assert report.histogram == lengths
    assert report.matrix_count == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_conservation(n):
    report = census(n)
    assert report.matrix_count == 1 << (n * n - n)
    for length, count in report.histogram.items():
        assert count % length == 0  # whole cycles only


def test_census_max_4x4():
    assert census(4).max_cycle_length == 18


def test_census_lengths_match_orbits():
    report = census(3)
    for M in all_regular_gf2_matrices(3):
        assert orbit(M).cycle_length in report.histogram


def _direct_census(n):
    """Reference census: walk every cycle of regularize on all 2**(n*n - n)
    regular matrices, one full step at a time on tuple rows, with a
    visited table."""

    def index(rows):
        idx = 0
        for i, r in enumerate(rows):
            idx |= ((r & ((1 << i) - 1)) | ((r >> (i + 1)) << i)) << (i * (n - 1))
        return idx

    def rows_at(idx):
        rows = []
        for i in range(n):
            packed = (idx >> (i * (n - 1))) & ((1 << (n - 1)) - 1)
            rows.append((packed & ((1 << i) - 1)) | ((packed >> i) << (i + 1)) | (1 << i))
        return tuple(rows)

    visited = bytearray(1 << (n * n - n))
    histogram = {}
    for start in range(len(visited)):
        if visited[start]:
            continue
        rows, idx, length = rows_at(start), start, 0
        while True:
            visited[idx] = 1
            rows = _reference_packed(rows, n)
            idx = index(rows)
            length += 1
            if idx == start:
                break
            if visited[idx]:
                raise InvariantViolation("direct walk revisited a non-start matrix")
        histogram[length] = histogram.get(length, 0) + length
    return dict(sorted(histogram.items())), max(histogram)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_tower_matches_direct_walk(n):
    report = census(n)
    assert (report.histogram, report.max_cycle_length) == _direct_census(n)


@pytest.mark.slow
def test_census_tower_matches_direct_walk_n5():
    report = census(5)
    assert (report.histogram, report.max_cycle_length) == _direct_census(5)


def test_census_guards():
    with pytest.raises(PreconditionError):
        census(0)
    with pytest.raises(GuardError):
        census(6)
    # force overrides the guard; use a size that is actually feasible
    assert census(3, force=True) == census(3)


def _assert_refused_cheaply(n, force):
    # Refused before any walk starts, and without
    # formatting n or 2**(n*n - n), whose digits may be past the int/str limit.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(GuardError):
            census(n, force=force)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1 << 20


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, force",
    [(40, True), (10**2200, False), (10**2200, True)],
    ids=["40-force", "2201-digits", "2201-digits-force"],
)
def test_census_refuses_past_index_range(n, force):
    _assert_refused_cheaply(n, force)


@pytest.mark.parametrize("n", [7, 8])
def test_census_force_refuses_past_work_cap(n):
    # 2**36 and 2**49 steps at the last level, past the 2**32-step cap.
    _assert_refused_cheaply(n, True)


def test_census_walks_each_distinct_fiber_map_once(monkeypatch):
    # The fiber walk of level k follows the steps of a level-k word, whose
    # plan has k steps, so the plan of the last step tells the level.
    level, seen = [None], []

    def stepped(word, plan):
        level[0] = len(plan[0])
        return regularize_packed(word, plan)

    def counted(cols):
        seen.append((level[0], tuple(cols)))
        return _fiber_cycles(cols)

    monkeypatch.setattr("seqmat.dynamics.regularize_packed", stepped)
    monkeypatch.setattr("seqmat.dynamics._fiber_cycles", counted)
    report = census(5)
    assert len(seen) == len(set(seen))
    assert {k for k, _ in seen} == set(range(5))
    assert report.histogram == CENSUS_5_HISTOGRAM


def test_census_n5_guard_boundary():
    report = census(5)
    assert report.histogram == CENSUS_5_HISTOGRAM
    assert report.max_cycle_length == 54
    assert report.matrix_count == 1 << 20


def test_census_6_data_file():
    # The committed census(6, force=True) result: whole cycles covering
    # every regular 6x6 matrix, and every sampled orbit length among them.
    data = json.loads(CENSUS_6.read_text())
    histogram = {int(k): v for k, v in data["histogram"].items()}
    assert sum(histogram.values()) == 1 << 30
    assert all(count % length == 0 for length, count in histogram.items())
    assert data["max"] == max(histogram)
    rng = random.Random(6)
    for _ in range(50):
        assert orbit(random_regular_gf2(rng, 6)).cycle_length in histogram


# -- the map over GF(p): a tests-only walk on regularize_general ---------------

GFP5_CYCLE_300 = Path(__file__).parent / "data" / "gfp5_cycle_300.txt"


def _unit_cycle(M):
    """The rows of every matrix on the cycle of M -> regularize_general(M,
    all ones) through M, walked one full step at a time; asserts that
    every matrix on the way keeps an all-ones diagonal and that none but M
    repeats, so the walk ends within as many steps as there are matrices."""
    ones = Vector(M.field, (M.field.one,) * M.n)
    seen = {M.rows}
    cur = regularize_general(M, ones)
    while cur != M:
        assert all(cur.rows[i][i] == 1 for i in range(M.n))
        assert cur.rows not in seen
        seen.add(cur.rows)
        cur = regularize_general(cur, ones)
    return seen


def _unit_census(field, n):
    """Cycle-length histogram (matrices per length) of the map over every
    n x n matrix with an all-ones diagonal.  Every walk is a cycle through
    its start, and the cycles cover every matrix, so the map is a
    bijection on them."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    covered, histogram = set(), {}
    for values in itertools.product(range(field.modulus), repeat=len(off)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(off, values):
            rows[i][j] = v
        M = Matrix.of(field, rows)
        if M.rows not in covered:
            cycle = _unit_cycle(M)
            covered |= cycle
            histogram[len(cycle)] = histogram.get(len(cycle), 0) + len(cycle)
    assert len(covered) == field.modulus ** len(off)
    return dict(sorted(histogram.items()))


@pytest.mark.parametrize("n", [3, 4])
def test_unit_walk_reproduces_gf2_census(n):
    assert _unit_census(GF2, n) == census(n).histogram


@pytest.mark.parametrize("p, histogram", [
    (3, {1: 165, 2: 12, 3: 276, 4: 48, 6: 132, 12: 96}),
    (5, {1: 1305, 2: 80, 3: 480, 4: 480, 5: 4720, 6: 480, 10: 2320, 15: 1920, 20: 1920,
         30: 1920}),
])
def test_unit_walk_histograms_gfp_n3(p, histogram):
    assert _unit_census(gfp(p), 3) == histogram


def test_unit_walk_gf5_cycle_past_p_times_p_plus_1_power():
    # The GF(2) bound 2*3**(n-2) read as p*(p+1)**(n-2) holds for p = 3
    # and 7 on every set sampled, but not for p = 5: this 4x4 matrix lies
    # on a 300-cycle, past 5 * 6**2 = 180.  It is the first sample of a
    # search over random.Random(20261019), the off-diagonal entries drawn
    # row by row with randrange(5).
    M = parse_matrix(GFP5_CYCLE_300.read_text())
    assert (M.field, M.n) == (gfp(5), 4)
    assert len(_unit_cycle(M)) == 300
