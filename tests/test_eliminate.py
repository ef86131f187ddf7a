"""The shared elimination kernel against the entrywise reference loops.

The reference below is the elimination of sequentialize,
sequentialize_perm and regularize_general written entry by entry, every
update going through the field methods.  The kernel on packed rows must
reproduce its rows and moves exactly.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seqmat import GF2, RATIONAL, Matrix, gfp
from seqmat.sequentialize import eliminate

#: GF(2), small odd primes, a 31-bit and a 63-bit prime, and Q.
KERNEL_FIELDS = (GF2, gfp(3), gfp(7), gfp(2**31 - 1), gfp(2**63 - 25), RATIONAL)

MAX_N = 40
#: Over Q the "units" policy grows coefficients exponentially in n (about
#: 60 kbit at n = 16), and dense random rationals cost a third of a second
#: per elimination at n = 40; these caps keep the suite quick.
MAX_N_RATIONAL_UNITS = 14
MAX_N_RATIONAL_RANDOM = 24

# -- entrywise reference ---------------------------------------------------------


def _substitute_below(field, work, i, n):
    add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
    row_i = work[i]
    pivot_inv = field.inv(row_i[i])
    base = [neg(v) for v in row_i]
    base[i] = sub(field.one, row_i[i])
    for k in range(i + 1, n):
        c = work[k][i]
        if c:
            f = mul(c, pivot_inv)
            wk = work[k]
            for t in range(n):
                b = base[t]
                if b:
                    wk[t] = add(wk[t], mul(f, b))


def _reference_fixup(M):
    field, n = M.field, M.n
    work = [list(r) for r in M.rows]
    fixups = [None] * n
    out = []
    for i in range(n):
        if not work[i][i]:
            j = next((k for k in range(i + 1, n) if work[k][i]), None)
            if j is not None:
                fixups[i] = j
                work[i] = [field.sub(a, b) for a, b in zip(work[i], work[j])]
        out.append(tuple(work[i]))
        if work[i][i]:
            _substitute_below(field, work, i, n)
    return tuple(out), tuple(fixups)


def _reference_perm(M):
    field, n = M.field, M.n
    work = [list(r) for r in M.rows]
    perm = list(range(n))
    out = []
    for i in range(n):
        if not work[i][i]:
            j = next((k for k in range(i + 1, n) if work[k][i]), None)
            if j is not None:
                work[i], work[j] = work[j], work[i]
                perm[i], perm[j] = perm[j], perm[i]
        out.append(tuple(work[i]))
        if work[i][i]:
            _substitute_below(field, work, i, n)
    return tuple(out), tuple(perm)


def _reference_units(M, units):
    field, n = M.field, M.n
    add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
    work = [list(r) for r in M.rows]
    out = []
    for i in range(n):
        u = units[i]
        row = list(work[i])
        row[i] = u
        out.append(tuple(row))
        uinv = field.inv(u)
        base = [neg(v) for v in row]
        base[i] = sub(field.one, u)
        for k in range(i + 1, n):
            c = work[k][i]
            if c:
                f = mul(c, uinv)
                wk = work[k]
                for t in range(n):
                    b = base[t]
                    if b:
                        wk[t] = add(wk[t], mul(f, b))
    return tuple(out), (None,) * n


def _check_all_policies(M, units):
    assert eliminate(M, "fixup") == _reference_fixup(M)
    assert eliminate(M, "perm") == _reference_perm(M)
    if M.field.is_finite or M.n <= MAX_N_RATIONAL_UNITS:
        assert eliminate(M, "units", units) == _reference_units(M, units)


# -- inputs ------------------------------------------------------------------------


def _top(field):
    """The entry p-1 (-1 over Q): largest residue, so largest slot sums."""
    return field.neg(field.one)


def _random_entry(rng, field):
    if field.modulus is not None:
        return rng.choice((0, 1, field.modulus - 1, rng.randrange(field.modulus)))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_unit(rng, field):
    if field.modulus is not None:
        return rng.choice((1, field.modulus - 1, rng.randrange(1, field.modulus)))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _sparse_matrix(rng, field, n, density):
    """Random entries at the given density, with every diagonal entry
    zero except where a coin says otherwise, so zero pivots are common."""
    rows = []
    for i in range(n):
        row = [_random_entry(rng, field) if rng.random() < density else field.zero
               for _ in range(n)]
        if rng.random() < 0.7:
            row[i] = field.zero
        rows.append(row)
    return Matrix.of(field, rows)


# -- tests -------------------------------------------------------------------------


def test_structured_matrices_every_n():
    for field in KERNEL_FIELDS:
        top = _top(field)
        for n in range(1, MAX_N + 1):
            ones = (field.one,) * n
            tops = (top,) * n
            full = Matrix.of(field, [[top] * n for _ in range(n)])
            _check_all_policies(full, tops)
            reversed_identity = Matrix.of(
                field, [[top if i + j == n - 1 else field.zero for j in range(n)] for i in range(n)]
            )
            _check_all_policies(reversed_identity, tops)
            # dense with every pivot zero; the reference costs n**3 here
            if n % 3 == 1:
                hollow = Matrix.of(
                    field, [[field.zero if i == j else top for j in range(n)] for i in range(n)]
                )
                _check_all_policies(hollow, ones)


def test_random_sparse_and_dense_every_field():
    rng = random.Random(2011)
    densities = (0.08, 0.3, 1.0)
    for field in KERNEL_FIELDS:
        top_n = MAX_N if field.is_finite else MAX_N_RATIONAL_RANDOM
        for n in range(1, top_n + 1):
            M = _sparse_matrix(rng, field, n, densities[n % 3])
            units = tuple(_random_unit(rng, field) for _ in range(n))
            _check_all_policies(M, units)


@settings(max_examples=100, deadline=None)
@given(
    field=st.sampled_from(KERNEL_FIELDS),
    n=st.integers(1, MAX_N),
    density=st.sampled_from((0.05, 0.2, 0.5, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference_hypothesis(field, n, density, seed):
    if not field.is_finite:
        n = min(n, MAX_N_RATIONAL_RANDOM)
    rng = random.Random(seed)
    M = _sparse_matrix(rng, field, n, density)
    units = tuple(_random_unit(rng, field) for _ in range(n))
    _check_all_policies(M, units)
