"""Shortest in-place programs over GF(2), against the fix-up compiler.

A state is the coefficient matrix of the variables' current values, rows
as bit masks.  One move is one single-target assignment x_t := c . X: it
replaces row t by any vector of the current row space.  A breadth-first
search from the identity gives every matrix's shortest program length.
"""

import json
from collections import Counter, deque
from pathlib import Path

import pytest

from conftest import all_gf2_matrices
from seqmat import sequentialize

HISTOGRAMS = json.loads(
    (Path(__file__).parent / "data" / "shortest_programs_gf2.json").read_text()
)["histograms"]


def _row_space(rows):
    space = {0}
    for r in rows:
        space |= {v ^ r for v in space}
    return space


def shortest_lengths(n):
    """Shortest program length of every n x n GF(2) matrix, keyed by its
    rows as bit masks (bit j of row i holds entry (i, j))."""
    start = tuple(1 << i for i in range(n))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        d = dist[state] + 1
        for v in _row_space(state):
            for t in range(n):
                nxt = state[:t] + (v,) + state[t + 1 :]
                if nxt not in dist:
                    dist[nxt] = d
                    queue.append(nxt)
    return dist


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shortest_length_histogram(n):
    dist = shortest_lengths(n)
    assert len(dist) == 2 ** (n * n)  # every matrix has an in-place program
    counts = Counter(dist.values())
    assert [counts[k] for k in range(max(counts) + 1)] == HISTOGRAMS[str(n)]


@pytest.mark.parametrize("n,shortest,most_over", [(1, 2, 0), (2, 15, 1), (3, 352, 2)])
def test_fixup_compiler_against_shortest(n, shortest, most_over):
    dist = shortest_lengths(n)
    excess = Counter()
    for M in all_gf2_matrices(n):
        program, _ = sequentialize(M)
        # x_i := x_i changes nothing and is not counted
        length = sum(
            1
            for step in program.steps
            if any(c != (j == step.target) for j, c in enumerate(step.coeffs))
        )
        key = tuple(sum(bit << j for j, bit in enumerate(row)) for row in M.rows)
        excess[length - dist[key]] += 1
    assert min(excess) >= 0
    assert excess[0] == shortest
    assert max(excess) == most_over
