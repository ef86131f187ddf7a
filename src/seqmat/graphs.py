"""Digraphs as GF(2) adjacency matrices and their in-place constructions.

Arc convention: (x_u, x_v) is an arc iff adjacency[u][v] = 1, i.e. the
assignment of vertex u reads vertex v.  A graph constructs another by
running its adjacency rows as in-place assignments; reflexive graphs
(regular adjacency) always have a constructor.  Two rewrites preserve
the constructed graph: redirecting a chain arc to an earlier chain
vertex, and collapsing a linear order onto its lowest arc.
"""

from __future__ import annotations

from .errors import PreconditionError
from .matrix import Matrix, is_regular, require_gf2, seq_equivalent, seq_matrix
from .record import Record, set_field
from .regularize import regularize
from .sequentialize import preimage_search


class Digraph(Record):
    """Finite digraph on vertices x1..xn, stored as its adjacency matrix."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: Matrix) -> None:
        require_gf2(adjacency, "digraph adjacency")
        set_field(self, "adjacency", adjacency)

    @property
    def n(self) -> int:
        return self.adjacency.n

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as 1-based (source, target) pairs, sorted."""
        return [
            (u + 1, v + 1)
            for u, row in enumerate(self.adjacency.rows)
            for v, bit in enumerate(row)
            if bit
        ]


def is_reflexive(G: Digraph) -> bool:
    return is_regular(G.adjacency)


def constructs(G: Digraph) -> Digraph:
    """The graph G builds: adjacency = seq_matrix of G's adjacency."""
    return Digraph(seq_matrix(G.adjacency))


def constructor_of(G: Digraph):
    """A graph that constructs G.

    Reflexive G: the regularized adjacency, whose construction equals G
    once its diagonal is forced back to ones.  Otherwise the first exact
    constructor, which preimage_search finds in one forward elimination
    on packed rows; None when G has none.
    """
    if is_reflexive(G):
        return Digraph(regularize(G.adjacency))
    found = preimage_search(G.adjacency)
    return None if found is None else Digraph(found)


def graph_equivalent(G: Digraph, H: Digraph) -> bool:
    """True iff G and H construct the same graph."""
    return seq_equivalent(G.adjacency, H.adjacency)


def _check_span(n: int, p: int, q: int) -> None:
    if not 1 <= p < q <= n:
        raise PreconditionError(f"need 1 <= p < q <= n, got p={p}, q={q}, n={n}")


def chain_rewrite(G: Digraph, p: int, q: int, i: int, j: int) -> Digraph:
    """Redirect one chain arc; the result constructs the same graph.

    Vertices x_p..x_q must form a strict chain: for each r in p+1..q,
    row r holds exactly the single arc (x_r, x_{r-1}).  The arc
    (x_{i+1}, x_i) is replaced by (x_{i+1}, x_j) for any p <= j <= i.
    All vertex indices are 1-based.
    """
    n = G.n
    _check_span(n, p, q)
    if not p <= i < q:
        raise PreconditionError(f"need p <= i < q, got i={i}")
    if not p <= j <= i:
        raise PreconditionError(f"need p <= j < i+1, got j={j}")
    rows = [list(r) for r in G.adjacency.rows]
    for r in range(p + 1, q + 1):
        row = rows[r - 1]
        if any(row[t] for t in range(n) if t != r - 2) or not row[r - 2]:
            raise PreconditionError(
                f"row {r} is not in strict chain form (single arc to x{r - 1})"
            )
    rows[i][i - 1] = 0
    rows[i][j - 1] = 1
    return Digraph(Matrix(G.adjacency.field, tuple(tuple(r) for r in rows)))


def linorder_rewrite(G: Digraph, p: int, q: int) -> Digraph:
    """Collapse a linear order onto its lowest arc; same constructed graph.

    Vertices x_p..x_q must form a strict linear order: for each r in
    p+1..q, row r holds exactly the arcs (x_r, x_c) for p <= c < r.
    Every such arc is removed except (x_{p+1}, x_p).  The collapse
    relies on x + x = 0, hence GF(2) only.  Indices are 1-based.
    """
    n = G.n
    _check_span(n, p, q)
    rows = [list(r) for r in G.adjacency.rows]
    for r in range(p + 1, q + 1):
        row = rows[r - 1]
        expected = set(range(p - 1, r - 1))
        actual = {t for t in range(n) if row[t]}
        if actual != expected:
            raise PreconditionError(
                f"row {r} is not in strict linear-order form (arcs to x{p}..x{r - 1})"
            )
    for r in range(p + 2, q + 1):
        row = rows[r - 1]
        for c in range(p - 1, r - 1):
            row[c] = 0
    return Digraph(Matrix(G.adjacency.field, tuple(tuple(r) for r in rows)))


def to_dot(G: Digraph) -> str:
    """DOT text: every vertex declared, arcs sorted by source then target."""
    lines = ["digraph {"]
    lines += [f"  x{v};" for v in range(1, G.n + 1)]
    lines += [f"  x{u} -> x{v};" for u, v in G.arcs()]
    lines.append("}")
    return "\n".join(lines) + "\n"
