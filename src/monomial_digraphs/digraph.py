"""Monomial digraphs on GF(q)^2 and the generic digraph algorithms.

Vertex (x1, x2) gets id x1 * q + x2.  There is an arc
(x1, x2) -> (y1, y2) exactly when x2 + y2 = x1^m * y1^n, so every vertex
has out-degree and in-degree q.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

from .field import Field

DEFAULT_CYCLE_BUDGET = 10 ** 8
# check_order, and so build_monomial and the sweep, refuse larger digraphs:
# q <= 128
MAX_VERTICES = 1 << 14


class BudgetExceededError(Exception):
    """A work budget ran out before the computation finished."""


@dataclass(frozen=True)
class MonomialParams:
    q: int
    m: int
    n: int

    def __post_init__(self):
        if not (1 <= self.m <= self.q - 1 and 1 <= self.n <= self.q - 1):
            raise ValueError(
                f"require 1 <= m, n <= q-1, got (q, m, n) = "
                f"({self.q}, {self.m}, {self.n})")


class Digraph:
    """Materialized adjacency; immutable after construction.

    `field` and `params` are set for monomial digraphs and carried through
    reverse(), so invariant code can recover (q, m, n).
    """

    def __init__(self, adjacency, field=None, params=None):
        self.adj = [sorted(set(nbrs)) for nbrs in adjacency]
        self.n = len(self.adj)
        self.field = field
        self.params = params
        self._radj = None

    @property
    def radj(self):
        """In-neighbor lists, built on first use."""
        if self._radj is None:
            self._radj = transpose(self.adj)
        return self._radj

    def has_arc(self, u, v):
        nbrs = self.adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def arcs(self):
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                yield u, v


def transpose(adj):
    """In-neighbor lists of the out-neighbor lists adj; each in ascending
    order of tail."""
    radj = [[] for _ in adj]
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            radj[v].append(u)
    return radj


def check_order(q: int):
    """Raise ValueError when D(q; m, n), with q^2 vertices, would exceed
    MAX_VERTICES."""
    if q * q > MAX_VERTICES:
        raise ValueError(f"q = {q} gives {q * q} vertices, more than the "
                         f"implementation bound {MAX_VERTICES}")


class MonomialDigraph(Digraph):
    """A digraph that build_monomial made: its arcs are exactly those of
    D(params.q; params.m, params.n) over `field`, so counts over its arcs
    may be read from the field instead.  A Digraph given a field and
    params by hand carries no such guarantee and is counted from its
    arcs."""


def build_monomial(field: Field, m: int, n: int) -> MonomialDigraph:
    """Build D(q; m, n): arc (x1,x2)->(y1,y2) iff x2 + y2 = x1^m * y1^n.

    Raises ValueError, before building anything, when q^2 exceeds
    MAX_VERTICES.
    """
    q = field.q
    check_order(q)
    params = MonomialParams(q, m, n)
    xm, yn = field.powers(m), field.powers(n)
    # diff[c][x2] = c - x2: the head's second coordinate y2 for every x2
    mul, diff = field.mul_table, field.sub_table
    adj = []
    for a in xm:
        # column y1 holds the heads (y1, c - x2) for x2 = 0..q-1, so the
        # transposed columns are the rows of the vertices (x1, x2)
        cols = [[y1 * q + y2 for y2 in diff[mul[a][b]]]
                for y1, b in enumerate(yn)]
        adj.extend(zip(*cols))
    return MonomialDigraph(adj, field, params)


def psi(field: Field, m: int, n: int, c: int):
    """psi_c: (x, y) -> (c * x, c^(m+n) * y), an automorphism of D(q; m, n)
    (multiply x2 + y2 = x1^m * y1^n by c^(m+n)), as its coordinate tables
    (xs, ys), rows of field.mul_table.  Raises ValueError unless
    1 <= c <= q-1.

    Each (x1, x2) with x1 != 0 is psi_x1 of (1, x2 * x1^-(m+n)), so a
    count that automorphisms keep is read off the 2q vertices (0, t) and
    (1, t): (x1, x2) reads that of its image under psi(field, m, n, 1/x1).
    """
    if not 1 <= c < field.q:
        raise ValueError(f"c = {c} is not a nonzero element of GF({field.q})")
    mul = field.mul_table
    return mul[c], mul[field.pow(c, m + n)]


def reverse(D: Digraph) -> Digraph:
    """The digraph with every arc of D turned round.  The reverse of
    D(q; m, n) is D(q; n, m) on the same ids, so a MonomialDigraph stays
    one."""
    params = None
    if D.params is not None:
        params = MonomialParams(D.params.q, D.params.n, D.params.m)
    return type(D)(D.radj, field=D.field, params=params)


@dataclass(frozen=True)
class BipartiteCover:
    """Two copies X, Y of the vertex set; x ~ y iff x -> y in D."""

    n: int                 # size of each class
    edges: tuple           # sorted (x, y) pairs, ids within each class


def bipartite_cover(D: Digraph) -> BipartiteCover:
    return BipartiteCover(n=D.n, edges=tuple(sorted(D.arcs())))


def strong_components(D: Digraph):
    """Strongly connected components, ordered by smallest member id.

    Kosaraju: a depth-first pass over the out-rows records the order in
    which vertices finish; then, in reverse finishing order, each vertex
    not yet placed collects its component by a walk over the in-rows.
    Each component is a sorted list of vertex ids.
    """
    finished = []
    seen = [False] * D.n
    for root in range(D.n):
        if seen[root]:
            continue
        seen[root] = True
        # the stack holds (vertex, iterator over its out-neighbors)
        stack = [(root, iter(D.adj[root]))]
        while stack:
            for w in stack[-1][1]:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(D.adj[w])))
                    break
            else:
                finished.append(stack.pop()[0])
    placed = [False] * D.n
    comps = []
    for root in reversed(finished):
        if placed[root]:
            continue
        placed[root] = True
        comp = [root]
        for v in comp:              # comp grows as the walk reaches vertices
            for w in D.radj[v]:
                if not placed[w]:
                    placed[w] = True
                    comp.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def _bfs_dists(D: Digraph, src: int):
    dist = [-1] * D.n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for v in D.adj[u]:
                if dist[v] == -1:
                    dist[v] = du
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(D: Digraph, restrict_to_component: bool = False):
    """Max over ordered vertex pairs of shortest-path length.

    Returns math.inf when some pair is unreachable and
    restrict_to_component is false; with the restriction, the max is taken
    within strong components only, where every distance is finite.
    """
    comp_of = [0] * D.n
    if restrict_to_component:
        for i, comp in enumerate(strong_components(D)):
            for v in comp:
                comp_of[v] = i
    best = 0
    for u in range(D.n):
        for v, d in enumerate(_bfs_dists(D, u)):
            if comp_of[v] == comp_of[u]:
                if d == -1:
                    return math.inf
                if d > best:
                    best = d
    return best


def count_cycles_by_length(D: Digraph, L: int,
                           budget: int = DEFAULT_CYCLE_BUDGET):
    """Counts of directed cycles per length 1..L.

    Cycles are vertex sequences up to rotation (a cycle and its reverse are
    distinct unless identical).  Each cycle is counted once, at its minimal
    vertex.  Raises BudgetExceededError past `budget` extension steps.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    counts = [0] * L
    steps = 0
    in_path = [False] * D.n
    for root in range(D.n):
        # DFS over simple paths root -> ... using only vertices >= root;
        # the stack holds (vertex, iterator over its out-neighbors)
        in_path[root] = True
        stack = [(root, iter(D.adj[root]))]
        while stack:
            for v in stack[-1][1]:
                steps += 1
                if steps > budget:
                    raise BudgetExceededError(
                        f"cycle enumeration exceeded {budget} steps")
                if v == root:
                    counts[len(stack) - 1] += 1
                    continue
                if v < root or in_path[v] or len(stack) >= L:
                    continue
                in_path[v] = True
                stack.append((v, iter(D.adj[v])))
                break
            else:
                in_path[stack.pop()[0]] = False
    return counts


def export(D: Digraph, fmt: str = "arcs-text") -> str:
    """Serialize a q^2-vertex digraph.

    arcs-text: one arc per line "x1,x2 -> y1,y2", sorted by (tail, head),
    LF endings.  dot: standard digraph with "(x1,x2)" vertex labels.
    """
    q = math.isqrt(D.n)
    if q * q != D.n:
        raise ValueError("export requires a q^2-vertex digraph")
    if fmt == "arcs-text":
        lines = []
        for u, v in D.arcs():
            x1, x2 = divmod(u, q)
            y1, y2 = divmod(v, q)
            lines.append(f"{x1},{x2} -> {y1},{y2}")
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["digraph D {"]
        for vid in range(D.n):
            x1, x2 = divmod(vid, q)
            lines.append(f'  v{vid} [label="({x1},{x2})"];')
        for u, v in D.arcs():
            lines.append(f"  v{u} -> v{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
