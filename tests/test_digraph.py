import math
from collections import Counter
from itertools import permutations

import pytest

from monomial_digraphs.field import field_for_order
from monomial_digraphs.digraph import (MonomialParams, Digraph,
                                       MonomialDigraph,
                                       build_monomial, reverse,
                                       bipartite_cover, strong_components,
                                       diameter, count_cycles_by_length,
                                       export, BudgetExceededError,
                                       check_order, MAX_VERTICES)
from monomial_digraphs.invariants import two_cycle_count

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]

# The arc set of D(3;1,2), vertex (x1,x2) as pairs, listed by hand:
# 24 plain arcs plus loops at (0,0), (2,1), (1,2).
FIG1_ARCS = [
    ((1, 0), (0, 0)), ((1, 0), (2, 1)), ((1, 0), (1, 1)),
    ((0, 0), (1, 0)), ((0, 0), (2, 0)),
    ((2, 0), (0, 0)), ((2, 0), (2, 2)), ((2, 0), (1, 2)),
    ((2, 1), (1, 1)), ((2, 1), (0, 2)),
    ((1, 1), (1, 0)), ((1, 1), (2, 0)), ((1, 1), (0, 2)),
    ((2, 2), (1, 0)), ((2, 2), (2, 0)), ((2, 2), (0, 1)),
    ((1, 2), (2, 2)), ((1, 2), (0, 1)),
    ((0, 2), (2, 1)), ((0, 2), (1, 1)), ((0, 2), (0, 1)),
    ((0, 1), (2, 2)), ((0, 1), (1, 2)), ((0, 1), (0, 2)),
    ((0, 0), (0, 0)), ((2, 1), (2, 1)), ((1, 2), (1, 2)),
]


def fig1_arc_ids(q=3):
    return sorted((x[0] * q + x[1], y[0] * q + y[1]) for x, y in FIG1_ARCS)


def build(q, m, n):
    return build_monomial(field_for_order(q), m, n)


def test_monomial_params_validation():
    with pytest.raises(ValueError):
        MonomialParams(3, 0, 1)
    with pytest.raises(ValueError):
        MonomialParams(3, 1, 99)


def test_check_order_bound():
    check_order(128)                    # 16384 = MAX_VERTICES vertices
    with pytest.raises(ValueError, match=str(MAX_VERTICES)):
        check_order(131)


def test_fig1_arc_set():
    D = build(3, 1, 2)
    assert sorted(D.arcs()) == fig1_arc_ids()


def _arcs_by_rule(F, m, n):
    """Every pair of vertices tested against x2 + y2 = x1^m * y1^n."""
    q = F.q
    return {(x1 * q + x2, y1 * q + y2)
            for x1 in range(q) for x2 in range(q)
            for y1 in range(q) for y2 in range(q)
            if F.add(x2, y2) == F.mul(F.pow(x1, m), F.pow(y1, n))}


@pytest.mark.parametrize("q, pairs", [
    (4, None), (8, None), (9, None),           # e > 1: digit arithmetic
    (5, [(1, 2), (3, 4)]), (7, [(1, 2), (3, 5)]), (16, [(1, 2), (3, 5)]),
])
def test_arc_set_against_rule(q, pairs):
    F = field_for_order(q)
    if pairs is None:
        pairs = [(m, n) for m in range(1, q) for n in range(1, q)]
    for m, n in pairs:
        assert set(build_monomial(F, m, n).arcs()) == _arcs_by_rule(F, m, n)


def test_fig1_spot_checks():
    D = build(3, 1, 2)
    # (1,0) -> (0,0) present
    assert D.has_arc(1 * 3 + 0, 0)
    loops = [v for v in range(9) if D.has_arc(v, v)]
    assert loops == sorted([0, 2 * 3 + 1, 1 * 3 + 2])
    # no arc (0,0) -> (1,1): 0 + 1 != 0^1 * 1^2
    assert not D.has_arc(0, 1 * 3 + 1)


@pytest.mark.parametrize("q", SMALL_Q)
def test_degree_regularity(q):
    for m in range(1, q):
        for n in range(1, q):
            D = build(q, m, n)
            assert all(len(nbrs) == q for nbrs in D.adj)
            assert all(len(nbrs) == q for nbrs in D.radj)


@pytest.mark.parametrize("q", SMALL_Q)
def test_reverse_duality(q):
    for m in range(1, q):
        for n in range(1, q):
            R = reverse(build(q, m, n))
            B = build(q, n, m)
            assert R.adj == B.adj
            assert R.params == B.params


def test_reverse_is_involution_and_preserves_loops():
    D = build(5, 2, 3)
    assert reverse(reverse(D)).adj == D.adj
    loops = {v for v in range(D.n) if D.has_arc(v, v)}
    R = reverse(D)
    assert loops == {v for v in range(R.n) if R.has_arc(v, v)}


def test_reverse_keeps_provenance():
    # the reverse of D(q; m, n) is D(q; n, m), so it may be counted from
    # the field; a hand-built digraph stays one
    D = build(5, 2, 3)
    assert isinstance(reverse(D), MonomialDigraph)
    hand = Digraph(D.adj, field=D.field, params=D.params)
    assert type(reverse(hand)) is Digraph


def test_bipartite_cover():
    D = build(3, 1, 2)
    cover = bipartite_cover(D)
    assert cover.n == 9             # 2 * 9 = 18 vertices over both classes
    assert len(cover.edges) == 27
    degrees = Counter({v: 3 for v in range(9)})
    assert Counter(x for x, _ in cover.edges) == degrees
    assert Counter(y for _, y in cover.edges) == degrees
    # cover of reverse(D) is the class swap
    rcover = bipartite_cover(reverse(D))
    assert set(rcover.edges) == {(y, x) for x, y in cover.edges}


def _reachability_closure(D):
    reach = [[False] * D.n for _ in range(D.n)]
    for u in range(D.n):
        reach[u][u] = True
        for v in D.adj[u]:
            reach[u][v] = True
    for k in range(D.n):
        for i in range(D.n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(D.n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def _scc_oracle(D):
    reach = _reachability_closure(D)
    seen = set()
    comps = []
    for u in range(D.n):
        if u in seen:
            continue
        comp = [v for v in range(D.n) if reach[u][v] and reach[v][u]]
        seen.update(comp)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def test_d211_is_strong():
    D = build(2, 1, 1)
    assert strong_components(D) == [[0, 1, 2, 3]]


# every (m, n) at q <= 5, and the digraphs at q = 8, 9 with several
# strong components: D(8; 7, 7) has 4, the others 2 each
ORACLE_INPUTS = {q: [(m, n) for m in range(1, q) for n in range(1, q)]
                 for q in (2, 3, 4, 5)}
ORACLE_INPUTS[8] = [(7, 7)]
ORACLE_INPUTS[9] = [(4, 4), (4, 8), (8, 4), (8, 8)]


@pytest.mark.parametrize("q", sorted(ORACLE_INPUTS))
def test_strong_components_against_closure_oracle(q):
    for m, n in ORACLE_INPUTS[q]:
        D = build(q, m, n)
        assert strong_components(D) == _scc_oracle(D)


def _component_diameter_oracle(D, comps):
    """Max distance over ordered pairs within each component, by a BFS
    that never leaves the component."""
    best = 0
    for comp in comps:
        inside = set(comp)
        for u in comp:
            dist = {u: 0}
            frontier = [u]
            while frontier:
                nxt = []
                for w in frontier:
                    for v in D.adj[w]:
                        if v in inside and v not in dist:
                            dist[v] = dist[w] + 1
                            nxt.append(v)
                frontier = nxt
            assert len(dist) == len(comp)
            best = max(best, max(dist.values()))
    return best


@pytest.mark.parametrize("q", sorted(ORACLE_INPUTS))
def test_component_diameter_against_closure_oracle(q):
    for m, n in ORACLE_INPUTS[q]:
        D = build(q, m, n)
        expected = _component_diameter_oracle(D, _scc_oracle(D))
        assert diameter(D, restrict_to_component=True) == expected


def test_strong_components_two_loops():
    D = Digraph([[0], [1]])
    assert strong_components(D) == [[0], [1]]


def test_diameter_examples():
    assert diameter(Digraph([[0]])) == 0
    D = build(2, 1, 1)
    # oracle: Floyd-Warshall on the 4-vertex digraph
    INF = float("inf")
    dist = [[0 if i == j else (1 if D.has_arc(i, j) else INF)
             for j in range(4)] for i in range(4)]
    for k in range(4):
        for i in range(4):
            for j in range(4):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    expected = max(max(row) for row in dist)
    assert diameter(D) == expected == 3


def test_diameter_infinite_when_not_strong():
    D = Digraph([[1], []])
    assert diameter(D) == math.inf
    assert diameter(D, restrict_to_component=True) == 0


def _cycle_oracle(D, L):
    """Count directed cycles up to rotation by brute enumeration."""
    counts = [0] * L
    for length in range(1, L + 1):
        seen = set()
        for seq in permutations(range(D.n), length):
            if any(not D.has_arc(seq[i], seq[(i + 1) % length])
                   for i in range(length)):
                continue
            shift = seq.index(min(seq))
            canon = seq[shift:] + seq[:shift]
            seen.add(canon)
        counts[length - 1] = len(seen)
    return counts


def test_cycle_counts_examples():
    D = build(3, 1, 2)
    assert count_cycles_by_length(D, 1) == [3]
    assert count_cycles_by_length(D, 2) == [3, 9]
    assert count_cycles_by_length(D, 2)[1] == two_cycle_count(D)


def test_cycle_counts_against_oracle():
    for q, m, n, L in ((2, 1, 1, 4), (3, 1, 2, 3), (3, 2, 2, 3)):
        D = build(q, m, n)
        assert count_cycles_by_length(D, L) == _cycle_oracle(D, L)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_cycle_counts_reversal_invariant(q):
    L = 6 if q < 5 else 5
    for m in range(1, q):
        for n in range(1, q):
            D = build(q, m, n)
            assert (count_cycles_by_length(D, L)
                    == count_cycles_by_length(reverse(D), L))


def test_cycle_budget_enforced():
    D = build(5, 1, 1)
    with pytest.raises(BudgetExceededError):
        count_cycles_by_length(D, 6, budget=50)


def test_export_arcs_text():
    D = build(2, 1, 1)
    text = export(D, "arcs-text")
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines[0] == "0,0 -> 0,0"
    assert text.endswith("\n")
    assert lines == sorted(lines, key=lambda s: tuple(
        int(t) for part in s.split(" -> ") for t in part.split(",")))


def test_export_dot_matches_fig1():
    D = build(3, 1, 2)
    dot = export(D, "dot")
    assert dot.startswith("digraph D {")
    for (x, y) in fig1_arc_ids():
        assert f"v{x} -> v{y};" in dot
    assert dot.count("->") == 27


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(build(2, 1, 1), "gml")
