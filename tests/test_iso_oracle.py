"""iso_search verdicts against an independent oracle, networkx's VF2
DiGraphMatcher, on every pair of class representatives for q <= 9."""

import pytest

from monomial_digraphs.field import field_for_order
from monomial_digraphs.digraph import build_monomial
from monomial_digraphs.iso import conjugate_classes, iso_search

nx = pytest.importorskip("networkx")
isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")


def _nx(D):
    G = nx.DiGraph()
    G.add_nodes_from(range(D.n))
    G.add_edges_from(D.arcs())
    return G


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_verdicts_match_digraph_matcher(q):
    F = field_for_order(q)
    reps = [cls.canonical_rep for cls in conjugate_classes(q)]
    D = {r: build_monomial(F, *r) for r in reps}
    G = {r: _nx(D[r]) for r in reps}
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            oracle = isomorphism.DiGraphMatcher(G[a], G[b]).is_isomorphic()
            verdict = iso_search(D[a], D[b]).verdict
            assert verdict == ("Iso" if oracle else "NonIso"), (q, a, b)
