"""vertex_seeds and the counts read from it, against brute force on small
digraphs without params, with loops and 2-cycles."""

import pytest

from monomial_digraphs.digraph import Digraph
from monomial_digraphs.invariants import (vertex_seeds, count_loops,
                                          two_cycle_count, motif_census)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def _adjacency(draw):
    n = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n),
                         min_size=n, max_size=n))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(_adjacency())
def test_vertex_seeds_match_bruteforce(adj):
    D = Digraph(adj)
    arcs = {(u, v) for u, nbrs in enumerate(adj) for v in nbrs}
    n = len(adj)
    looped = [v for v in range(n) if (v, v) in arcs]
    mutual = [sum(1 for w in range(n)
                  if w != v and (v, w) in arcs and (w, v) in arcs)
              for v in range(n)]
    assert vertex_seeds(D) == [2 * mutual[v] + (v in looped)
                               for v in range(n)]
    assert count_loops(D) == (len(looped), 0)
    assert two_cycle_count(D) == sum(mutual) // 2
    assert motif_census(D, "K") == sum(1 for a in looped for b in looped
                                       if a != b and (a, b) in arcs)
