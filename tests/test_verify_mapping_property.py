"""verify_mapping against a brute-force oracle on small random digraphs
and random vertex maps, including non-bijective, negative and
out-of-range images."""

import pytest

from monomial_digraphs.digraph import Digraph
from monomial_digraphs.iso import verify_mapping

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _oracle(arcs1, arcs2, n, f):
    """f is a bijection of range(n) with (u, v) in arcs1 <=>
    (f(u), f(v)) in arcs2, tested over all n^2 vertex pairs."""
    if set(f) != set(range(n)):
        return False
    return all(((u, v) in arcs1) == ((f[u], f[v]) in arcs2)
               for u in range(n) for v in range(n))


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 6))
    rows = st.lists(st.lists(st.integers(0, n - 1), max_size=n),
                    min_size=n, max_size=n)
    adj1 = draw(rows)
    perm = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        # D2 is D1 relabelled by perm, so perm itself is an isomorphism
        adj2 = [[] for _ in range(n)]
        for u, nbrs in enumerate(adj1):
            adj2[perm[u]] = [perm[v] for v in nbrs]
    else:
        adj2 = draw(rows)
    image = st.integers(-n - 1, 2 * n)
    kind = draw(st.sampled_from(("perm", "perturbed", "random")))
    if kind == "perm":
        mapping = list(perm)
    elif kind == "perturbed":
        mapping = list(perm)
        mapping[draw(st.integers(0, n - 1))] = draw(image)
    else:
        mapping = draw(st.lists(image, min_size=n, max_size=n))
    return n, adj1, adj2, mapping


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(_cases())
def test_verify_mapping_matches_bruteforce(case):
    n, adj1, adj2, mapping = case
    arcs1 = {(u, v) for u, nbrs in enumerate(adj1) for v in nbrs}
    arcs2 = {(u, v) for u, nbrs in enumerate(adj2) for v in nbrs}
    assert (verify_mapping(Digraph(adj1), Digraph(adj2), mapping)
            == _oracle(arcs1, arcs2, n, mapping))
