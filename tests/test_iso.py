import hashlib
import json
from collections import Counter

import pytest

from monomial_digraphs.field import field_for_order, units_mod, poly_eval
from monomial_digraphs.digraph import (build_monomial, reverse, Digraph,
                                       MonomialParams)
from monomial_digraphs import iso
from monomial_digraphs.iso import (explicit_iso, power_map, psi_automorphism,
                                   compose, identity_map, verify_mapping,
                                   verify_power_map,
                                   conjugate_classes, stable_coloring,
                                   iso_search, extract_g, UndecidedError,
                                   FirstCoordinateDependenceError)


def build(q, m, n):
    return build_monomial(field_for_order(q), m, n)


def test_explicit_iso_examples():
    # 3 * (1, 2) = (3, 6) = (3, 2) mod 4
    assert explicit_iso(5, 1, 2, 3, 2) == 3
    assert explicit_iso(5, 1, 2, 1, 2) == 1
    assert explicit_iso(3, 1, 2, 2, 1) is None
    assert explicit_iso(17, 1, 4, 1, 12) is None


def test_power_map_is_isomorphism():
    for q, m1, n1, m2, n2 in ((5, 1, 2, 3, 2), (7, 1, 1, 5, 5),
                              (9, 1, 3, 5, 7)):
        k = explicit_iso(q, m1, n1, m2, n2)
        assert k is not None
        F = field_for_order(q)
        mapping = power_map(F, k)
        assert verify_mapping(build(q, m2, n2), build(q, m1, n1), mapping)


def test_psi_is_automorphism_of_order_six():
    F = field_for_order(7)
    D = build(7, 1, 2)
    c = F.primitive
    assert c == 3
    psi = psi_automorphism(F, 1, 2, c)
    assert verify_mapping(D, D, psi)
    # c generates GF(7)^*, so psi has multiplicative order 6
    power = identity_map(49)
    order = 0
    while True:
        power = compose(psi, power)
        order += 1
        if power == identity_map(49):
            break
    assert order == 6


def test_psi_rejects_zero():
    with pytest.raises(ValueError):
        psi_automorphism(field_for_order(5), 1, 1, 0)


def test_verify_mapping_examples():
    D = build(3, 1, 2)
    assert verify_mapping(D, D, identity_map(9))
    assert not verify_mapping(D, D, [0] * 9)           # not a bijection
    swapped = list(range(9))
    swapped[1], swapped[2] = 2, 1
    assert not verify_mapping(D, D, swapped)
    with pytest.raises(ValueError):
        verify_mapping(D, D, [0, 1, 2])
    # vertex 2 is isolated, so its image is never looked up as an arc
    # endpoint; -1 and 3 must still be rejected as out of range
    E = Digraph([[1], [0], []])
    assert verify_mapping(E, E, [1, 0, 2])
    assert not verify_mapping(E, E, [0, 1, -1])
    assert not verify_mapping(E, E, [0, 1, 3])


def _corrupted_power_maps(F, mapping, m, n):
    """Three corruptions of the power map (x, y) -> (a(x), y)."""
    q = F.q
    rows = [mapping[x * q:(x + 1) * q] for x in range(q)]
    powers = [(F.pow(x, m), F.pow(x, n)) for x in range(q)]
    # a(x1) and a(x2) swapped, where x1^m != x2^m
    x1, x2 = [(x, z) for x in range(q) for z in range(x + 1, q)
              if powers[x][0] != powers[z][0]][-1]
    swapped = list(rows)
    swapped[x1], swapped[x2] = rows[x2], rows[x1]
    # the images of (q-1, 0) and (q-1, q-1) swapped: no longer a product map
    broken = list(mapping)
    u, v = (q - 1) * q, q * q - 1
    broken[u], broken[v] = mapping[v], mapping[u]
    # row x1 repeated as row x2: a product map whose a is no permutation;
    # when x1 and x2 share both powers only that can reject it
    same = [(x, z) for x in range(q) for z in range(x + 1, q)
            if powers[x] == powers[z]]
    x1, x2 = same[0] if same else (0, 1)
    repeated = list(rows)
    repeated[x2] = rows[x1]
    return [sum(swapped, []), broken, sum(repeated, [])]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_verify_power_map_agrees_with_verify_mapping(q):
    F = field_for_order(q)
    built = {}

    def D(m, n):
        if (m, n) not in built:
            built[(m, n)] = build_monomial(F, m, n)
        return built[(m, n)]

    units = units_mod(q - 1)
    for cls in conjugate_classes(q):
        rep = cls.canonical_rep
        for member in cls.members:
            if member == rep:
                continue
            mapping = power_map(F, explicit_iso(q, *rep, *member))
            assert verify_power_map(F, mapping, member, rep)
            assert verify_mapping(D(*member), D(*rep), mapping)
            for bad in _corrupted_power_maps(F, mapping, *member):
                assert not verify_power_map(F, bad, member, rep)
                assert not verify_mapping(D(*member), D(*rep), bad)
            # a field-level accept of any power map implies an arc-level one
            for k in units:
                other = power_map(F, k)
                if verify_power_map(F, other, member, rep):
                    assert verify_mapping(D(*member), D(*rep), other)
    with pytest.raises(ValueError):
        verify_power_map(F, list(range(q * q - 1)), (1, 1), (1, 1))


def _classes_oracle(q):
    """Union-find over (m, n) pairs linked by unit multiplication."""
    pairs = [(m, n) for m in range(1, q) for n in range(1, q)]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for m, n in pairs:
        for k in units_mod(q - 1):
            m2 = (k * m - 1) % (q - 1) + 1
            n2 = (k * n - 1) % (q - 1) + 1
            ra, rb = find((m, n)), find((m2, n2))
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for p in pairs:
        groups.setdefault(find(p), set()).add(p)
    return sorted(frozenset(g) for g in groups.values())


@pytest.mark.parametrize("q", [3, 5, 8])
def test_conjugate_classes_against_union_find(q):
    classes = conjugate_classes(q)
    got = sorted(frozenset(c.members) for c in classes)
    assert got == _classes_oracle(q)
    for c in classes:
        assert c.canonical_rep == min(c.members)


def test_conjugate_class_counts_and_membership():
    assert len(conjugate_classes(3)) == 4
    assert len(conjugate_classes(5)) == 10
    cls = next(c for c in conjugate_classes(5) if (1, 2) in c.members)
    assert set(cls.members) == {(1, 2), (3, 2)}


def test_iso_search_on_explicit_pairs():
    for q, m1, n1, m2, n2 in ((5, 1, 2, 3, 2), (7, 2, 3, 4, 3),
                              (9, 1, 1, 3, 3)):
        assert explicit_iso(q, m1, n1, m2, n2) is not None
        cert = iso_search(build(q, m1, n1), build(q, m2, n2))
        assert cert.verdict == "Iso"
        assert verify_mapping(build(q, m1, n1), build(q, m2, n2),
                              list(cert.mapping))


def test_iso_search_filter_witnesses():
    cert = iso_search(build(11, 1, 1), build(11, 1, 3))
    assert cert.verdict == "NonIso" and cert.witness == "diff_bar"
    cert = iso_search(build(11, 1, 2), build(11, 1, 4))
    assert cert.verdict == "NonIso" and cert.witness == "sum_bar"
    cert = iso_search(build(11, 1, 2), build(11, 1, 10))
    assert cert.verdict == "NonIso" and cert.witness == "n_bar"


def test_iso_search_q17_motif_separated_pair():
    cert = iso_search(build(17, 1, 4), build(17, 1, 12))
    assert cert.verdict == "NonIso"
    assert cert.witness == "k_motif_count"


def test_iso_search_hard_reverse_pair():
    # all gcd and counting invariants coincide here; only the search decides
    cert = iso_search(build(8, 1, 2), build(8, 1, 4))
    assert cert.verdict == "NonIso"
    assert cert.witness == "search-exhausted"
    assert cert.nodes > 0


def test_iso_search_root_refinement_runs_once(monkeypatch):
    calls = []
    refine = iso._refine

    def counting_refine(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(iso, "_refine", counting_refine)
    cert = iso_search(build(11, 1, 3), build(11, 1, 7))
    assert cert.verdict == "NonIso"
    assert cert.witness == "color-refinement"
    assert cert.nodes == 0
    assert len(calls) == 1


def test_iso_search_budget():
    # 42 nodes with automorphism pruning
    with pytest.raises(UndecidedError):
        iso_search(build(16, 3, 6), build(16, 3, 9), budget=10)
    # params-free copies are searched without pruning: 8 nodes
    with pytest.raises(UndecidedError):
        iso_search(Digraph(build(8, 1, 2).adj), Digraph(build(8, 1, 4).adj),
                   budget=1)


def _edge_label_dict(D):
    """The arc labels as a dict keyed by (u, v): four common-neighbourhood
    sizes per arc, computed without packing."""
    outs = [set(a) for a in D.adj]
    ins = [set(a) for a in D.radj]
    lab = {}
    for u in range(D.n):
        ou, iu = outs[u], ins[u]
        for v in D.adj[u]:
            lab[(u, v)] = (len(ou & outs[v]), len(ou & ins[v]),
                           len(iu & outs[v]), len(iu & ins[v]))
    return lab


def _unpack(label, base):
    digits = []
    for _ in range(4):
        label, d = divmod(label, base)
        digits.append(d)
    assert label == 0
    return tuple(reversed(digits))


@pytest.mark.parametrize("q, m, n", [(8, 1, 2), (9, 2, 5), (16, 3, 6)])
def test_edge_labels_aligned_with_adjacency(q, m, n):
    D = build(q, m, n)
    oracle = _edge_label_dict(D)
    out, inn = iso._edge_labels(D)
    base = D.n + 1
    assert [len(row) for row in out] == [len(row) for row in D.adj]
    assert [len(row) for row in inn] == [len(row) for row in D.radj]
    for u, nbrs in enumerate(D.adj):
        for i, v in enumerate(nbrs):
            assert _unpack(out[u][i], base) == oracle[(u, v)]
    for v, tails in enumerate(D.radj):
        for i, u in enumerate(tails):
            assert _unpack(inn[v][i], base) == oracle[(u, v)]


_NULL_SHA = "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"


# (q, m1, n1, m2, n2) -> verdict, witness, nodes and the sha256 of the JSON
# mapping, as `mdg iso --json` prints them.  The networkx oracle checks
# verdicts only; these pins also catch a change to the refinement's colour
# order or the search's branching order, which moves nodes and mappings.
GOLDEN_CERTIFICATES = {
    (16, 1, 2, 1, 8): ("NonIso", "search-exhausted", 1, _NULL_SHA),
    (16, 1, 7, 1, 13): ("NonIso", "search-exhausted", 1, _NULL_SHA),
    (16, 3, 6, 3, 9): ("NonIso", "search-exhausted", 42, _NULL_SHA),
    (8, 1, 2, 1, 4): ("NonIso", "search-exhausted", 1, _NULL_SHA),
    (11, 1, 3, 1, 7): ("NonIso", "color-refinement", 0, _NULL_SHA),
    (17, 1, 4, 1, 12): ("NonIso", "k_motif_count", 0, _NULL_SHA),
    (16, 1, 2, 2, 4): ("Iso", None, 5, "42a77da40cc2c5c9d1a2a993855e4936"
                       "5598477db9ec1e5d95bfe740d55af63a"),
    (16, 3, 6, 6, 12): ("Iso", None, 165, "15ca0e9d97ae153511f54f391ceea622"
                        "cf07f5ab7598573e7c914a85129f1536"),
    (8, 1, 2, 2, 4): ("Iso", None, 3, "f33bcf86883bada33423e819ee9a1c32"
                      "2d898e3cb870de454ee6d8cd0f775f69"),
    (9, 1, 2, 3, 6): ("Iso", None, 2, "cf5bcc3ecb5e54a18e5eda12d186d2bc"
                      "5649d4113e9f2fcb0f01682f7c841f99"),
    (13, 1, 2, 5, 10): ("Iso", None, 2, "474b2820b714ae932664371f03f8f697"
                        "7add7a1474e04feb86b19cb23e55374a"),
}


@pytest.mark.parametrize("pair", list(GOLDEN_CERTIFICATES))
def test_golden_certificates(pair):
    q, m1, n1, m2, n2 = pair
    doc = iso_search(build(q, m1, n1), build(q, m2, n2)).as_dict()
    digest = hashlib.sha256(json.dumps(doc["mapping"]).encode()).hexdigest()
    assert (doc["verdict"], doc["witness"], doc["nodes"], digest) == \
        GOLDEN_CERTIFICATES[pair]


def _family_maps(D):
    elements, apply = iso._known_automorphisms(D)
    return [[apply(g, v) for v in range(D.n)] for g in elements]


@pytest.mark.parametrize("q, pairs", [
    (4, None), (5, None), (9, None),
    (8, [(1, 2), (1, 3), (1, 4), (1, 5)]),   # the q = 8 reps that branch
])
def test_known_automorphisms_are_automorphisms(q, pairs):
    F = field_for_order(q)
    if pairs is None:
        pairs = [(m, n) for m in range(1, q) for n in range(1, q)]
    order = (q - 1) * F.e * (q if F.p == 2 else 1)
    for m, n in pairs:
        D = build(q, m, n)
        maps = _family_maps(D)
        assert maps[0] == identity_map(D.n)
        assert len({tuple(f) for f in maps}) == order
        for f in maps:
            assert verify_mapping(D, D, f)


def _pruned_and_unpruned(D1, D2):
    pruned = iso_search(D1, D2)
    unpruned = iso_search(Digraph(D1.adj), Digraph(D2.adj))
    assert (pruned.verdict, pruned.mapping, pruned.witness) == \
        (unpruned.verdict, unpruned.mapping, unpruned.witness)
    assert pruned.nodes <= unpruned.nodes
    return pruned, unpruned


@pytest.mark.parametrize("q", [7, 8, 9])
def test_pruned_search_matches_unpruned_within_classes(q):
    for cls in conjugate_classes(q):
        rep = build(q, *cls.canonical_rep)
        for m, n in cls.members:
            if (m, n) != cls.canonical_rep:
                cert, _ = _pruned_and_unpruned(build(q, m, n), rep)
                assert cert.verdict == "Iso"


@pytest.mark.parametrize("q, a, b", [(8, (1, 2), (1, 4)),
                                     (16, (1, 2), (1, 8)),
                                     (16, (1, 7), (1, 13))])
def test_pruned_search_matches_unpruned_across_classes(q, a, b):
    pruned, unpruned = _pruned_and_unpruned(build(q, *a), build(q, *b))
    assert pruned.witness == "search-exhausted"
    assert pruned.nodes < unpruned.nodes


def test_iso_search_decides_budgeted_q16_pair():
    cert = iso_search(build(16, 3, 6), build(16, 3, 9), budget=100)
    assert cert.verdict == "NonIso"
    assert cert.witness == "search-exhausted"


def test_mismatched_params_fall_back_to_unpruned_search():
    D = build(8, 1, 2)
    wrong = Digraph(D.adj, field=D.field, params=MonomialParams(8, 1, 4))
    assert iso._known_automorphisms(wrong) is None
    cert = iso_search(D, wrong)
    assert cert.verdict == "Iso"
    assert verify_mapping(D, wrong, list(cert.mapping))
    assert cert.mapping == iso_search(Digraph(D.adj), Digraph(D.adj)).mapping


def test_iso_search_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        iso_search(build(2, 1, 1), build(3, 1, 1))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_stable_coloring_multisets_agree_on_isomorphic_pairs(q):
    for cls in conjugate_classes(q):
        rep = cls.canonical_rep
        base = Counter(Counter(stable_coloring(build(q, *rep))).values())
        for m, n in cls.members:
            other = Counter(Counter(stable_coloring(build(q, m, n))).values())
            assert other == base


def test_extract_g_of_power_map():
    F = field_for_order(9)
    s = extract_g(power_map(F, 3), F)
    assert s.fixes_origin and s.preserves_zero_column
    assert s.g_values == tuple(range(9))      # second coordinate untouched
    assert s.odd_degree_only and s.is_permutation
    assert s.all_hold
    assert poly_eval(F, list(s.coefficients), 2) == 2


def test_extract_g_of_psi():
    F = field_for_order(7)
    s = extract_g(psi_automorphism(F, 1, 2, 3), F)
    assert s.all_hold
    # g(y) = 3^3 * y = 6y, an odd monomial
    assert s.g_values == tuple(F.mul(6, y) for y in range(7))


def test_extract_g_detects_first_coordinate_dependence():
    F = field_for_order(3)
    swap = [(v % 3) * 3 + v // 3 for v in range(9)]
    with pytest.raises(FirstCoordinateDependenceError):
        extract_g(swap, F)
    with pytest.raises(ValueError):
        extract_g([0, 1, 2], F)
