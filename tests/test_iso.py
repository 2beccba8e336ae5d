import gc
import hashlib
import importlib
import inspect
import json
import sys
import weakref
from collections import Counter
from itertools import combinations

import pytest

from monomial_digraphs.field import field_for_order, units_mod, poly_eval
from monomial_digraphs.digraph import (build_monomial, reverse, Digraph,
                                       MonomialParams)
from monomial_digraphs import invariants, iso
from monomial_digraphs.iso import (explicit_iso, power_map, psi_automorphism,
                                   compose, identity_map, verify_mapping,
                                   verify_power_map,
                                   conjugate_classes, stable_coloring,
                                   iso_search, extract_g, UndecidedError,
                                   FirstCoordinateDependenceError)

sweep_mod = importlib.import_module("monomial_digraphs.sweep")


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


def test_power_map_rejects_nonpositive_k():
    # x -> x^0 would send every nonzero x to 1: no permutation
    F = field_for_order(5)
    for k in (0, -1):
        with pytest.raises(ValueError):
            power_map(F, k)


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
    # c is an element index 1..q-1: -1 is not the element -1, and q none
    for q in (5, 9):
        for c in (0, -1, q):
            with pytest.raises(ValueError):
                psi_automorphism(field_for_order(q), 1, 2, c)


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


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16])
def test_verify_power_map_first_coordinates_agree(q):
    # the q-entry first-coordinate map a gets the verdict of its vertex map
    F = field_for_order(q)
    maps = {k: power_map(F, k) for k in units_mod(q - 1)}
    firsts = {k: [v // q for v in vmap[::q]] for k, vmap in maps.items()}
    for cls in conjugate_classes(q):
        rep = cls.canonical_rep
        for member in cls.members:
            for k, vmap in maps.items():
                assert (verify_power_map(F, vmap, member, rep)
                        == verify_power_map(F, firsts[k], member, rep))
            a = firsts[explicit_iso(q, *rep, *member)]
            assert verify_power_map(F, a, member, rep)
            powers = [(F.pow(x, member[0]), F.pow(x, member[1]))
                      for x in range(q)]
            pairs = [(x, z) for x in range(q) for z in range(x + 1, q)]
            # a(x1) and a(x2) swapped, where x1 and x2 differ in a power
            x1, x2 = next((x, z) for x, z in pairs if powers[x] != powers[z])
            swapped = list(a)
            swapped[x1], swapped[x2] = a[x2], a[x1]
            assert not verify_power_map(F, swapped, member, rep)
            # a(x1) repeated as a(x2); when x1 and x2 share both powers,
            # only bijectivity can reject it
            x1, x2 = next((p for p in pairs if powers[p[0]] == powers[p[1]]),
                          (0, 1))
            repeated = list(a)
            repeated[x2] = a[x1]
            assert not verify_power_map(F, repeated, member, rep)
    with pytest.raises(ValueError):
        verify_power_map(F, list(range(q + 1)), (1, 1), (1, 1))
    # an exponent below 1 is rejected, as 0^0 is not defined
    with pytest.raises(ValueError):
        verify_power_map(F, list(range(q)), (0, 1), (1, 1))


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
        assert c.canonical_rep == min(c.members) == c.members[0]
    reps = [c.canonical_rep for c in classes]
    assert all(a < b for a, b in zip(reps, reps[1:]))


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


def test_iso_search_witness_on_every_rep_pair():
    # the profile's first differing field of PRUNING_FIELDS is the witness:
    # the filter's failed condition when it fails, else the K count
    kinds = Counter()
    for q in (5, 7, 8, 9, 11, 13):
        F = field_for_order(q)
        reps = [cls.canonical_rep for cls in conjugate_classes(q)]
        digraphs = {rep: build_monomial(F, *rep) for rep in reps}
        for a, b in combinations(reps, 2):
            filt = invariants.necessary_filter((q, *a), (q, *b))
            if filt.passed:
                k_a = invariants.field_profile(F, *a).k_motif_count
                if k_a == invariants.field_profile(F, *b).k_motif_count:
                    continue
                expected = "k_motif_count"
            else:
                expected = filt.failed_condition
            cert = iso_search(digraphs[a], digraphs[b])
            assert (cert.verdict, cert.witness, cert.nodes) == \
                ("NonIso", expected, 0), (q, a, b)
            kinds[expected] += 1
    assert set(kinds) == set(invariants.PRUNING_FIELDS)


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


def test_group_is_built_only_when_the_root_branches(monkeypatch):
    calls = Counter()
    for name in ("_refine", "_known_automorphisms"):
        original = getattr(iso, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(iso, name, counting)
    # the root refinement separates this pair
    assert iso_search(build(11, 1, 3), build(11, 1, 7)).nodes == 0
    assert calls == {"_refine": 1}
    calls.clear()
    assert iso_search(build(16, 3, 6), build(16, 3, 9)).nodes == 42
    assert calls["_known_automorphisms"] == 1


def test_automorphisms_are_built_once_per_digraph(monkeypatch):
    calls = []
    family = iso._automorphism_family

    def counting(D):
        calls.append(D)
        return family(D)

    monkeypatch.setattr(iso, "_automorphism_family", counting)
    D2 = build(16, 3, 9)
    assert iso_search(build(16, 3, 6), D2).nodes == 42
    assert iso_search(build(16, 3, 6), D2).nodes == 42
    assert calls == [D2]
    wrong = Digraph(D2.adj, field=D2.field, params=MonomialParams(16, 1, 2))
    assert iso._known_automorphisms(wrong) is None
    assert iso._known_automorphisms(wrong) is None
    assert calls == [D2, wrong]


def test_deep_search_runs_past_the_recursion_limit():
    # refinement cannot split isolated vertices, so the search
    # individualizes them one by one, 299 levels deep; the search keeps
    # its levels on a stack of its own, so a recursion limit far below
    # that depth neither stops it nor makes it undecided
    D1 = Digraph([[] for _ in range(300)])
    D2 = Digraph(D1.adj)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        cert = iso_search(D1, D2)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.verdict == "Iso"
    assert cert.nodes == D1.n - 1


def test_iso_search_budget():
    # 42 nodes with automorphism pruning
    with pytest.raises(UndecidedError):
        iso_search(build(16, 3, 6), build(16, 3, 9), budget=10)
    # params-free copies are searched without pruning: 8 nodes
    with pytest.raises(UndecidedError):
        iso_search(Digraph(build(8, 1, 2).adj), Digraph(build(8, 1, 4).adj),
                   budget=1)


def test_iso_search_rejects_negative_budget():
    # an input error, raised before any work; budget 0 still lets the
    # root refinement decide
    with pytest.raises(ValueError):
        iso_search(build(11, 1, 3), build(11, 1, 7), budget=-1)
    assert iso_search(build(11, 1, 3), build(11, 1, 7),
                      budget=0).witness == "color-refinement"


def test_iso_search_rejects_digraphs_past_the_arc_key_bound():
    # each _in_arcs key u * (n + 1) ** 3 + label must fit in int64, which
    # holds up to n = 55,108; past it the search raises before any work
    bound = iso.MAX_SEARCH_VERTICES
    assert bound * (bound + 1) ** 3 < 2 ** 63 <= (bound + 1) * (bound + 2) ** 3
    assert bound < 2 ** 16              # colours fit the frames' arrays
    n = 56_000
    D = Digraph([[(v + 1) % n] for v in range(n)])
    with pytest.raises(ValueError, match="55108"):
        iso_search(D, D)
    assert getattr(D, "_iso_in_arcs", None) is None and D._radj is None


def test_iso_search_reads_vertex_seeds_not_arcs(monkeypatch):
    # the profile and the initial colours read invariants.vertex_seeds,
    # so no per-arc scan with has_arc is left on this path
    calls = Counter()
    has_arc = Digraph.has_arc
    monkeypatch.setattr(Digraph, "has_arc",
                        lambda D, u, v: calls.update([id(D)]) or
                        has_arc(D, u, v))
    q = 11
    D1, D2 = build(q, 1, 3), build(q, 1, 7)
    assert iso_search(D1, D2).witness == "color-refinement"
    assert set(calls) <= {id(D1), id(D2)}
    assert all(count <= 2 * q * q for count in calls.values()), calls


def _two_path_counts(D):
    """The arc labels as a dict keyed by (u, v), computed arc by arc with
    has_arc and without packing: the number of 2-paths u -> w -> v and
    that of 2-paths v -> w -> u."""
    return {(u, v): (sum(D.has_arc(w, v) for w in D.adj[u]),
                     sum(D.has_arc(w, u) for w in D.adj[v]))
            for u, v in D.arcs()}


# loops at 0 and 3, 2-cycles 0 <-> 1 and 1 <-> 2, and no params
_LOOPED = Digraph([[0, 1, 2], [0, 2], [1, 3], [3, 0]])


@pytest.mark.parametrize("D", [build(8, 1, 2), build(9, 2, 5),
                               build(16, 3, 6), _LOOPED,
                               Digraph(build(9, 2, 5).adj)],
                         ids=["8-1-2", "9-2-5", "16-3-6", "looped",
                              "9-2-5-arcs"])
def test_edge_labels_aligned_with_adjacency(D):
    oracle = _two_path_counts(D)
    out = iso._edge_labels(D)
    base = D.n + 1
    assert [len(row) for row in out] == [len(row) for row in D.adj]
    for u, nbrs in enumerate(D.adj):
        for i, v in enumerate(nbrs):
            assert divmod(out[u][i], base) == oracle[(u, v)]


def _four_count_labels(D):
    """Reference arc labels, aligned like iso._edge_labels: the four
    common-neighbourhood sizes |N+(u) & N+(v)|, |N+(u) & N-(v)|,
    |N-(u) & N+(v)| and |N-(u) & N-(v)| of the arc u -> v, packed base
    n + 1.  Kept on the digraph under a name of their own."""
    if getattr(D, "_four_count_labels", None) is None:
        outs = [set(a) for a in D.adj]
        ins = [set(a) for a in D.radj]
        base = D.n + 1
        out = []
        inn = [[] for _ in range(D.n)]
        for u, nbrs in enumerate(D.adj):
            row = []
            for v in nbrs:
                lab = 0
                for a, b in ((outs[u], outs[v]), (outs[u], ins[v]),
                             (ins[u], outs[v]), (ins[u], ins[v])):
                    lab = lab * base + len(a & b)
                row.append(lab)
                inn[v].append(lab)
            out.append(row)
        D._four_count_labels = out, inn
    return D._four_count_labels


def _two_sided_refine(D1, D2, c1, c2, rounds=None, moved1=None,
                      moved2=None):
    """Reference refinement, patched in with _four_count_labels as
    iso._edge_labels: each signature also holds the multiset of (colour,
    label) over the in-arcs, read from the (out, in) label lists.  It
    ignores `rounds` and the moved vertices and refines both digraphs
    afresh at every call."""
    n = D1.n
    lab1 = iso._edge_labels(D1)
    lab2 = iso._edge_labels(D2)
    ncolors = len(set(c1) | set(c2))
    while True:
        table = {}
        new1 = [0] * n
        new2 = [0] * n
        for colors, new, D, (out, inn) in ((c1, new1, D1, lab1),
                                           (c2, new2, D2, lab2)):
            adj, radj = D.adj, D.radj
            for v in range(n):
                sig = (colors[v],
                       tuple(sorted(zip([colors[w] for w in adj[v]],
                                        out[v]))),
                       tuple(sorted(zip([colors[w] for w in radj[v]],
                                        inn[v]))))
                cid = table.get(sig)
                if cid is None:
                    cid = len(table)
                    table[sig] = cid
                new[v] = cid
        if Counter(new1) != Counter(new2):
            return None
        if len(table) == ncolors:
            return new1, new2
        ncolors = len(table)
        c1, c2 = new1, new2


def _tuple_refine(D1, D2, c1, c2):
    """Reference refinement: out-arc signatures as tuples of (colour,
    label) pairs, both digraphs numbered into one table every round."""
    n = D1.n
    ncolors = len(set(c1) | set(c2))
    while True:
        table = {}
        new1 = [0] * n
        new2 = [0] * n
        for colors, new, D in ((c1, new1, D1), (c2, new2, D2)):
            adj, out = D.adj, iso._edge_labels(D)
            for v in range(n):
                sig = (colors[v],
                       tuple(sorted(zip([colors[w] for w in adj[v]],
                                        out[v]))))
                cid = table.get(sig)
                if cid is None:
                    cid = len(table)
                    table[sig] = cid
                new[v] = cid
        if Counter(new1) != Counter(new2):
            return None
        if len(table) == ncolors:
            return new1, new2
        ncolors = len(table)
        c1, c2 = new1, new2


def _classes_by_color(colors):
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return classes


@pytest.mark.parametrize("pair2", [(3, 9), (6, 12)])
def test_shared_rounds_match_tuple_refinement(pair2):
    # at the root frame of D(16; 3, 6) vs D(16; pair2) every candidate w
    # refines from the same n1, so all of them share one list of D1's
    # rounds; each result must be what the tuple-signature refinement
    # gives from scratch
    D1, D2 = build(16, 3, 6), build(16, *pair2)
    seeds1 = iso.invariants.vertex_seeds(D1)
    seeds2 = iso.invariants.vertex_seeds(D2)
    root = iso._refine(D1, D2, seeds1, seeds2)
    assert root == _tuple_refine(D1, D2, seeds1, seeds2)
    c1, c2 = root
    classes1 = _classes_by_color(c1)
    color = min((c for c, vs in classes1.items() if len(vs) > 1),
                key=lambda c: (len(classes1[c]), classes1[c][0]))
    fresh = len(classes1)
    n1 = list(c1)
    n1[classes1[color][0]] = fresh
    rounds = []
    results = []
    for w in _classes_by_color(c2)[color]:
        n2 = list(c2)
        n2[w] = fresh
        got = iso._refine(D1, D2, n1, n2, rounds)
        assert got == _tuple_refine(D1, D2, n1, n2), w
        results.append(got)
    assert len(results) > 1 and rounds
    assert any(r is not None for r in results)


def test_search_refinements_match_tuple_refinement(monkeypatch):
    # every refinement of the 42-node search of D(16; 3, 6) vs
    # D(16; 3, 9), with the rounds each frame shares among its candidates
    # and clears on descent, against the tuple-signature refinement from
    # scratch; 24 of its calls reuse rounds and are separated
    refine = iso._refine
    outcomes = Counter()

    def checked(D1, D2, c1, c2, rounds=None, moved1=None, moved2=None):
        reused = bool(rounds)
        got = refine(D1, D2, c1, c2, rounds, moved1, moved2)
        assert got == _tuple_refine(D1, D2, c1, c2)
        outcomes[got is None, reused] += 1
        return got

    monkeypatch.setattr(iso, "_refine", checked)
    assert iso_search(build(16, 3, 6), build(16, 3, 9)).nodes == 42
    assert outcomes == {(False, False): 13, (True, False): 6,
                        (True, True): 24}


def test_two_count_labels_match_four_count_reference(monkeypatch):
    # every pair that reaches iso_search in these sweeps gets the same
    # certificate, nodes and mapping included, from the out-side
    # refinement on two-count labels as from the two-sided refinement on
    # four-count labels
    certs = []
    search = sweep_mod.iso_search

    def both(D1, D2, budget):
        cert = search(D1, D2, budget=budget)
        with monkeypatch.context() as m:
            m.setattr(iso, "_edge_labels", _four_count_labels)
            m.setattr(iso, "_refine", _two_sided_refine)
            ref = search(D1, D2, budget=budget)
        assert D1._four_count_labels is not None
        certs.append((D1.params, D2.params, cert.as_dict(), ref.as_dict()))
        return cert

    monkeypatch.setattr(sweep_mod, "iso_search", both)
    sweep_mod.sweep(2, 19)
    sweep_mod.sweep(3, 25, m1_only=True)
    assert len({c[0].q for c in certs}) >= 5
    assert any(c[2]["nodes"] > 0 for c in certs)
    for p1, p2, cert, ref in certs:
        assert cert == ref, (p1, p2)


def test_moved_leaves_out_the_largest_piece():
    # cell 0 splits into {0, 3} and the larger {1, 2, 4}; cell 1 does not
    # split; cell 2 splits into {7} and {8}, a tie, so {7}, met first,
    # stays out
    old = [0, 0, 0, 0, 0, 1, 1, 2, 2]
    new = [0, 1, 1, 0, 1, 2, 2, 3, 4]
    assert iso._moved(old, new) == [0, 3, 8]
    assert iso._moved(old, old) == []
    # a three-way tie leaves out the first piece met only
    assert iso._moved([5, 5, 5], [2, 1, 0]) == [1, 2]


def test_moved_vertices_of_d2_follow_d1_on_a_tie(monkeypatch):
    # the directed 4-cycle 0 -> 1 -> 2 -> 3 -> 0, and its relabelling
    # 0, 1, 2, 3 -> 1, 2, 0, 3, with 0 and its image 1 individualized.
    # The first round splits off 3 (image 3), the second splits {1, 2}
    # (images {2, 0}) into two singletons, a tie: D1 leaves out the piece
    # of 1, met first, while D2 meets the piece of 0, the image of 2,
    # first.  Keys into different pieces would separate the pair.
    D1 = Digraph([[1], [2], [3], [0]])
    D2 = Digraph([[3], [2], [0], [1]])
    recolour = iso._recolour
    calls = []

    def logged(D, colors, moved):
        calls.append((colors, moved))
        return recolour(D, colors, moved)

    monkeypatch.setattr(iso, "_recolour", logged)
    n1, n2 = [1, 0, 0, 0], [0, 1, 0, 0]
    got = iso._refine(D1, D2, n1, n2, [], [0], [1])
    assert got is not None and got == _tuple_refine(D1, D2, n1, n2)
    # calls alternate D1, D2; the third round keys by the second's split
    (a1, m1), (a2, m2) = calls[4], calls[5]
    assert {a1[u] for u in m1} == {a2[u] for u in m2}
    own = iso._moved(calls[3][0], a2)           # D2's first piece met
    assert {a2[u] for u in own} != {a2[u] for u in m2}


@pytest.mark.parametrize("q, pair1, pair2", [(7, (1, 2), (5, 4)),
                                             (11, (1, 3), (3, 9))])
def test_root_rounds_after_the_first_key_by_moved_vertices(monkeypatch, q,
                                                           pair1, pair2):
    # two isomorphic digraphs (pair2 = k * pair1 for a unit k); the root
    # keeps the rule of a search node: its first round signs every
    # vertex, and a later round that moves at most a quarter of the
    # vertices keys them by their arcs into the moved ones
    moved = []
    recolour = iso._recolour

    def logged(D, colors, m):
        moved.append(len(m))
        return recolour(D, colors, m)

    monkeypatch.setattr(iso, "_recolour", logged)
    D1, D2 = build(q, *pair1), build(q, *pair2)
    seeds1 = iso.invariants.vertex_seeds(D1)
    seeds2 = iso.invariants.vertex_seeds(D2)
    assert iso._refine(D1, D2, seeds1, seeds2) == \
        _tuple_refine(D1, D2, seeds1, seeds2)
    assert moved and all(0 < 4 * k <= D1.n for k in moved)


def _check_moved_refinement(monkeypatch):
    """Patch iso._refine to run every call twice, as it is and with
    iso._round_keys patched to sign every vertex in every round; the
    results and D1's rounds (colourings, histograms and table sizes) must
    be equal.  The tables themselves may differ: a round that moves at
    most a quarter of the vertices keys its table by the arcs into them,
    not by whole signatures.
    Returns the Counter of calls by whether they had moved vertices."""
    refine = iso._refine
    calls = Counter()

    def colourings(rounds):
        return [(new1, hist1, len(table))
                for table, new1, hist1, _ in rounds]

    def both(D1, D2, c1, c2, rounds=None, moved1=None, moved2=None):
        full_rounds = []
        with monkeypatch.context() as m:
            m.setattr(iso, "_round_keys",
                      lambda D, colors, moved: iso._signatures(D, colors))
            full = refine(D1, D2, c1, c2, full_rounds)
        if rounds is None:
            rounds = []
        got = refine(D1, D2, c1, c2, rounds, moved1, moved2)
        assert got == full
        assert (colourings(rounds[:len(full_rounds)])
                == colourings(full_rounds))
        calls[moved1 is not None and moved2 is not None] += 1
        return got

    monkeypatch.setattr(iso, "_refine", both)
    return calls


def test_moved_refinement_matches_full_refinement_in_the_sweep(monkeypatch):
    calls = _check_moved_refinement(monkeypatch)
    sweep_mod.sweep(2, 19)
    assert calls[True] > 0 and calls[False] > 0


@pytest.mark.parametrize("q, m1, n1, m2, n2, nodes", [
    (16, 3, 6, 3, 9, 42),
    (25, 3, 6, 3, 18, 402),
], ids=["16-3-6-3-9", "25-3-6-3-18"])
def test_moved_refinement_matches_full_refinement_deep(monkeypatch, q, m1,
                                                       n1, m2, n2, nodes):
    D1, D2 = build(q, m1, n1), build(q, m2, n2)
    calls = _check_moved_refinement(monkeypatch)
    assert iso_search(D1, D2).nodes == nodes
    assert calls == {False: 1, True: nodes}


@pytest.mark.parametrize("q, m1, n1, m2, n2, nodes, rounds1, rounds2", [
    (16, 3, 6, 3, 9, 42, (8, 59), (8, 107)),
    (25, 3, 6, 3, 18, 402, (4, 409), (4, 409)),
    (16, 1, 2, 1, 8, 1, (2, 2), (2, 2)),
], ids=["16-3-6-3-9", "25-3-6-3-18", "16-1-2-1-8"])
def test_refinement_round_counts(monkeypatch, q, m1, n1, m2, n2, nodes,
                                 rounds1, rounds2):
    # the (full-signature, moved-key) rounds each digraph takes over a
    # whole search.  D1's rounds are shared by the candidates of a node,
    # so it takes fewer.  The colourings alone cannot show a refinement
    # that stops a round late or early; these counts do.
    D1, D2 = build(q, m1, n1), build(q, m2, n2)
    counts = Counter()
    for kind, name in enumerate(("_signatures", "_recolour")):
        def counting(D, *args, kind=kind, original=getattr(iso, name)):
            counts[D is D2, kind] += 1
            return original(D, *args)

        monkeypatch.setattr(iso, name, counting)
    assert iso_search(D1, D2).nodes == nodes
    got = [(counts[d, 0], counts[d, 1]) for d in (False, True)]
    assert got == [rounds1, rounds2]


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
    # the 2-paths u -> w -> v alone leave this pair to a search node
    (32, 1, 2, 1, 6): ("NonIso", "color-refinement", 0, _NULL_SHA),
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


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_known_automorphisms_contain_psi(q):
    # the element with j = 0 and t = 0 is psi_c, as psi_automorphism
    # makes it, for every c
    F = field_for_order(q)
    s = q if F.p == 2 else 1
    for m in range(1, q):
        for n in range(1, q):
            D = build(q, m, n)
            _, apply = iso._known_automorphisms(D)
            for c in range(1, q):
                g = (c - 1) * F.e * s
                assert [apply(g, v) for v in range(D.n)] == \
                    psi_automorphism(F, m, n, c), (m, n, c)


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


def test_params_that_do_not_describe_the_arcs_filter_nothing():
    # params (8, 1, 1) fail the gcd filter against (8, 1, 2), but only
    # build_monomial vouches for params, and the two arc sets are equal
    D = build(8, 1, 2)
    W = Digraph(D.adj, field=D.field, params=MonomialParams(8, 1, 1))
    cert = iso_search(D, W)
    assert cert.verdict == "Iso"
    assert verify_mapping(D, W, list(cert.mapping))


def test_branching_search_leaves_no_reference_cycle():
    # with the cyclic collector off, only reference counting can free D1
    D1, D2 = build(16, 1, 2), build(16, 1, 8)
    ref = weakref.ref(D1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert iso_search(D1, D2).nodes == 1
        del D1
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


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


def test_vertex_seeds_split_what_refinement_alone_cannot():
    # refinement from one colour stops at 6 colours on these digraphs
    for m, n in ((4, 8), (8, 4)):
        D = build(9, m, n)
        assert len(set(iso._refine(D, D, [0] * D.n, [0] * D.n)[0])) == 6
        assert len(set(stable_coloring(D))) == 7


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
