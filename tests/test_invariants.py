from dataclasses import fields, replace
from itertools import combinations

import pytest

from monomial_digraphs.field import field_for_order, gcd_bar
from monomial_digraphs.digraph import (Digraph, build_monomial, reverse,
                                       count_cycles_by_length)
from monomial_digraphs.invariants import (gcd_profile, count_loops,
                                          vertex_seeds,
                                          two_cycle_count, two_cycle_formula,
                                          k22_formula, motif_census,
                                          trinomial_root_count,
                                          necessary_filter, profile,
                                          InvariantProfile, PRUNING_FIELDS)
from monomial_digraphs import invariants
from monomial_digraphs.iso import iso_search


def build(q, m, n):
    return build_monomial(field_for_order(q), m, n)


def test_gcd_profile_values():
    assert gcd_profile(11, 1, 1) == (1, 1, 2, 10)
    assert gcd_profile(11, 1, 3) == (1, 1, 2, 2)
    assert gcd_profile(17, 1, 4) == (1, 4, 1, 1)
    assert gcd_profile(17, 1, 12) == (1, 4, 1, 1)


def test_count_loops_examples():
    assert count_loops(build(3, 1, 2)) == (3, 2)
    for q in (3, 5, 7, 9):
        for m, n in ((1, 1), (2, q - 1), (1, 2)):
            total, _ = count_loops(build(q, m, n))
            assert total == q
    # characteristic 2: loops exactly where x^(m+n) = 0, i.e. the x = 0 column
    assert count_loops(build(4, 1, 1)) == (4, 3)


def test_two_cycle_count_and_formula():
    assert two_cycle_count(build(3, 1, 2)) == 9
    assert two_cycle_formula(3, 1, 2) == 9
    assert two_cycle_formula(5, 2, 2) == 60
    assert two_cycle_count(build(5, 2, 2)) == 60
    # the closed form holds in characteristic 2 as well
    for q in (2, 4, 8, 16):
        F = field_for_order(q)
        for m in range(1, q):
            for n in range(1, q):
                assert two_cycle_formula(q, m, n) == \
                    two_cycle_count(build_monomial(F, m, n)), (q, m, n)


def test_two_cycle_reversal_invariant():
    for q, m, n in ((5, 1, 3), (7, 2, 5), (8, 1, 4)):
        D = build(q, m, n)
        assert two_cycle_count(D) == two_cycle_count(reverse(D))


def _seed_oracle(D):
    """2 * (2-cycle degree) + (loop membership) of each vertex, by
    bisecting the adjacency rows one arc at a time."""
    return [2 * sum(1 for w in D.adj[v] if w != v and D.has_arc(w, v))
            + D.has_arc(v, v)
            for v in range(D.n)]


def test_vertex_seeds_against_arc_tests():
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field_for_order(q)
        for m in range(1, q):
            for n in range(1, q):
                D = build_monomial(F, m, n)
                assert vertex_seeds(D) == _seed_oracle(D), (q, m, n)
                assert vertex_seeds(D) is vertex_seeds(D)


def test_k_census_of_fig1():
    # loops of D(3;1,2) sit at (0,0), (2,1), (1,2); no arcs join them
    D = build(3, 1, 2)
    loops = [v for v in range(9) if D.has_arc(v, v)]
    expected = sum(1 for a in loops for b in loops
                   if a != b and D.has_arc(a, b))
    assert expected == 0
    assert motif_census(D, "K") == 0


def test_k_census_distinguishes_q17_pair():
    a = motif_census(build(17, 1, 4), "K")
    b = motif_census(build(17, 1, 12), "K")
    assert a != b
    assert (a, b) == (16, 0)


def _k22_oracle(D):
    count = 0
    for u1, u2 in combinations(range(D.n), 2):
        for w1, w2 in combinations(range(D.n), 2):
            if all(D.has_arc(u, w) for u in (u1, u2) for w in (w1, w2)):
                count += 1
    return count


def test_k22_census_against_bruteforce():
    for q, m, n in ((2, 1, 1), (3, 1, 2), (4, 1, 2)):
        D = build(q, m, n)
        assert motif_census(D, "directed-K22") == _k22_oracle(D)


def test_k22_formula_against_pair_scan():
    # a copy without params takes the pair scan, the formula's twin
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        F = field_for_order(q)
        for m in range(1, q):
            for n in range(1, q):
                D = build_monomial(F, m, n)
                assert (k22_formula(q, m, n)
                        == motif_census(Digraph(D.adj), "directed-K22")), \
                    (q, m, n)


def test_fields_left_out_of_pruning_follow_the_gcd_profile():
    # a field outside PRUNING_FIELDS is a function of the gcd profile, so
    # it cannot separate a pair that the gcd filter has passed
    rest = [f.name for f in fields(InvariantProfile)
            if f.name not in PRUNING_FIELDS and f.name != "cycle_spectrum"]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        F = field_for_order(q)
        by_gcd, two_cycles = {}, {}
        for m in range(1, q):
            for n in range(1, q):
                p = profile(build_monomial(F, m, n))
                values = tuple(getattr(p, f) for f in rest)
                assert by_gcd.setdefault(gcd_profile(q, m, n), values) \
                    == values, (q, m, n)
                ys = q - 1 if q % 2 == 0 else (q - 1) // p.sum_bar
                assert (p.loop_total, p.loop_distinct_nonzero_y) == (q, ys)
                assert two_cycles.setdefault(p.diff_bar, p.two_cycle_count) \
                    == p.two_cycle_count, (q, m, n)


def test_unknown_motif_rejected():
    with pytest.raises(ValueError):
        motif_census(build(2, 1, 1), "triangle")


def test_trinomial_root_counts():
    F17 = field_for_order(17)
    # oracle: integer arithmetic mod 17
    def oracle(d):
        return sum(1 for x in range(17) if (pow(x, d, 17) - 2 * x + 1) % 17 == 0)
    assert oracle(5) == trinomial_root_count(F17, 5) == 2
    assert oracle(13) == trinomial_root_count(F17, 13) == 1
    assert trinomial_root_count(field_for_order(3), 1) == 1
    # x = 1 is always a root of X^5 - 2X + 1
    assert (pow(1, 5, 17) - 2 + 1) % 17 == 0


def test_necessary_filter():
    r = necessary_filter((3, 1, 2), (3, 2, 1))
    assert not r.passed and r.failed_condition == "m_bar"
    assert necessary_filter((17, 1, 4), (17, 1, 12)).passed
    assert necessary_filter((5, 2, 3), (5, 2, 3)).passed
    with pytest.raises(ValueError):
        necessary_filter((3, 1, 1), (5, 1, 1))


def test_profile_fig1():
    p = profile(build(3, 1, 2))
    assert (p.m_bar, p.n_bar, p.sum_bar, p.diff_bar) == (1, 2, 1, 1)
    assert (p.loop_total, p.loop_distinct_nonzero_y) == (3, 2)
    assert p.two_cycle_count == 9
    assert p.cycle_spectrum is None
    p2 = profile(build(3, 1, 2), cycle_cap=3)
    assert p2.cycle_spectrum == (3, 9, 4)


def test_profile_is_computed_once_per_digraph(monkeypatch):
    calls = []
    loops = invariants.count_loops
    monkeypatch.setattr(invariants, "count_loops",
                        lambda D: calls.append(1) or loops(D))
    D1, D2 = build(8, 1, 2), build(8, 1, 4)
    p1 = profile(D1)
    assert profile(D1) is p1
    assert profile(D1, cycle_cap=2) == replace(
        p1, cycle_spectrum=tuple(count_cycles_by_length(D1, 2)))
    assert len(calls) == 1
    iso_search(D1, D2)                  # profiles D2 only
    assert len(calls) == 2


def test_profiles_of_reverse_swap_bars():
    for q, m, n in ((5, 1, 3), (7, 2, 4)):
        p = profile(build(q, m, n))
        r = profile(reverse(build(q, m, n)))
        assert (p.m_bar, p.n_bar) == (r.n_bar, r.m_bar)
        assert (p.sum_bar, p.diff_bar, p.loop_total, p.two_cycle_count) == \
               (r.sum_bar, r.diff_bar, r.loop_total, r.two_cycle_count)


def test_equal_diagonal_profiles():
    # D(q; m, m) and D(q; n, n) agree whenever gcd_bar(m) = gcd_bar(n)
    for q in (5, 7, 9):
        for m in range(1, q):
            for n in range(m + 1, q):
                if gcd_bar(m, q) == gcd_bar(n, q):
                    assert profile(build(q, m, m)) == profile(build(q, n, n))
