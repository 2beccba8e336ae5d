"""Invariants and counting formulas against oracles that count by brute
force, and the gcd filter against a copy of its earlier form.

Run as a script, `python tests/test_invariants.py Q...` checks
necessary_filter against that copy on every ordered pair of class
representatives at each Q; the tests below cover every representative
pair at each q <= 19.
"""

import math
import sys
import time
from dataclasses import FrozenInstanceError, fields
from itertools import combinations, permutations, product

import pytest

from monomial_digraphs.field import field_for_order, gcd_bar
from monomial_digraphs.digraph import (Digraph, MonomialParams,
                                       build_monomial, reverse)
from monomial_digraphs.invariants import (gcd_profile, count_loops,
                                          vertex_seeds,
                                          two_cycle_count, two_cycle_formula,
                                          k22_formula, motif_census,
                                          trinomial_root_count,
                                          necessary_filter, profile,
                                          FilterResult, InvariantProfile,
                                          PRUNING_FIELDS)
from monomial_digraphs import invariants
from monomial_digraphs.iso import conjugate_classes, iso_search
from monomial_digraphs.sweep import prime_powers


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
            if f.name not in PRUNING_FIELDS]
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


# -- necessary_filter against its form before it shared its results ---------

def _reduced_gcd_bar(a, q):
    """gcd_bar as it was, reducing a mod q-1 first."""
    return math.gcd(a % (q - 1), q - 1)


def _oracle_gcd_profile(q, m, n):
    return (_reduced_gcd_bar(m, q), _reduced_gcd_bar(n, q),
            _reduced_gcd_bar(m + n, q), _reduced_gcd_bar(m - n, q))


def _oracle_unpack(params):
    if hasattr(params, "q"):
        return params.q, params.m, params.n
    q, m, n = params
    return q, m, n


def _oracle_filter(params1, params2):
    """necessary_filter as it was: the reduced gcd profiles, and a new
    FilterResult for every call."""
    q1, m1, n1 = _oracle_unpack(params1)
    q2, m2, n2 = _oracle_unpack(params2)
    if q1 != q2:
        raise ValueError(f"mismatched field orders {q1} and {q2}")
    bars1 = _oracle_gcd_profile(q1, m1, n1)
    bars2 = _oracle_gcd_profile(q2, m2, n2)
    eq = [a == b for a, b in zip(bars1, bars2)]
    failed = PRUNING_FIELDS[eq.index(False)] if False in eq else None
    return FilterResult(
        passed=failed is None,
        failed_condition=failed,
        condition_i=eq[0] and eq[1],
        condition_ii=eq[2],
        condition_iii=eq[3],
    )


def check_filter_on_representatives(q):
    """necessary_filter equals the oracle on every ordered pair of class
    representatives at q; returns the number of pairs."""
    reps = [(q, *cls.canonical_rep) for cls in conjugate_classes(q)]
    count = 0
    for a, b in permutations(reps, 2):
        assert necessary_filter(a, b) == _oracle_filter(a, b), (a, b)
        count += 1
    return count


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_necessary_filter_matches_oracle_on_every_pair(q):
    keys = [(q, m, n) for m in range(1, q) for n in range(1, q)]
    for a, b in product(keys, repeat=2):
        assert necessary_filter(a, b) == _oracle_filter(a, b), (a, b)


@pytest.mark.parametrize("q", prime_powers(2, 19))
def test_necessary_filter_matches_oracle_on_representative_pairs(q):
    check_filter_on_representatives(q)


def test_necessary_filter_results_are_shared_and_frozen():
    r = necessary_filter((17, 1, 4), (17, 1, 12))
    assert r is necessary_filter((17, 1, 2), (17, 1, 2))
    with pytest.raises(FrozenInstanceError):
        r.passed = False
    assert necessary_filter((17, 1, 4), (17, 1, 12)).passed
    with pytest.raises(ValueError):
        necessary_filter((8, 1, 2), MonomialParams(9, 1, 2))
    for a, b in (((13, 1, 2), (13, 2, 1)), ((13, 1, 3), (13, 1, 9)),
                 ((13, 2, 5), (13, 2, 7))):
        pa, pb = MonomialParams(*a), MonomialParams(*b)
        expected = _oracle_filter(a, b)
        assert necessary_filter(pa, pb) == necessary_filter(a, pb) \
            == necessary_filter(pa, b) == expected, (a, b)


def test_profile_fig1():
    p = profile(build(3, 1, 2))
    assert (p.m_bar, p.n_bar, p.sum_bar, p.diff_bar) == (1, 2, 1, 1)
    assert (p.loop_total, p.loop_distinct_nonzero_y) == (3, 2)
    assert p.two_cycle_count == 9


def test_profile_is_computed_once_per_digraph(monkeypatch):
    calls = []
    loops = invariants.count_loops
    monkeypatch.setattr(invariants, "count_loops",
                        lambda D: calls.append(1) or loops(D))
    D1, D2 = build(8, 1, 2), build(8, 1, 4)
    p1 = profile(D1)
    assert profile(D1) is p1
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


def _main(argv):
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("q", type=int, nargs="+")
    args = ap.parse_args(argv)
    for q in args.q:
        t0 = time.perf_counter()
        count = check_filter_on_representatives(q)
        print(f"q={q}: necessary_filter matches the oracle on {count} "
              f"representative pairs ({time.perf_counter() - t0:.1f} s)")


if __name__ == "__main__":
    _main(sys.argv[1:])
