"""A digraph that build_monomial made is counted from its field: vertex
seeds, arc labels, the K count and the whole profile.  These tests hold
each field count against its twin read from the arcs, and check that a
digraph given a field and params by hand is still counted from its arcs.
The arc labels are read from one row per psi-orbit; two tests hold the
psi-invariance of labels that this rests on, and the labels against a
copy of the construction from the whole q^3 table.

Run as a script, `python tests/test_field_route.py Q... --pairs K --seed S`
checks K seeded (m, n) pairs at each Q the same way; the tests below cover
every pair at each q <= 16.
"""

import random
import sys

import pytest

from monomial_digraphs.field import field_for_order
from monomial_digraphs.digraph import (Digraph, MonomialParams,
                                       build_monomial)
from monomial_digraphs import invariants, iso
from monomial_digraphs.invariants import (field_profile, gcd_profile,
                                          k_formula, motif_census, profile,
                                          vertex_seeds)

from test_invariants import _seed_oracle
from test_iso import _two_path_counts

SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _arc_copy(D):
    """D with its field and params, but not made by build_monomial, so
    each count is read from its arcs."""
    return Digraph(D.adj, field=D.field, params=D.params)


def check_field_route(F, m, n):
    D = build_monomial(F, m, n)
    arcs = _arc_copy(D)
    assert vertex_seeds(D) == _seed_oracle(D) == vertex_seeds(arcs)
    assert iso._edge_labels(D) == iso._edge_labels(arcs)
    assert k_formula(F, m, n) == motif_census(arcs, "K")
    assert field_profile(F, m, n) == profile(arcs) == profile(D)


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_route_matches_arcs(q):
    F = field_for_order(q)
    for m in range(1, q):
        for n in range(1, q):
            check_field_route(F, m, n)


def test_digraph_with_foreign_params_is_counted_from_its_arcs(monkeypatch):
    # the arcs of D(8; 1, 2) under the params of D(8; 1, 4), which
    # build_monomial did not make: every count must come from the arcs
    F = field_for_order(8)
    D = build_monomial(F, 1, 2)
    wrong = Digraph(D.adj, field=F, params=MonomialParams(8, 1, 4))
    # the field route of the foreign params labels these arcs otherwise
    assert iso._field_labels(F, 1, 4) != iso._edge_labels(D)

    def unreachable(*args):
        raise AssertionError("field route taken for a hand-built digraph")

    for owner, name in ((invariants, "_field_seeds"),
                        (invariants, "k_formula"),
                        (invariants, "k22_formula"),
                        (iso, "_field_labels")):
        monkeypatch.setattr(owner, name, unreachable)
    labels = iso._edge_labels(wrong)
    oracle = _two_path_counts(wrong)
    base = wrong.n + 1
    assert {(u, v): divmod(labels[u][i], base)
            for u, nbrs in enumerate(wrong.adj)
            for i, v in enumerate(nbrs)} == oracle
    assert vertex_seeds(wrong) == _seed_oracle(wrong)
    prof = profile(wrong)
    arcs_prof = profile(_arc_copy(D))
    assert (prof.m_bar, prof.n_bar, prof.sum_bar, prof.diff_bar) == \
        gcd_profile(8, 1, 4)
    for name in ("loop_total", "loop_distinct_nonzero_y", "two_cycle_count",
                 "k_motif_count", "k22_motif_count"):
        assert getattr(prof, name) == getattr(arcs_prof, name), name


@pytest.mark.parametrize("q", (4, 5, 8, 9))
def test_labels_are_psi_invariant(q):
    # label(u -> v) = label(psi_c u -> psi_c v): the identity that lets
    # _field_labels read every row from a row of some (1, t)
    F = field_for_order(q)
    for m in range(1, q):
        for n in range(1, q):
            D = build_monomial(F, m, n)
            for labels in (iso._edge_labels(_arc_copy(D)),
                           iso._field_labels(F, m, n)):
                label = {(u, v): lab
                         for u, (nbrs, row) in enumerate(zip(D.adj, labels))
                         for v, lab in zip(nbrs, row)}
                for c in range(1, q):
                    psi = iso.psi_automorphism(F, m, n, c)
                    assert all(label[psi[u], psi[v]] == lab
                               for (u, v), lab in label.items()), (m, n, c)


def _q3_table_labels(F, m, n):
    """_field_labels as it was before it read one row per psi-orbit: the
    whole q^3 table T and every label from it, kept as the oracle."""
    q = F.q
    base = q * q + 1
    mul, sub = F.mul_table, F.sub_table
    xm, xn = F.powers(m), F.powers(n)
    left = [[mul[a][b] for b in xn] for a in xm]        # x^m * z^n
    right = [[mul[a][b] for b in xm] for a in xn]       # y^n * z^m
    T = []
    for lx in left:
        Tx = []
        for ry in right:
            row = [0] * q
            for a, b in zip(lx, ry):
                row[sub[a][b]] += 1
            Tx.append(row)
        T.append(Tx)
    out = []
    for x1, lx in enumerate(left):
        # column y1 holds the labels of the arcs to (y1, x1^m y1^n - x2)
        # for x2 = 0..q-1, laid out as build_monomial lays out the heads
        cols = []
        for y1, s in enumerate(lx):
            fwd, bwd = T[x1][y1], T[y1][x1]
            cols.append([fwd[sub[x2][y2]] * base + bwd[sub[y2][x2]]
                         for x2, y2 in enumerate(sub[s])])
        out.extend(map(list, zip(*cols)))
    return out


@pytest.mark.parametrize("q", (25, 27, 32))
def test_field_labels_match_q3_table(q):
    F = field_for_order(q)
    rng = random.Random(q)
    pairs = rng.sample([(m, n) for m in range(1, q) for n in range(1, q)], 4)
    m = rng.randrange(1, q - 1)
    # m = n, and m + n = 0 mod q - 1, where psi_c scales y by c^0 = 1
    pairs += [(m, m), (m, q - 1 - m)]
    for m, n in pairs:
        assert iso._field_labels(F, m, n) == _q3_table_labels(F, m, n), \
            (m, n)


def _main(argv):
    import argparse
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("q", type=int, nargs="+")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    for q in args.q:
        F = field_for_order(q)
        pairs = rng.sample([(m, n) for m in range(1, q) for n in range(1, q)],
                           args.pairs)
        for m, n in pairs:
            check_field_route(F, m, n)
        print(f"q={q}: field route matches arcs on {pairs}")


if __name__ == "__main__":
    _main(sys.argv[1:])
