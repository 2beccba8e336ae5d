"""The two q = 25 counterexamples to the "only if" direction of the
conjecture as the README states it, checked on arc sets built here from
the rule, with GF(25) = F5[X]/(X^2 + 2) written out: c0 + c1*X has index
c0 + 5*c1.  Only explicit_iso comes from the package."""

import pytest

from monomial_digraphs.iso import explicit_iso

Q = 25


def add(u, v):
    return (u + v) % 5 + 5 * ((u // 5 + v // 5) % 5)


def neg(u):
    return (-u) % 5 + 5 * ((-(u // 5)) % 5)


def mul(u, v):
    a0, a1, b0, b1 = u % 5, u // 5, v % 5, v // 5
    # X^2 = -2 = 3
    return (a0 * b0 + 3 * a1 * b1) % 5 + 5 * ((a0 * b1 + a1 * b0) % 5)


def power(u, k):
    r = 1
    for _ in range(k):
        r = mul(r, u)
    return r


def b(u):
    """c0 + c1*X -> c0 + 2*c1*X: F5-linear, not GF(25)-semilinear."""
    return u % 5 + 5 * ((2 * (u // 5)) % 5)


def arcs(m, n):
    """The arcs of D(25; m, n): (x1, x2) -> (y1, y2) iff
    x2 + y2 = x1^m * y1^n."""
    xm = [power(x, m) for x in range(Q)]
    yn = [power(y, n) for y in range(Q)]
    return {((x1, x2), (y1, add(mul(xm[x1], yn[y1]), neg(x2))))
            for x1 in range(Q) for x2 in range(Q) for y1 in range(Q)}


# a in the product map (x1, x2) -> (a(x1), b(x2)), as iso_search found it
PRODUCT_MAPS = {
    ((3, 6), (3, 18)): [0, 1, 2, 3, 4, 6, 17, 7, 8, 18, 5, 11, 9, 15, 14, 20,
                        16, 10, 21, 19, 24, 12, 22, 23, 13],
    ((6, 3), (6, 9)): [0, 1, 3, 2, 4, 5, 10, 7, 8, 21, 6, 14, 12, 13, 11, 24,
                       19, 17, 18, 16, 20, 9, 22, 23, 15],
}


def test_written_out_field_is_a_field():
    # X^2 + 2 is irreducible over F5, so every nonzero element is a unit
    for u in range(1, Q):
        assert any(mul(u, v) == 1 for v in range(1, Q))


@pytest.mark.parametrize("source, target", list(PRODUCT_MAPS))
def test_q25_product_map_is_isomorphism(source, target):
    a = PRODUCT_MAPS[(source, target)]
    assert sorted(a) == sorted(b(u) for u in range(Q)) == list(range(Q))
    src, tgt = arcs(*source), arcs(*target)
    assert len(src) == len(tgt) == Q ** 3
    assert {((a[x1], b(x2)), (a[y1], b(y2)))
            for (x1, x2), (y1, y2) in src} == tgt
    # no unit k relates the pairs, so the power map cannot explain it
    assert explicit_iso(Q, *source, *target) is None
