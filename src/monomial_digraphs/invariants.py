"""Isomorphism invariants and counting formulas for monomial digraphs.

A digraph that build_monomial made is counted from its field: its vertex
seeds and K count are counts of solutions of field equations, read from
lookup tables, and field_profile gives its whole profile without building
it.  Every such count has a twin that scans the arcs, which serves every
other digraph, so the two routes can check each other.
"""

from dataclasses import dataclass
from itertools import product
from math import comb, gcd

from .field import Field, gcd_bar
from .digraph import Digraph, MonomialDigraph, psi

MOTIF_NAMES = ("K", "directed-K22")

# The InvariantProfile fields that separate pairs, in witness order: the
# gcd profile, which necessary_filter checks in the paper's order (i), (ii),
# (iii), then the K count.  The other counts are functions of the gcd
# profile, so they never separate a pair that it does not: loop_total is
# q, loop_distinct_nonzero_y is q-1 for even q and (q-1)/sum_bar for odd
# q, two_cycle_count depends on (q, diff_bar) only, and k22_formula gives
# k22_motif_count from (q, m_bar, n_bar).
PRUNING_FIELDS = ("m_bar", "n_bar", "sum_bar", "diff_bar", "k_motif_count")


@dataclass(frozen=True)
class InvariantProfile:
    """Pruning key for the isomorphism engine."""

    m_bar: int
    n_bar: int
    sum_bar: int
    diff_bar: int
    loop_total: int
    loop_distinct_nonzero_y: int
    two_cycle_count: int
    k_motif_count: int
    k22_motif_count: int


def separating_field(prof1, prof2):
    """The first of PRUNING_FIELDS in which two profiles differ, or None."""
    for name in PRUNING_FIELDS:
        if getattr(prof1, name) != getattr(prof2, name):
            return name
    return None


def gcd_profile(q: int, m: int, n: int):
    """(m_bar, n_bar, sum_bar, diff_bar), each gcd_bar(a, q), which is
    math.gcd(a, q-1) with no reduction of a."""
    r = q - 1
    return gcd(m, r), gcd(n, r), gcd(m + n, r), gcd(m - n, r)


def vertex_seeds(D: Digraph):
    """Per-vertex 2 * mutual + loop, with loop = 1 if v -> v is an arc
    and mutual the number of w != v with v -> w -> v.

    Both are preserved by any isomorphism.  The table is computed once per
    digraph and kept on it; the loop and 2-cycle counts, the K census and
    the initial colours of the isomorphism search read it.  A digraph that
    build_monomial made is read from its field (_field_seeds), any other
    from its arcs."""
    seeds = getattr(D, "_vertex_seeds", None)
    if seeds is None:
        if isinstance(D, MonomialDigraph):
            seeds = _field_seeds(D.field, D.params.m, D.params.n)
        else:
            seeds = []
            for v, (out, inn) in enumerate(zip(D.adj, D.radj)):
                mutual = set(out).intersection(inn)
                loop = v in mutual
                seeds.append(2 * (len(mutual) - loop) + loop)
        D._vertex_seeds = seeds
    return seeds


def _field_seeds(F: Field, m: int, n: int):
    """vertex_seeds of D(q; m, n), from the field's tables.

    (x1, x2) -> (y1, y2) -> (x1, x2) iff x1^m * y1^n = y1^m * x1^n and
    y2 = x1^m * y1^n - x2: one mutual neighbour per y1 that solves the
    first, itself iff 2 * x2 = x1^(m+n).  All q solve it at x1 = 0, the M
    u with u^m = u^n at x1 = 1, so (0, t) has seed 2q - [2t = 0], (1, t)
    2M - [2t = 1], and every other vertex one of the latter (digraph.psi).
    """
    q = F.q
    M = sum(a == b for a, b in zip(F.powers(m), F.powers(n)))
    doubles = F.mul_table[F.add(1, 1)]                  # 2 * t
    seeds = [2 * q - (d == 0) for d in doubles]
    ones = [2 * M - (d == 1) for d in doubles]
    for x1 in range(1, q):
        seeds.extend(map(ones.__getitem__, psi(F, m, n, F.inv(x1))[1]))
    return seeds


def count_loops(D: Digraph):
    """(total, number of distinct nonzero second coordinates of looped
    vertices).  For odd q the latter equals (q-1)/gcd_bar(m+n, q)."""
    looped = [v for v, s in enumerate(vertex_seeds(D)) if s & 1]
    ys = ({v % D.field.q for v in looped} - {0}
          if D.field is not None else ())
    return len(looped), len(ys)


def two_cycle_count(D: Digraph) -> int:
    """Unordered pairs of distinct mutually adjacent vertices."""
    return sum(s >> 1 for s in vertex_seeds(D)) // 2


def loop_formula(q: int, m: int, n: int):
    """(q, (q-1)/gcd_bar(m+n) for odd q, q-1 for even q), the value of
    count_loops: the looped vertices are (x, x^(m+n)/2) for odd q and
    (0, y) for even q."""
    return q, (q - 1 if q % 2 == 0 else (q - 1) // gcd_bar(m + n, q))


def two_cycle_formula(q: int, m: int, n: int) -> int:
    """q(q-1)(2 + gcd_bar(m-n)) / 2, the value of two_cycle_count."""
    return q * (q - 1) * (2 + gcd_bar(m - n, q)) // 2


def k_formula(F: Field, m: int, n: int) -> int:
    """K count of D(q; m, n), from the field's tables.

    For odd q the looped vertices are (x, x^(m+n)/2), one per x.  The
    looped (0, 0) has no looped out-neighbour but itself.  Each looped
    (x, .) with x != 0 is in the psi-orbit (see digraph.psi) of (1, 1/2),
    which has the arc to the looped (u, u^(m+n)/2) iff
    1 + u^(m+n) = 2 * u^n, and u = 1 (its loop) always solves that.  So
    K = (q - 1) * (#{u : 1 + u^(m+n) = 2 * u^n} - 1).  For even q the
    looped vertices are the (0, y), and (0, y) -> (0, y') iff y' = y.
    """
    q = F.q
    if q % 2 == 0:
        return 0
    mul = F.mul_table
    xm, xn = F.powers(m), F.powers(n)
    two = mul[F.add(1, 1)]
    solutions = sum(F.add(1, mul[a][b]) == two[b] for a, b in zip(xm, xn))
    return (q - 1) * (solutions - 1)


def k22_formula(q: int, m: int, n: int) -> int:
    """Directed-K22 count of D(q; m, n), a function of (q, m_bar, n_bar).

    Distinct tails (a1, a2), (b1, b2) share the head (y1, y2) iff
    (a1^m - b1^m) * y1^n = a2 - b2.  When a1^m = b1^m they share q heads
    if a2 = b2 and none otherwise.  Else they share n_bar heads for the
    (q-1)/n_bar nonzero differences a2 - b2 that make the quotient an n-th
    power, and at most one head for the rest.
    """
    m_bar, n_bar = gcd_bar(m, q), gcd_bar(n, q)
    equal_powers = 1 + (q - 1) * m_bar       # ordered (a1, b1), a1^m = b1^m
    ordered = ((q * q - equal_powers) * (q * (q - 1) // n_bar)
               * comb(n_bar, 2)
               + q * (q - 1) * (m_bar - 1) * comb(q, 2))
    return ordered // 2


def motif_census(D: Digraph, name: str) -> int:
    """Count copies of a small test digraph.

    K: ordered pairs (alpha, beta) of distinct looped vertices with the arc
    alpha -> beta.  directed-K22: pairs ({u1,u2}, {w1,w2}) of 2-sets with
    all four arcs ui -> wj; tail and head sets may overlap.  For a digraph
    that build_monomial made they are k_formula and k22_formula; the scans
    below are their twins and serve every other digraph.
    """
    if name == "K":
        if isinstance(D, MonomialDigraph):
            return k_formula(D.field, D.params.m, D.params.n)
        # each looped a is its own out-neighbour: subtract that one
        looped = {v for v, s in enumerate(vertex_seeds(D)) if s & 1}
        return sum(len(looped.intersection(D.adj[a])) - 1 for a in looped)
    if name == "directed-K22":
        if isinstance(D, MonomialDigraph):
            return k22_formula(D.params.q, D.params.m, D.params.n)
        # each out-row as a bit mask; a pair of tails with c common heads
        # spans c(c-1)/2 copies
        masks = [sum(1 << v for v in nbrs) for nbrs in D.adj]
        count = 0
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                common = (a & b).bit_count()
                count += common * (common - 1)
        return count // 2
    raise ValueError(f"unknown motif {name!r}")


def trinomial_root_count(F: Field, d: int) -> int:
    """Number of x in GF(q) with x^d - 2x + 1 = 0, by direct evaluation."""
    if d < 1:
        raise ValueError("d must be >= 1")
    two = F.add(1, 1)
    return sum(F.add(F.sub(xd, F.mul(two, x)), 1) == 0
               for x, xd in enumerate(F.powers(d)))


@dataclass(frozen=True)
class FilterResult:
    passed: bool
    failed_condition: str | None      # first violated, in (i),(ii),(iii) order
    condition_i: bool                 # m_bar and n_bar both equal
    condition_ii: bool                # sum_bar equal
    condition_iii: bool               # diff_bar equal


def _filter_result(eq):
    """The FilterResult of the equalities of m_bar, n_bar, sum_bar and
    diff_bar."""
    failed = PRUNING_FIELDS[eq.index(False)] if False in eq else None
    return FilterResult(
        passed=failed is None,
        failed_condition=failed,
        condition_i=eq[0] and eq[1],
        condition_ii=eq[2],
        condition_iii=eq[3],
    )


# every result necessary_filter can give, keyed by the four equalities;
# they are frozen, so all calls share them
_FILTER_RESULTS = {eq: _filter_result(eq)
                   for eq in product((False, True), repeat=4)}


def necessary_filter(params1, params2) -> FilterResult:
    """Check the gcd-profile necessary conditions on two parameter triples.

    params are (q, m, n) triples or MonomialParams; both must share q.
    """
    q1, m1, n1 = _unpack(params1)
    q2, m2, n2 = _unpack(params2)
    if q1 != q2:
        raise ValueError(f"mismatched field orders {q1} and {q2}")
    a1, b1, c1, d1 = gcd_profile(q1, m1, n1)
    a2, b2, c2, d2 = gcd_profile(q2, m2, n2)
    return _FILTER_RESULTS[a1 == a2, b1 == b2, c1 == c2, d1 == d2]


def _unpack(params):
    return ((params.q, params.m, params.n) if hasattr(params, "q")
            else tuple(params))


def field_profile(F: Field, m: int, n: int) -> InvariantProfile:
    """The profile of D(q; m, n) from the field and the closed forms,
    without building the digraph; profile() gives the same for the
    digraph that build_monomial(F, m, n) makes."""
    q = F.q
    return InvariantProfile(*gcd_profile(q, m, n), *loop_formula(q, m, n),
                            two_cycle_count=two_cycle_formula(q, m, n),
                            k_motif_count=k_formula(F, m, n),
                            k22_motif_count=k22_formula(q, m, n))


def profile(D: Digraph) -> InvariantProfile:
    """Full invariant profile of a monomial digraph.

    The counts read vertex_seeds and motif_census, so a digraph that
    build_monomial made is profiled from its field, any other from its
    arcs.  The profile is computed once per digraph and kept on it; later
    calls return it."""
    if D.params is None:
        raise ValueError("profile requires a monomial digraph")
    prof = getattr(D, "_profile", None)
    if prof is None:
        prof = InvariantProfile(
            *gcd_profile(*_unpack(D.params)), *count_loops(D),
            two_cycle_count=two_cycle_count(D),
            k_motif_count=motif_census(D, "K"),
            k22_motif_count=motif_census(D, "directed-K22"))
        D._profile = prof
    return prof
