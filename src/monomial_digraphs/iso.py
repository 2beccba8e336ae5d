"""Isomorphism testing for monomial digraphs.

Three layers: the explicit power-map construction (sufficiency), invariant
filters, and a complete individualization-refinement backtracking search
that returns checkable certificates.
"""

import time
from dataclasses import dataclass

from .field import Field, units_mod, lagrange_interpolate
from .digraph import Digraph
from . import invariants

DEFAULT_SEARCH_BUDGET = 10 ** 9


class UndecidedError(Exception):
    """The search budget ran out before a verdict was reached."""

    def __init__(self, nodes):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class IsoCertificate:
    verdict: str                    # "Iso" or "NonIso"
    mapping: tuple | None = None    # vertex permutation, present iff Iso
    witness: str | None = None      # distinguishing invariant / "search-exhausted"
    nodes: int = 0
    seconds: float = 0.0

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "mapping": list(self.mapping) if self.mapping is not None else None,
            "witness": self.witness,
            "nodes": self.nodes,
        }


@dataclass(frozen=True)
class ParameterClass:
    """Orbit of (m, n) under (m, n) -> (km, kn) mod (q-1) over units k."""

    q: int
    members: tuple
    canonical_rep: tuple


def _norm_exponent(a: int, q: int) -> int:
    """Reduce an exponent into the representative range [1, q-1]."""
    return (a - 1) % (q - 1) + 1


def explicit_iso(q: int, m1: int, n1: int, m2: int, n2: int):
    """Smallest unit k with k*m1 = m2 and k*n1 = n2 mod (q-1), or None."""
    for k in units_mod(q - 1):
        if (k * m1 - m2) % (q - 1) == 0 and (k * n1 - n2) % (q - 1) == 0:
            return k
    return None


def power_map(F: Field, k: int):
    """The vertex map (x, y) -> (x^k, y) as a permutation of ids.

    With gcd(k, q-1) = 1 this maps D(q; m2, n2) onto D(q; m1, n1) whenever
    k*m1 = m2 and k*n1 = n2 mod (q-1).
    """
    q = F.q
    xs = [F.pow(x, k) if x else 0 for x in range(q)]
    return [xs[v // q] * q + (v % q) for v in range(q * q)]


def psi_automorphism(F: Field, m: int, n: int, c: int):
    """The automorphism (x, y) -> (c*x, c^(m+n)*y) of D(q; m, n)."""
    if c == 0:
        raise ValueError("c must be nonzero")
    q = F.q
    cs = F.pow(c, m + n)
    return [F.mul(c, v // q) * q + F.mul(cs, v % q) for v in range(q * q)]


def _known_automorphisms(D: Digraph):
    """The automorphisms (x, y) -> (c*phi(x), c^(m+n)*phi(y) + t) of
    D = D(q; m, n), for nonzero c, phi = Frob^j with j < e, and t in GF(q)
    when p = 2 (a shift of both second coordinates leaves x2 + y2 alone in
    characteristic 2), t = 0 otherwise.

    Returns (elements, apply): the (c, j, t) triples, identity first, which
    form a group of order (q-1)*e*(q if p = 2 else 1), and apply(g, v), the
    image of vertex id v under g.  Elements are applied from their
    parameters; no permutation list is kept.  Every element is a product
    of the generators psi at the primitive element, Frob when e > 1 and
    the shifts by p^i when p = 2, which are checked with verify_mapping on
    D itself, since params need not describe the arcs.  Returns None when
    a generator fails that check or D carries no field or params.
    """
    F, P = D.field, D.params
    if F is None or P is None or F.q != P.q or D.n != F.q * F.q:
        return None
    q, p, e = F.q, F.p, F.e
    frob = [[F.pow(x, p ** j) for x in range(q)] for j in range(e)]
    xs, ys = [], []                     # indexed by (c - 1) * e + j
    for c in range(1, q):
        cs = F.pow(c, P.m + P.n)
        for j in range(e):
            xs.append([F.mul(c, a) for a in frob[j]])
            ys.append([F.mul(cs, a) for a in frob[j]])

    def apply(g, v):
        c, j, t = g
        k = (c - 1) * e + j
        # t is 0 unless p = 2, where addition of ids is XOR
        return xs[k][v // q] * q + (ys[k][v % q] ^ t)

    shifts = range(q) if p == 2 else (0,)
    gens = [(F.primitive, 0, 0)]
    if e > 1:
        gens.append((1, 1, 0))
    if p == 2:
        gens.extend((1, 0, p ** i) for i in range(e))
    for g in gens:
        if not verify_mapping(D, D, [apply(g, v) for v in range(D.n)]):
            return None
    elements = [(c, j, t) for c in range(1, q) for j in range(e)
                for t in shifts]
    return elements, apply


def compose(outer, inner):
    """(outer o inner)[v] = outer[inner[v]]."""
    return [outer[w] for w in inner]


def identity_map(n: int):
    return list(range(n))


def verify_mapping(D1: Digraph, D2: Digraph, mapping) -> bool:
    """True iff mapping is a permutation of the vertex ids with
    u->v in D1 <=> f(u)->f(v) in D2."""
    if len(mapping) != D1.n or D1.n != D2.n:
        raise ValueError("mapping must cover all vertices of equal-order digraphs")
    if sorted(mapping) != list(range(D1.n)):
        return False
    # f bijective and f(N+(u)) = N+(f(u)) for every u: the adj rows are
    # sorted and duplicate-free, so row equality is set equality
    return all(sorted([mapping[v] for v in nbrs]) == D2.adj[fu]
               for nbrs, fu in zip(D1.adj, mapping))


def verify_power_map(F: Field, mapping, source, target) -> bool:
    """True iff mapping is (x, y) -> (a(x), y) for a permutation a of
    GF(q) with a(x)^m2 = x^m1 and a(x)^n2 = x^n1, where source = (m1, n1)
    and target = (m2, n2).

    Then x2 + y2 = x1^m1 * y1^n1 exactly when
    x2 + y2 = a(x1)^m2 * a(y1)^n2, so the map carries D(q; m1, n1) onto
    D(q; m2, n2): the guarantee of verify_mapping on the built digraphs,
    from q^2 compares and 4q powers.
    """
    q = F.q
    if len(mapping) != q * q:
        raise ValueError("mapping must cover all q^2 vertices")
    (m1, n1), (m2, n2) = source, target
    a = [mapping[x * q] // q for x in range(q)]
    return (sorted(a) == list(range(q))
            and list(mapping) == [ax * q + y for ax in a for y in range(q)]
            and all(F.pow(ax, m2) == F.pow(x, m1)
                    and F.pow(ax, n2) == F.pow(x, n1)
                    for x, ax in enumerate(a)))


def conjugate_classes(q: int):
    """Partition of [1, q-1]^2 into unit-multiplication orbits."""
    units = units_mod(q - 1)
    seen = set()
    classes = []
    for m in range(1, q):
        for n in range(1, q):
            if (m, n) in seen:
                continue
            orbit = sorted({(_norm_exponent(k * m, q), _norm_exponent(k * n, q))
                            for k in units})
            seen.update(orbit)
            classes.append(ParameterClass(q=q, members=tuple(orbit),
                                          canonical_rep=orbit[0]))
    classes.sort(key=lambda c: c.canonical_rep)
    return classes


# -- color refinement and backtracking search --------------------------------

def _edge_labels(D):
    """Static arc labels, aligned with the adjacency lists: (out, in) with
    out[u][i] the label of u -> adj[u][i] and in[v][i] that of
    radj[v][i] -> v.

    A label packs the four common-neighborhood sizes of the arc's
    endpoints into one int, base n + 1, so distinct tuples get distinct
    labels in the same order.  Any isomorphism preserves them, and they
    give the refinement enough traction on these doubly regular digraphs.
    """
    if getattr(D, "_iso_edge_labels", None) is None:
        outs = [set(a) for a in D.adj]
        ins = [set(a) for a in D.radj]
        base = D.n + 1
        out = []
        inn = [[] for _ in range(D.n)]
        # radj[v] lists tails in ascending order, as u runs here
        for u, nbrs in enumerate(D.adj):
            ou, iu = outs[u], ins[u]
            row = []
            for v in nbrs:
                lab = (((len(ou & outs[v]) * base + len(ou & ins[v])) * base
                        + len(iu & outs[v])) * base + len(iu & ins[v]))
                row.append(lab)
                inn[v].append(lab)
            out.append(row)
        D._iso_edge_labels = out, inn
    return D._iso_edge_labels


def _refine(D1, D2, c1, c2):
    """Jointly refine colorings until stable.

    Returns refined (c1, c2), or None when the color histograms of the two
    digraphs separate (certain non-isomorphism under the current
    individualizations).
    """
    n = D1.n
    lab1 = _edge_labels(D1)
    lab2 = _edge_labels(D2)
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
        hist1 = {}
        hist2 = {}
        for v in range(n):
            hist1[new1[v]] = hist1.get(new1[v], 0) + 1
            hist2[new2[v]] = hist2.get(new2[v], 0) + 1
        if hist1 != hist2:
            return None
        if len(table) == ncolors:
            return new1, new2
        ncolors = len(table)
        c1, c2 = new1, new2


def _initial_colors(D1, D2):
    """Seed colors from per-vertex isomorphism invariants.

    Plain refinement cannot split these in- and out-regular digraphs from a
    uniform start, so seed with loop membership and 2-cycle degree; both are
    preserved by any isomorphism.
    """
    table = {}

    def colors(D):
        out = []
        for v in range(D.n):
            key = (D.has_arc(v, v),
                   sum(1 for w in D.adj[v] if w != v and D.has_arc(w, v)))
            out.append(table.setdefault(key, len(table)))
        return out

    return colors(D1), colors(D2)


def stable_coloring(D: Digraph):
    """Stable color-refinement coloring of a single digraph."""
    c, _ = _initial_colors(D, D)
    res = _refine(D, D, c, list(c))
    assert res is not None
    return res[0]


def _classes_by_color(colors):
    classes = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return classes


def iso_search(D1: Digraph, D2: Digraph,
               budget: int = DEFAULT_SEARCH_BUDGET) -> IsoCertificate:
    """Decide isomorphism with a verifiable certificate.

    Invariant filters first, then color refinement, then complete
    individualization-refinement backtracking.  When D2 is a monomial
    digraph, the search skips a candidate that a known automorphism of D2
    (see _known_automorphisms) maps onto one that already failed; this
    saves nodes and changes no verdict or mapping.  Exceeding `budget`
    backtrack nodes raises UndecidedError (never reported as NonIso).
    """
    t0 = time.perf_counter()
    if D1.n != D2.n:
        raise ValueError("digraphs must have equal vertex counts")

    if D1.params is not None and D2.params is not None:
        filt = invariants.necessary_filter(D1.params, D2.params)
        if not filt.passed:
            return IsoCertificate("NonIso", witness=filt.failed_condition,
                                  seconds=time.perf_counter() - t0)
        p1 = invariants.profile(D1)
        p2 = invariants.profile(D2)
        for name in invariants.PRUNING_FIELDS:
            if getattr(p1, name) != getattr(p2, name):
                return IsoCertificate("NonIso", witness=name,
                                      seconds=time.perf_counter() - t0)

    state = {"nodes": 0, "root_separated": False}
    apply = None

    def search(c1, c2, stab):
        """`stab` is the pointwise stabilizer, within the known
        automorphisms of D2, of the D2 vertices individualized so far;
        None at the root, where the group is built on first branching."""
        nonlocal apply
        refined = _refine(D1, D2, c1, c2)
        if refined is None:
            # only the root call runs before the first backtrack node
            state["root_separated"] = state["nodes"] == 0
            return None
        c1, c2 = refined
        classes1 = _classes_by_color(c1)
        if all(len(vs) == 1 for vs in classes1.values()):
            classes2 = _classes_by_color(c2)
            mapping = [0] * D1.n
            for color, (v,) in classes1.items():
                mapping[v] = classes2[color][0]
            if verify_mapping(D1, D2, mapping):
                return mapping
            return None
        classes2 = _classes_by_color(c2)
        # smallest non-singleton class; ties broken by smallest member id
        color = min((c for c, vs in classes1.items() if len(vs) > 1),
                    key=lambda c: (len(classes1[c]), classes1[c][0]))
        v = classes1[color][0]
        fresh = max(max(c1), max(c2)) + 1
        if stab is None:
            group = _known_automorphisms(D2)
            stab, apply = group if group is not None else ([], None)
        # An automorphism g in stab preserves c2, so v -> w extends to an
        # isomorphism iff v -> g(w) does: once w fails, its orbit is skipped.
        tried = set()
        for w in classes2[color]:
            if w in tried:
                continue
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise UndecidedError(state["nodes"])
            n1 = list(c1)
            n2 = list(c2)
            n1[v] = fresh
            n2[w] = fresh
            found = search(n1, n2, [g for g in stab if apply(g, w) == w])
            if found is not None:
                return found
            tried.update(apply(g, w) for g in stab)
        return None

    mapping = search(*_initial_colors(D1, D2), None)
    elapsed = time.perf_counter() - t0
    if mapping is None:
        witness = ("color-refinement" if state["root_separated"]
                   else "search-exhausted")
        return IsoCertificate("NonIso", witness=witness,
                              nodes=state["nodes"], seconds=elapsed)
    assert verify_mapping(D1, D2, mapping)
    return IsoCertificate("Iso", mapping=tuple(mapping),
                          nodes=state["nodes"], seconds=elapsed)


# -- structural analysis of discovered isomorphisms --------------------------

class FirstCoordinateDependenceError(Exception):
    """The second output coordinate varied with the first input coordinate,
    which would falsify the expected structure of the mapping."""


@dataclass(frozen=True)
class SecondCoordinateStructure:
    fixes_origin: bool
    preserves_zero_column: bool
    g_values: tuple                # g_values[y] = second coord of image of (x, y)
    coefficients: tuple            # low-degree-first, length q
    odd_degree_only: bool
    is_permutation: bool

    @property
    def all_hold(self):
        return (self.fixes_origin and self.preserves_zero_column
                and self.odd_degree_only and self.is_permutation)


def extract_g(mapping, F: Field) -> SecondCoordinateStructure:
    """Recover the univariate second-coordinate map of an isomorphism.

    Checks that the second output coordinate depends on y only (raises
    FirstCoordinateDependenceError otherwise), interpolates it through all
    q points, and reports the structural properties of the result.
    """
    q = F.q
    if len(mapping) != q * q:
        raise ValueError("mapping must cover all q^2 vertices")
    g_values = []
    for y in range(q):
        images = {mapping[x * q + y] % q for x in range(q)}
        if len(images) != 1:
            raise FirstCoordinateDependenceError(
                f"second coordinate of images of (*, {y}) is not constant: "
                f"{sorted(images)}")
        g_values.append(images.pop())
    coeffs = lagrange_interpolate(F, list(enumerate(g_values)))
    odd_only = all(c == 0 for i, c in enumerate(coeffs) if i % 2 == 0)
    zero_column = all(mapping[y] // q == 0 for y in range(q))
    return SecondCoordinateStructure(
        fixes_origin=(mapping[0] == 0),
        preserves_zero_column=zero_column,
        g_values=tuple(g_values),
        coefficients=tuple(coeffs),
        odd_degree_only=odd_only,
        is_permutation=(len(set(g_values)) == q),
    )
