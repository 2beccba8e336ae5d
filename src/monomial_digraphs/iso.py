"""Isomorphism testing for monomial digraphs.

Three layers: the explicit power-map construction (sufficiency), invariant
filters, and a complete individualization-refinement backtracking search
that returns checkable certificates.
"""

import math
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, chain, compress, count
from operator import add, itemgetter
from dataclasses import dataclass

from .field import Field, units_mod, lagrange_interpolate
from .digraph import Digraph, MonomialDigraph, psi
from . import invariants

DEFAULT_SEARCH_BUDGET = 10 ** 9

# the most n with n * (n + 1) ** 3 < 2 ** 63 (55,108), so that every
# _in_arcs key fits in int64 and every colour in 16 bits
MAX_SEARCH_VERTICES = bisect_left(range(1 << 16), 1 << 63,
                                  key=lambda n: n * (n + 1) ** 3) - 1


class UndecidedError(Exception):
    """The search stopped before a verdict: its node budget ran out."""

    def __init__(self, nodes):
        super().__init__(f"no verdict after {nodes} search nodes "
                         f"(budget exhausted)")
        self.nodes = nodes


@dataclass(frozen=True)
class IsoCertificate:
    verdict: str                    # "Iso" or "NonIso"
    mapping: tuple | None = None    # vertex permutation, present iff Iso
    witness: str | None = None      # distinguishing invariant / "search-exhausted"
    nodes: int = 0

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
    for k in range(1, q):
        if ((k * m1 - m2) % (q - 1) == 0 and (k * n1 - n2) % (q - 1) == 0
                and math.gcd(k, q - 1) == 1):
            return k
    return None


def power_map(F: Field, k: int):
    """The vertex map (x, y) -> (x^k, y) as a permutation of ids.

    With gcd(k, q-1) = 1 this maps D(q; m2, n2) onto D(q; m1, n1) whenever
    k*m1 = m2 and k*n1 = n2 mod (q-1); ValueError for k < 1.
    """
    q = F.q
    xs = F.powers(k)
    return [xs[v // q] * q + (v % q) for v in range(q * q)]


def psi_automorphism(F: Field, m: int, n: int, c: int):
    """The automorphism psi_c of D(q; m, n) (digraph.psi) as a permutation
    of vertex ids; ValueError unless 1 <= c <= q-1."""
    q = F.q
    xs, ys = psi(F, m, n, c)
    return [x * q + y for x in xs for y in ys]


def _known_automorphisms(D: Digraph):
    """The automorphisms (x, y) -> (c*phi(x), c^(m+n)*phi(y) + t) of
    D = D(q; m, n), psi_c (digraph.psi) after phi, for nonzero c,
    phi = Frob^j with j < e, and t in GF(q) when p = 2 (a shift of both
    second coordinates leaves x2 + y2 alone in characteristic 2), t = 0
    otherwise.

    Returns (elements, apply): the range of the element numbers
    g = ((c - 1) * e + j) * s + t, with s = q if p = 2 and s = 1
    otherwise, identity first, which form a group of order (q-1)*e*s, and
    apply(g, v), the image of vertex id v under g.  Elements are applied
    from their parameters; no permutation list is kept.  Every element is
    a product of the generators psi at the primitive element, Frob when
    e > 1 and the shifts by p^i when p = 2, which are checked with
    verify_mapping on D itself.  Returns None when a generator fails that
    check, or when build_monomial did not make D, as for labels and
    seeds.  The result is made once per digraph and kept on it, so the
    generator checks run once however many searches D takes part in.
    """
    if not hasattr(D, "_iso_automorphisms"):
        D._iso_automorphisms = _automorphism_family(D)
    return D._iso_automorphisms


def _automorphism_family(D: Digraph):
    """_known_automorphisms(D), made afresh."""
    if not isinstance(D, MonomialDigraph):
        return None
    F, P = D.field, D.params
    q, p, e = F.q, F.p, F.e
    frob = [F.powers(p ** j) for j in range(e)]
    s = q if p == 2 else 1
    xs, ys = [], []                     # indexed by (c - 1) * e + j
    for c in range(1, q):
        cx, cy = psi(F, P.m, P.n, c)
        for j in range(e):
            xs.append([cx[a] for a in frob[j]])
            ys.append([cy[a] for a in frob[j]])

    def apply(g, v):
        k, t = divmod(g, s)
        # t is 0 unless p = 2, where addition of ids is XOR
        return xs[k][v // q] * q + (ys[k][v % q] ^ t)

    gens = [(F.primitive - 1) * e * s]
    if e > 1:
        gens.append(s)                  # c = 1, j = 1
    if p == 2:
        gens.extend(p ** i for i in range(e))
    for g in gens:
        if not verify_mapping(D, D, [apply(g, v) for v in range(D.n)]):
            return None
    return range((q - 1) * e * s), apply


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
    and target = (m2, n2), all four exponents >= 1.

    Then x2 + y2 = x1^m1 * y1^n1 exactly when
    x2 + y2 = a(x1)^m2 * a(y1)^n2, so the map carries D(q; m1, n1) onto
    D(q; m2, n2): the guarantee of verify_mapping on the built digraphs.
    mapping is either the q^2-entry vertex map, whose product form is
    checked by q^2 compares, or its first-coordinate map a itself (q
    entries), when the product form is known.  Either way a is then
    checked by three list compares against rows of F.power_table.
    """
    q = F.q
    if len(mapping) not in (q, q * q):
        raise ValueError("mapping must cover all q^2 vertices or all q "
                         "first coordinates")
    exponents = (*source, *target)
    if min(exponents) < 1:
        raise ValueError("exponents must be >= 1")
    if len(mapping) == q:
        a = list(mapping)
    else:
        a = [mapping[x * q] // q for x in range(q)]
        if list(mapping) != [ax * q + y for ax in a for y in range(q)]:
            return False
    pm1, pn1, pm2, pn2 = (F.power_table[_norm_exponent(e, q)]
                          for e in exponents)
    return (sorted(a) == list(range(q))
            and [pm2[ax] for ax in a] == pm1
            and [pn2[ax] for ax in a] == pn1)


def conjugate_classes(q: int):
    """Partition of [1, q-1]^2 into unit-multiplication orbits, in order
    of canonical_rep: the loop meets each orbit first at its least pair."""
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
    return classes


# -- color refinement and backtracking search --------------------------------

def _edge_labels(D):
    """Static arc labels, one list aligned with the adjacency lists:
    out[u][i] is the label of u -> adj[u][i].

    The label of u -> v packs the number of 2-paths u -> w -> v,
    |N+(u) & N-(v)|, and that of 2-paths v -> w -> u, |N-(u) & N+(v)|,
    into one int, a * (n + 1) + b.  Any isomorphism preserves them, and
    they give the refinement enough traction on these doubly regular
    digraphs; either count alone does not (with a alone D(32; 1, 2) and
    D(32; 1, 6) need a search node, with b alone D(16; 1, 2) and
    D(16; 1, 8) need 3 nodes instead of 1).  A digraph that
    build_monomial made is labelled from its field (_field_labels), any
    other by intersecting its rows.
    """
    if getattr(D, "_iso_edge_labels", None) is None:
        if isinstance(D, MonomialDigraph):
            out = _field_labels(D.field, D.params.m, D.params.n)
        else:
            adj, radj = D.adj, D.radj
            base = D.n + 1
            out = []
            for u, nbrs in enumerate(adj):
                ou, iu = set(nbrs), set(radj[u])
                out.append([len(ou.intersection(radj[v])) * base
                            + len(iu.intersection(adj[v])) for v in nbrs])
        D._iso_edge_labels = out
    return D._iso_edge_labels


def _field_labels(F: Field, m: int, n: int):
    """_edge_labels of D(q; m, n), from the field's tables.

    A 2-path (x1, x2) -> (z1, z2) -> (y1, y2) needs
    x2 - y2 = x1^m * z1^n - y1^n * z1^m, and each z1 that solves it fixes
    z2.  So with T[x][y][c] = #{z : x^m * z^n - y^n * z^m = c}, the arc
    (x1, x2) -> (y1, y2) has the counts T[x1][y1][x2 - y2] and
    T[y1][x1][y2 - x2].  Only the vertices (0, t) and (1, t) are labelled
    from T, so only its rows T[x][y] and T[y][x] for x in {0, 1} are
    made.  psi_(1/x1) (digraph.psi) keeps labels and carries (x1, x2),
    x1 != 0, to some (1, t), whose row it reads through y1 -> y1 / x1.
    """
    q = F.q
    base = q * q + 1
    mul, sub = F.mul_table, F.sub_table
    xm, xn = F.powers(m), F.powers(n)
    left = [[mul[a][b] for b in xn] for a in xm]        # x^m * z^n
    right = [[mul[a][b] for b in xm] for a in xn]       # y^n * z^m

    def T(x, y):
        row = [0] * q
        for a, b in zip(left[x], right[y]):
            row[sub[a][b]] += 1
        return row

    out = []
    for x1 in (0, 1):
        # column y1 holds the labels of the arcs to (y1, x1^m y1^n - x2)
        # for x2 = 0..q-1, laid out as build_monomial lays out the heads
        cols = []
        for y1, s in enumerate(left[x1]):
            fwd, bwd = T(x1, y1), T(y1, x1)
            cols.append([fwd[sub[x2][y2]] * base + bwd[sub[y2][x2]]
                         for x2, y2 in enumerate(sub[s])])
        out.extend(map(list, zip(*cols)))
    ones = out[q:]                                      # rows of (1, t)
    for x1 in range(2, q):
        xs, ys = psi(F, m, n, F.inv(x1))
        read = itemgetter(*xs)          # y1 -> y1 / x1, a tuple as q >= 3
        out.extend([list(read(ones[t])) for t in ys])
    return out


def _signatures(D, colors):
    """Each vertex's signature: its colour and the sorted (colour, label)
    pairs of its out-arcs, each pair packed into one int, colour * S +
    label.  Every label a * (n + 1) + b has a, b <= n, so it is below
    S = (n + 1) ** 2 and the packing is injective."""
    S = (D.n + 1) ** 2
    shifted = [c * S for c in colors]
    get = shifted.__getitem__
    for c, nbrs, labels in zip(colors, D.adj, _edge_labels(D)):
        yield c, tuple(sorted(map(add, map(get, nbrs), labels)))


def _in_arcs(D):
    """The in-arcs of each vertex, aligned with D.radj: in_arcs[v][i] is
    u * W + label for the arc u = radj[v][i] -> v and its _edge_labels
    label, with W = (n + 1) ** 3.  A colour c <= n packs with a label as
    c * S + label < W (see _signatures), so adding it keeps u apart.
    Each row is an int64 array, which is smaller than a list of these
    ints and quicker to read, for n up to MAX_SEARCH_VERTICES, which
    iso_search checks.  Made once per digraph and kept on it."""
    if getattr(D, "_iso_in_arcs", None) is None:
        W = (D.n + 1) ** 3
        rows = [array("q") for _ in range(D.n)]
        for u, (nbrs, labels) in enumerate(zip(D.adj, _edge_labels(D))):
            uW = u * W
            for v, label in zip(nbrs, labels):
                rows[v].append(uW + label)
        D._iso_in_arcs = rows
    return D._iso_in_arcs


def _recolour(D, colors, moved):
    """Each vertex's key for one round, a list aligned with `colors`.

    `moved` lists the vertices whose cell changed in the round before:
    all pieces but one of each cell that split (see _moved).  A search
    node's first round starts from a stable colouring in which only the
    individualized vertex moved.
    A vertex with out-arcs into `moved` gets the key (its colour, the
    sorted colour * S + label of those arcs, as _signatures packs them,
    written as int64 bytes); every other vertex gets its colour alone,
    which stands for (colour, b"").  Within a cell, keys split exactly
    as the signatures of _signatures do, by the "all but one piece"
    argument of Hopcroft's algorithm: the vertices of a cell had equal
    (colour, label) multisets under the colouring before, so the arcs
    into the piece left out of `moved` are those into its old cell less
    those into the other pieces.  Two digraphs get equal keys for equal
    signatures when they leave out the pieces of the same colours.

    The keys are made by walking the in-arcs of the moved vertices, not
    the out-arcs of every vertex: one sort of all those arcs, each packed
    with its tail, puts the arcs of each tail in one sorted run.  A run
    is kept as bytes, one object, where a tuple of ints would also leave
    CPython's per-length tuple free lists full (about 0.4 MB at q = 16).
    """
    W = (D.n + 1) ** 3
    S = (D.n + 1) ** 2
    in_arcs = _in_arcs(D)
    arcs = []
    for x in moved:
        arcs.extend(map((colors[x] * S).__add__, in_arcs[x]))
    arcs.sort()                 # by tail, then by colour * S + label
    # the arcs of each tail are one run of the sorted list
    degree = Counter(chain.from_iterable(map(D.radj.__getitem__, moved)))
    tails = sorted(degree)
    # u * W + colour * S + label -> colour * S + label, 8 bytes each
    packed = array("q", map(W.__rmod__, arcs)).tobytes()
    bounds = [8 * i for i in accumulate(map(degree.__getitem__, tails))]
    runs = map(packed.__getitem__, map(slice, [0, *bounds], bounds))
    keys = dict(zip(tails, zip(map(colors.__getitem__, tails), runs)))
    return list(map(keys.get, range(D.n), colors))


def _moved(old, new):
    """The vertices, ascending, in every piece but the largest of each
    cell of `old` that the refinement `new` splits; of two largest pieces
    the one met first stays out.  A cell that did not split adds nothing.
    """
    parent = dict(zip(new, old))        # new colour -> old colour
    if len(parent) == len(set(old)):    # no split: most last rounds
        return []
    pieces = {}                         # old colour -> its new colours
    for b, a in parent.items():
        pieces.setdefault(a, []).append(b)
    size = Counter(new)
    out = set()
    for colours in pieces.values():
        if len(colours) > 1:
            colours.remove(max(colours, key=size.__getitem__))
            out.update(colours)
    return list(compress(count(), map(out.__contains__, new)))


def _round_keys(D, colors, moved):
    """The keys of one refinement round, one per vertex: the signatures
    of _signatures when `moved` is None or holds over a quarter of the
    vertices, else the keys of _recolour.  From a quarter on, a sort per
    vertex is cheaper: it costs about a quarter as much per arc as
    _recolour's one sort of the arcs into `moved` (timed round by round
    at q = 16, 25 and 64)."""
    if moved is None or 4 * len(moved) > D.n:
        return _signatures(D, colors)
    return _recolour(D, colors, moved)


def _refine(D1, D2, c1, c2, rounds=None, moved1=None, moved2=None):
    """Jointly refine colorings until stable.

    A vertex's signature is its colour and the multiset of (colour,
    label) over its out-arcs (see _signatures).  A second multiset over
    its in-arcs changed no certificate in the sweeps up to q = 49, so it
    is left out.  Each round numbers D1's keys first, by first
    appearance, so D1's new colours never depend on D2: a round of D1 is
    its table (key -> colour), its new colouring, that colouring's
    histogram and its moved vertices, all fixed by c1 alone.  D2's
    vertices only look their keys up in that table; one missing from it
    gets colour None, which the histogram check rejects.  `rounds` is the
    list of D1's rounds from c1, filled as far as a call needs it, so
    that calls with the same c1 share it; by default it is made afresh.
    moved1 and moved2 are the vertices of each digraph that moved before
    the first round (see _recolour), or None, when that round signs every
    vertex.  Every later round keys by the vertices the round before
    moved (see _moved and _round_keys), and a round that moves no vertex
    of D1 is the last: once D2's histogram equals D1's, each key of D2
    holds a colour of c1, so the two colourings it refined had the same
    colours, and no cell of either split.  D2's moved vertices are those
    whose colour is one of D1's moved colours, so that both digraphs
    leave out the same piece of every split cell even when two pieces tie
    in size, and both move as many vertices.  The colourings are those of
    full rounds either way.  Returns refined (c1, c2), or None when the
    color histograms of the two digraphs separate (certain
    non-isomorphism under the current individualizations).
    """
    if rounds is None:
        rounds = []
    for r in count():
        if r == len(rounds):
            table = {}
            new1 = [table.setdefault(key, len(table))
                    for key in _round_keys(D1, c1, moved1)]
            rounds.append((table, new1, dict(Counter(new1)),
                           _moved(c1, new1)))
        table, new1, hist1, moved1 = rounds[r]
        new2 = list(map(table.get, _round_keys(D2, c2, moved2)))
        if dict(Counter(new2)) != hist1:
            return None
        if not moved1:
            return new1, new2
        colours = set(map(new1.__getitem__, moved1))
        moved2 = list(compress(count(), map(colours.__contains__, new2)))
        c1, c2 = new1, new2


def stable_coloring(D: Digraph):
    """Stable color-refinement coloring of a single digraph."""
    seeds = invariants.vertex_seeds(D)
    res = _refine(D, D, seeds, seeds)
    assert res is not None
    return res[0]


def iso_search(D1: Digraph, D2: Digraph,
               budget: int = DEFAULT_SEARCH_BUDGET) -> IsoCertificate:
    """Decide isomorphism with a verifiable certificate.

    The invariant profiles first, when both are MonomialDigraphs, whose
    params describe their arcs: the first of invariants.PRUNING_FIELDS in
    which they differ is the witness.  Then color refinement of the root
    from the invariants.vertex_seeds entries, then complete
    individualization-refinement backtracking.  When D2 is a monomial
    digraph, the search skips a candidate that a known automorphism of D2
    (see _known_automorphisms) maps onto one that already failed; this
    saves nodes and changes no verdict or mapping.  Exceeding `budget`
    backtrack nodes raises UndecidedError (never reported as NonIso); a
    negative budget raises ValueError.
    """
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    if D1.n != D2.n:
        raise ValueError("digraphs must have equal vertex counts")
    if D1.n > MAX_SEARCH_VERTICES:
        raise ValueError(f"{D1.n} vertices exceed the search bound "
                         f"of {MAX_SEARCH_VERTICES}")

    if isinstance(D1, MonomialDigraph) and isinstance(D2, MonomialDigraph):
        name = invariants.separating_field(invariants.profile(D1),
                                           invariants.profile(D2))
        if name is not None:
            return IsoCertificate("NonIso", witness=name)

    root = _refine(D1, D2, invariants.vertex_seeds(D1),
                   invariants.vertex_seeds(D2))
    if root is None:
        return IsoCertificate("NonIso", witness="color-refinement")
    # built once, and only when the search will branch
    group = _known_automorphisms(D2) if len(set(root[0])) < D1.n else None
    stab, apply = group or ([], None)
    nodes = 0
    # One frame per individualized vertex v of D1: v, n1, the refined
    # colouring of D1 with v given a fresh colour, the refined colouring
    # c2 of D2 it branches from, `stab`, the pointwise stabilizer within
    # the known automorphisms of D2 of the D2 vertices individualized
    # above it, the candidates w in D2 not yet taken, each given v's
    # colour n1[v] in turn, the `tried` orbits of those already taken and
    # D1's refinement rounds from n1, which every candidate shares (see
    # _refine).  The colourings branched from are stable, so only v and w
    # have moved: their refinement reads only the arcs into the cells that
    # split.  n1 and c2 are 16-bit arrays: lists would keep alive the int
    # objects that refinement makes for the colours from 257 on.
    stack = []
    node = (*root, stab)            # refined colourings still to expand
    while True:
        if node is not None:
            c1, c2, stab = node
            node = None
            # class sizes, the colours in order of their first member
            size = Counter(c1)
            if len(size) == D1.n:
                # colours are 0 .. n - 1: where[c] is D2's vertex of colour
                # c, where[c2[w]] = w
                where = sorted(range(D1.n), key=c2.__getitem__)
                mapping = list(map(where.__getitem__, c1))
                if verify_mapping(D1, D2, mapping):
                    return IsoCertificate("Iso", mapping=tuple(mapping),
                                          nodes=nodes)
            else:
                # smallest non-singleton class; ties by smallest member id
                least = min(filter((1).__lt__, size.values()))
                color = next(compress(size, map(least.__eq__, size.values())))
                v = c1.index(color)
                n1, c2 = array("H", c1), array("H", c2)
                n1[v] = len(size)       # refined colours are 0 .. len - 1
                # D2's class of that colour, ascending, read lazily
                candidates = compress(count(), map(color.__eq__, c2))
                stack.append((v, n1, c2, stab, candidates, set(), []))
        if not stack:
            return IsoCertificate("NonIso", witness="search-exhausted",
                                  nodes=nodes)
        v, n1, c2, stab, candidates, tried, rounds = stack[-1]
        w = next(candidates, None)
        if w is None:
            stack.pop()
            continue
        if w in tried:
            continue
        nodes += 1
        if nodes > budget:
            raise UndecidedError(nodes)
        # An automorphism g in stab preserves c2, so v -> w extends to an
        # isomorphism iff v -> g(w) does: once w fails, its orbit is skipped.
        # The orbit is recorded now and read only after w has failed.
        tried.update(apply(g, w) for g in stab)
        n2 = list(c2)
        n2[w] = n1[v]
        refined = _refine(D1, D2, n1, n2, rounds, [v], [w])
        if refined is not None:
            # descend; kept for every frame on the stack, the rounds would
            # hold several colour tables per level
            rounds.clear()
            node = (*refined, [g for g in stab if apply(g, w) == w])


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
