"""Campaign driver: verify the isomorphism-class conjecture over a range of
prime powers, with a result cache and machine-readable reports.

Within each parameter class the explicit power-map isomorphism is built and
checked on the field (`verify_power_map`), so no class member is built as a
digraph, and each unit's vertex map is built once per q.  Across classes
canonical representatives are compared, first by invariants read from the
field (`invariants.field_profile`), then by search, since within-class
isomorphism lifts representative-level verdicts to all members; only the
representatives in pairs that reach the search are built, and each is
dropped after the last search it takes part in.
"""

import json
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, fields
from itertools import combinations

from .field import make_field, factor_prime_power
from .digraph import build_monomial, check_order
from . import invariants
from .iso import (explicit_iso, power_map, verify_power_map,
                  conjugate_classes, iso_search, ParameterClass,
                  UndecidedError, DEFAULT_SEARCH_BUDGET)
# unused here, but perfbench/spans.install patches sweep.verify_mapping
from .iso import verify_mapping  # noqa: F401


@dataclass
class SweepReport:
    q: int
    class_count: int = 0
    within_class_checks: int = 0
    cross_class_pairs: int = 0
    resolved_by_invariant: int = 0
    resolved_by_search: int = 0
    undecided: int = 0
    counterexamples: list = dc_field(default_factory=list)
    wall_time: float = 0.0      # not in as_dict(), which is byte-stable

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "wall_time"}


def prime_powers(q_min: int, q_max: int):
    """The prime powers in [q_min, q_max], ascending, one at a time, so a
    caller can stop at the first past a bound."""
    for q in range(max(q_min, 2), q_max + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        yield q


class CacheCorruptError(OSError):
    """A cache line is neither a record nor a torn last record."""


_RECORD_START = b'{"q": '               # how every line put writes begins


class ProfileCache:
    """Append-only JSONL cache of invariant profiles keyed by (q, m, n).

    A torn last line (it begins as put's records do, or as a prefix of
    that, and does not decode) is dropped with a warning on stderr and cut
    off, so that new records start on a line of their own.  Any other bad
    line raises CacheCorruptError and leaves the file as it was.
    """

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self._fh = None
        self._load()
        self._fh = open(path, "a", encoding="utf-8")

    def _load(self):
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        lines = data.split(b"\n")
        end = 0                         # byte offset just past line i
        for i, line in enumerate(lines):
            start, end = end, end + len(line) + 1
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = (rec["q"], rec["m"], rec["n"])
                kw = {**rec["profile"]}
                kw.pop("cycle_spectrum", None)      # null in older records
                prof = invariants.InvariantProfile(**kw)
            except (ValueError, KeyError, TypeError) as exc:
                torn = (isinstance(exc, json.JSONDecodeError) and
                        _RECORD_START.startswith(line[:len(_RECORD_START)]))
                if not torn or any(lines[i + 1:]):
                    raise CacheCorruptError(
                        f"corrupt cache line {i + 1} in {self.path}: "
                        f"{exc}") from exc
                print(f"warning: dropping corrupt trailing cache line in "
                      f"{self.path}", file=sys.stderr)
                with open(self.path, "r+b") as fh:
                    fh.truncate(start)
                return
            self.entries[key] = prof
        if data and not data.endswith(b"\n"):
            # the last record is whole but lost its newline
            with open(self.path, "ab") as fh:
                fh.write(b"\n")

    def get(self, q, m, n):
        return self.entries.get((q, m, n))

    def put(self, q, m, n, profile):
        key = (q, m, n)
        if key in self.entries:
            return
        self.entries[key] = profile
        rec = {"q": q, "m": m, "n": n, "profile": asdict(profile)}
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _m1_classes(q):
    """Classes of (1, n) pairs: the orbit of (1, n) under unit
    multiplication meets m = 1 only at k = 1, so these are singletons."""
    return [ParameterClass(q=q, members=((1, n),), canonical_rep=(1, n))
            for n in range(1, q)]


def sweep_one(q, *, m1_only=False, cache=None,
              budget=DEFAULT_SEARCH_BUDGET, iso_sink=None) -> SweepReport:
    t0 = time.perf_counter()
    # the within-class phase builds no digraph, so the bound is checked
    # here, before it makes q^2-sized power maps
    check_order(q)
    report = SweepReport(q=q)
    F = make_field(*factor_prime_power(q))
    classes = _m1_classes(q) if m1_only else conjugate_classes(q)
    report.class_count = len(classes)

    digraphs = {}

    def D(m, n):
        if (m, n) not in digraphs:
            digraphs[(m, n)] = build_monomial(F, m, n)
        return digraphs[(m, n)]

    # within-class: verify the explicit power-map isomorphism for every
    # member.  Each unit k's vertex map is made once per q and checked in
    # full the first time; product form is a property of the map, so each
    # later member that k carries is checked on its first coordinates.
    maps = {}                   # k -> (vertex map, first coordinates)
    for cls in classes:
        rm, rn = cls.canonical_rep
        for m, n in cls.members:
            if (m, n) == (rm, rn):
                continue
            # raised, not asserted, so that python -O keeps the checks
            k = explicit_iso(q, rm, rn, m, n)
            if k is None:
                raise RuntimeError("class member without explicit isomorphism")
            if k in maps:
                mapping, checked = maps[k]
            else:
                mapping = checked = power_map(F, k)
                maps[k] = mapping, [v // q for v in mapping[::q]]
            if not verify_power_map(F, checked, (m, n), (rm, rn)):
                raise RuntimeError(f"explicit map failed verification for "
                                   f"q={q} ({m},{n}) -> ({rm},{rn})")
            report.within_class_checks += 1
            if iso_sink is not None:
                iso_sink.append({"q": q, "source": (m, n), "target": (rm, rn),
                                 "mapping": mapping})

    # cross-class: compare canonical representatives pairwise
    def rep_profile(key):
        if cache is not None:
            hit = cache.get(*key)
            if hit is not None:
                return hit
        prof = invariants.field_profile(F, *key[1:])
        if cache is not None:
            cache.put(*key, prof)
        return prof

    # a pair is left to iso_search iff the gcd filter passes it and no
    # field of PRUNING_FIELDS separates the profiles, which are only read
    # for the pairs that the filter passes; each representative's
    # (q, m, n) key is made once
    reps = [(q, *cls.canonical_rep) for cls in classes]
    searching = [(a[1:], b[1:]) for a, b in combinations(reps, 2)
                 if invariants.necessary_filter(a, b).passed
                 and invariants.separating_field(rep_profile(a),
                                                 rep_profile(b)) is None]
    report.cross_class_pairs = len(reps) * (len(reps) - 1) // 2
    report.resolved_by_invariant = report.cross_class_pairs - len(searching)

    # a representative's digraph is dropped after the last pair it is in
    last = {rep: k for k, pair in enumerate(searching) for rep in pair}
    for k, (a, b) in enumerate(searching):
        try:
            cert = iso_search(D(*a), D(*b), budget=budget)
        except UndecidedError:
            report.undecided += 1
        else:
            if cert.verdict == "NonIso":
                report.resolved_by_search += 1
            else:
                report.counterexamples.append({"pair1": list(a),
                                               "pair2": list(b)})
                if iso_sink is not None:
                    iso_sink.append({"q": q, "source": a, "target": b,
                                     "mapping": list(cert.mapping)})
        for rep in (a, b):
            if last[rep] == k:
                del digraphs[rep]

    report.wall_time = time.perf_counter() - t0
    return report


def _sweep_qs(q_min, q_max, m1_only, budget):
    """The q values that sweep() runs, after the checks of its arguments
    that it makes before any work."""
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    if q_min > q_max:
        raise ValueError(f"qmin = {q_min} exceeds qmax = {q_max}")
    qs = []
    for q in prime_powers(q_min, q_max):
        if not (m1_only and q % 2 == 0):
            check_order(q)          # before the rest of the range is listed
            qs.append(q)
    return qs


def sweep(q_min, q_max, *, m1_only=False, cache=None,
          budget=DEFAULT_SEARCH_BUDGET, iso_sink=None):
    """Run the conjecture-verification campaign over [q_min, q_max].

    With m1_only the sweep restricts to odd prime powers and to parameter
    pairs with m = 1 (every class is then a single pair).  A negative
    budget, q_min > q_max or a q past the vertex bound raises ValueError
    before any work; a range with no such q is valid and gives no report.
    """
    return [sweep_one(q, m1_only=m1_only, cache=cache, budget=budget,
                      iso_sink=iso_sink)
            for q in _sweep_qs(q_min, q_max, m1_only, budget)]
