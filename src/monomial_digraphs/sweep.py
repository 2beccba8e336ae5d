"""Campaign driver: verify the isomorphism-class conjecture over a range of
prime powers, with a result cache and machine-readable reports.

Within each parameter class the explicit power-map isomorphism is built and
checked on the field (`verify_power_map`), so no class member is built as a
digraph; across classes only canonical representatives are built and
compared (first by invariants, then by search), since within-class
isomorphism lifts representative-level verdicts to all members.
"""

import json
import sys
import time
from dataclasses import dataclass, field as dc_field

from .field import make_field, factor_prime_power
from .digraph import build_monomial, MAX_VERTICES
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
        return {
            "q": self.q,
            "class_count": self.class_count,
            "within_class_checks": self.within_class_checks,
            "cross_class_pairs": self.cross_class_pairs,
            "resolved_by_invariant": self.resolved_by_invariant,
            "resolved_by_search": self.resolved_by_search,
            "undecided": self.undecided,
            "counterexamples": self.counterexamples,
        }


def prime_powers(q_min: int, q_max: int):
    out = []
    for q in range(max(q_min, 2), q_max + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


class CacheCorruptError(OSError):
    """A cache line other than the last one does not decode."""


class ProfileCache:
    """Append-only JSONL cache of invariant profiles keyed by (q, m, n).

    A corrupt trailing line (truncated write) is dropped on reload with a
    warning on stderr, and the file is cut back to the end of its last
    good line so that new records start on a line of their own.  A corrupt
    line before the last raises CacheCorruptError.
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
                prof = invariants.InvariantProfile(**_profile_kwargs(rec["profile"]))
            except (ValueError, KeyError, TypeError) as exc:
                if any(lines[i + 1:]):
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
        rec = {"q": q, "m": m, "n": n, "profile": profile.as_dict(),
               "refinement_signature": None}
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _profile_kwargs(d):
    kw = dict(d)
    if kw.get("cycle_spectrum") is not None:
        kw["cycle_spectrum"] = tuple(kw["cycle_spectrum"])
    return kw


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
    if q * q > MAX_VERTICES:
        raise ValueError(f"q = {q} gives {q * q} vertices, more than the "
                         f"implementation bound {MAX_VERTICES}")
    report = SweepReport(q=q)
    F = make_field(*factor_prime_power(q))
    classes = _m1_classes(q) if m1_only else conjugate_classes(q)
    report.class_count = len(classes)

    digraphs = {}

    def D(m, n):
        if (m, n) not in digraphs:
            digraphs[(m, n)] = build_monomial(F, m, n)
        return digraphs[(m, n)]

    # within-class: verify the explicit power-map isomorphism for every member
    for cls in classes:
        rm, rn = cls.canonical_rep
        for m, n in cls.members:
            if (m, n) == (rm, rn):
                continue
            k = explicit_iso(q, rm, rn, m, n)
            assert k is not None, "class member without explicit isomorphism"
            mapping = power_map(F, k)
            ok = verify_power_map(F, mapping, (m, n), (rm, rn))
            assert ok, f"explicit map failed verification for q={q} " \
                       f"({m},{n}) -> ({rm},{rn})"
            report.within_class_checks += 1
            if iso_sink is not None:
                iso_sink.append({"q": q, "source": (m, n), "target": (rm, rn),
                                 "mapping": mapping})

    # cross-class: compare canonical representatives pairwise
    def rep_profile(m, n):
        if cache is not None:
            hit = cache.get(q, m, n)
            if hit is not None:
                return hit
        prof = invariants.profile(D(m, n))
        if cache is not None:
            cache.put(q, m, n, prof)
        return prof

    reps = [cls.canonical_rep for cls in classes]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            report.cross_class_pairs += 1
            pi = (q, *reps[i])
            pj = (q, *reps[j])
            filt = invariants.necessary_filter(pi, pj)
            if not filt.passed:
                report.resolved_by_invariant += 1
                continue
            prof_i = rep_profile(*reps[i])
            prof_j = rep_profile(*reps[j])
            if any(getattr(prof_i, f) != getattr(prof_j, f)
                   for f in invariants.PRUNING_FIELDS):
                report.resolved_by_invariant += 1
                continue
            try:
                cert = iso_search(D(*reps[i]), D(*reps[j]), budget=budget)
            except UndecidedError:
                report.undecided += 1
                continue
            if cert.verdict == "NonIso":
                report.resolved_by_search += 1
            else:
                report.counterexamples.append(
                    {"pair1": list(reps[i]), "pair2": list(reps[j])})
                if iso_sink is not None:
                    iso_sink.append({"q": q, "source": reps[i],
                                     "target": reps[j],
                                     "mapping": list(cert.mapping)})

    report.wall_time = time.perf_counter() - t0
    return report


def sweep(q_min, q_max, *, m1_only=False, cache=None,
          budget=DEFAULT_SEARCH_BUDGET, iso_sink=None):
    """Run the conjecture-verification campaign over [q_min, q_max].

    With m1_only the sweep restricts to odd prime powers and to parameter
    pairs with m = 1 (every class is then a single pair).
    """
    reports = []
    for q in prime_powers(q_min, q_max):
        if m1_only and q % 2 == 0:
            continue
        reports.append(sweep_one(q, m1_only=m1_only, cache=cache,
                                 budget=budget, iso_sink=iso_sink))
    return reports
