"""Spans around the program's layer boundaries, recorded from outside it.

`install(tracer, modules)` replaces each lookup site of a public layer
function with a wrapper that records one span per call: name, start, end,
parent span and run id.  Spans stay in memory until the run ends.
`layer_metrics(spans)` turns them into per-layer self times and counts.
"""

import time

# The per-layer metrics the traced run reports on its result line:
# (name, unit).  Times listed here are non-zero on every workload.
PER_LAYER = (
    ("field.make_field_s", "s"),
    ("field.make_field_calls", "count"),
    ("digraph.build_s", "s"),
    ("digraph.build_calls", "count"),
    ("digraph.arcs_built", "count"),
    ("digraph.build_ext_s", "s"),
    ("invariants.profile_s", "s"),
    ("invariants.profile_calls", "count"),
    ("invariants.profile_distinct", "count"),
    ("invariants.profile_useful_ratio", "ratio"),
    ("invariants.census_k22_s", "s"),
    ("invariants.census_k_s", "s"),
    ("invariants.loops_s", "s"),
    ("invariants.two_cycle_s", "s"),
    ("invariants.filter_calls", "count"),
    ("invariants.filter_rejects", "count"),
    ("invariants.sep.loop_total", "count"),
    ("invariants.sep.loop_distinct_nonzero_y", "count"),
    ("invariants.sep.two_cycle_count", "count"),
    ("invariants.sep.k_motif_count", "count"),
    ("invariants.sep.k22_motif_count", "count"),
    ("iso.search_s", "s"),
    ("iso.search_calls", "count"),
    ("iso.nodes", "count"),
    ("iso.root_settled", "count"),
    ("iso.undecided", "count"),
    ("iso.verify_calls", "count"),
    ("sweep.pairs", "count"),
    ("sweep.within_checks", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.cache_puts", "count"),
    ("cli.self_s", "s"),
    ("cli.json_bytes", "bytes"),
    ("cli.json_identical", "flag"),
    ("trace.overhead_s", "s"),
)

# Also reported, in the run record and on stderr, but not on the result
# line: each is exactly 0 on at least one workload (a layer that workload
# never enters, or no backtrack node), so it cannot vary between runs there.
DETAIL_ONLY = (
    ("iso.nodes_per_s", "1/s"),
    ("iso.verify_s", "s"),
    ("iso.power_map_s", "s"),
    ("iso.classes_s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.qmax_s", "s"),
    ("sweep.cache_load_s", "s"),
)

PROFILE_FIELDS = ("loop_total", "loop_distinct_nonzero_y", "two_cycle_count",
                  "k_motif_count", "k22_motif_count")


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, annotate=None):
        """A wrapper of `fn` recording one span per call.  `name` is a
        string or a function of the call's arguments; `annotate(span,
        args, result)` adds fields after a normal return."""
        spans, stack, clock, run_id = self.spans, self._stack, self.clock, \
            self.run_id

        def traced(*args, **kwargs):
            span = {"id": len(spans),
                    "parent": stack[-1] if stack else None,
                    "name": name if isinstance(name, str) else name(args),
                    "run": run_id}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["end"] = clock()
                span["error"] = type(exc).__name__
                if hasattr(exc, "nodes"):      # iso.UndecidedError
                    span["nodes"] = exc.nodes
                raise
            finally:
                stack.pop()
            span["end"] = clock()
            if annotate is not None:
                annotate(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _ann_build(span, args, D):
    span["q"] = D.params.q
    span["e"] = D.field.e
    span["arcs"] = sum(len(nbrs) for nbrs in D.adj)


def _ann_profile(span, args, prof):
    p = args[0].params
    span["key"] = [p.q, p.m, p.n]
    span["fields"] = {f: getattr(prof, f) for f in PROFILE_FIELDS}


def _ann_filter(span, args, res):
    span["passed"] = res.passed
    keys = []
    for p in args[:2]:
        keys.append(list(p) if isinstance(p, tuple) else [p.q, p.m, p.n])
    span["pair"] = sorted(keys)


def _ann_search(span, args, cert):
    span["nodes"] = cert.nodes
    span["verdict"] = cert.verdict


def _ann_sweep_one(span, args, report):
    span["q"] = report.q
    span["pairs"] = report.cross_class_pairs
    span["within"] = report.within_class_checks


def _ann_cache_get(span, args, prof):
    span["hit"] = prof is not None
    if prof is not None:
        span["key"] = list(args[1:4])
        span["fields"] = {f: getattr(prof, f) for f in PROFILE_FIELDS}


def _census_name(args):
    return {"K": "invariants.census_k",
            "directed-K22": "invariants.census_k22"}.get(
                args[1], "invariants.census_other")


def install(tracer, field, invariants, iso, sweep, cli):
    """Patch every lookup site the `mdg` commands use.  `sweep`, `cli` and
    `iso` hold their own imported names, so each is patched where it is
    looked up (build_monomial, for one, only in sweep and cli).  Returns a
    function that restores the originals."""
    cache_cls = sweep.ProfileCache
    sites = [
        (field, "make_field", "field.make_field", None),
        (sweep, "make_field", "field.make_field", None),
        (sweep, "build_monomial", "digraph.build_monomial", _ann_build),
        (cli, "build_monomial", "digraph.build_monomial", _ann_build),
        (invariants, "profile", "invariants.profile", _ann_profile),
        (invariants, "motif_census", _census_name, None),
        (invariants, "count_loops", "invariants.count_loops", None),
        (invariants, "two_cycle_count", "invariants.two_cycle_count", None),
        (invariants, "necessary_filter", "invariants.necessary_filter",
         _ann_filter),
        (sweep, "iso_search", "iso.iso_search", _ann_search),
        (cli, "iso_search", "iso.iso_search", _ann_search),
        (sweep, "verify_mapping", "iso.verify_mapping", None),
        (iso, "verify_mapping", "iso.verify_mapping", None),
        (sweep, "power_map", "iso.power_map", None),
        (sweep, "conjugate_classes", "iso.conjugate_classes", None),
        (cli, "run_sweep", "sweep.sweep", None),
        (sweep, "sweep_one", "sweep.sweep_one", _ann_sweep_one),
        (cache_cls, "_load", "sweep.cache_load", None),
        (cache_cls, "get", "sweep.cache_get", _ann_cache_get),
        (cache_cls, "put", "sweep.cache_put", None),
        (cli, "main", "cli.main", None),
    ]
    saved = []
    for owner, attr, name, annotate in sites:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, annotate))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- from spans to metrics ----------------------------------------------------

def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps merged)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], lo), min(c["end"], s["end"])
            if b > a:
                covered += b - a
                lo = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans):
    """Per-layer metrics (PER_LAYER and DETAIL_ONLY names, except the ones
    the caller measures: cli.json_*, trace.overhead_s)."""
    self_t = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names, where=lambda s: True):
        return sum(self_t[s["id"]] for n in names
                   for s in by_name.get(n, ()) if where(s))

    builds = by_name.get("digraph.build_monomial", [])
    profiles = by_name.get("invariants.profile", [])
    filters = by_name.get("invariants.necessary_filter", [])
    searches = by_name.get("iso.iso_search", [])
    gets = by_name.get("sweep.cache_get", [])
    sweeps = by_name.get("sweep.sweep_one", [])

    known = {}
    for s in profiles + [g for g in gets if g.get("hit")]:
        known[tuple(s["key"])] = s["fields"]
    passing = {tuple(map(tuple, s["pair"])) for s in filters if s["passed"]}
    sep = dict.fromkeys(PROFILE_FIELDS, 0)
    for a, b in passing:
        if a in known and b in known:
            for f in PROFILE_FIELDS:
                sep[f] += known[a][f] != known[b][f]

    nodes = sum(s.get("nodes", 0) for s in searches)
    search_s = self_s("iso.iso_search")
    distinct = len({tuple(s["key"]) for s in profiles})
    qmax = max(sweeps, key=lambda s: s["q"], default=None)

    m = {
        "field.make_field_s": self_s("field.make_field"),
        "field.make_field_calls": calls("field.make_field"),
        "digraph.build_s": self_s("digraph.build_monomial"),
        "digraph.build_calls": len(builds),
        "digraph.arcs_built": sum(s["arcs"] for s in builds),
        "digraph.build_ext_s": self_s("digraph.build_monomial",
                                      where=lambda s: s["e"] > 1),
        "invariants.profile_s": self_s("invariants.profile"),
        "invariants.profile_calls": len(profiles),
        "invariants.profile_distinct": distinct,
        "invariants.profile_useful_ratio":
            distinct / len(profiles) if profiles else 0.0,
        "invariants.census_k22_s": self_s("invariants.census_k22"),
        "invariants.census_k_s": self_s("invariants.census_k"),
        "invariants.loops_s": self_s("invariants.count_loops"),
        "invariants.two_cycle_s": self_s("invariants.two_cycle_count"),
        "invariants.filter_calls": len(filters),
        "invariants.filter_rejects": sum(not s["passed"] for s in filters),
        "iso.search_s": search_s,
        "iso.search_calls": len(searches),
        "iso.nodes": nodes,
        "iso.root_settled": sum(1 for s in searches
                                if "error" not in s and s["nodes"] == 0),
        "iso.undecided": sum("error" in s and "nodes" in s
                             for s in searches),
        "iso.nodes_per_s": nodes / search_s if search_s > 0 else 0.0,
        "iso.verify_s": self_s("iso.verify_mapping"),
        "iso.verify_calls": calls("iso.verify_mapping"),
        "iso.power_map_s": self_s("iso.power_map"),
        "iso.classes_s": self_s("iso.conjugate_classes"),
        "sweep.self_s": self_s("sweep.sweep", "sweep.sweep_one",
                               "sweep.cache_get", "sweep.cache_put"),
        "sweep.qmax_s": qmax["end"] - qmax["start"] if qmax else 0.0,
        "sweep.pairs": sum(s["pairs"] for s in sweeps),
        "sweep.within_checks": sum(s["within"] for s in sweeps),
        "sweep.cache_load_s": self_s("sweep.cache_load"),
        "sweep.cache_hits": sum(1 for s in gets if s["hit"]),
        "sweep.cache_misses": sum(1 for s in gets if not s["hit"]),
        "sweep.cache_puts": calls("sweep.cache_put"),
        "cli.self_s": self_s("cli.main"),
    }
    for f in PROFILE_FIELDS:
        m[f"invariants.sep.{f}"] = sep[f]
    return m
