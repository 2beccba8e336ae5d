"""Tests of the benchmark's own code: span self times, the output checks,
seeded input selection, the calibration sampler, the tracer's patching and
BENCHMARK.json."""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(i, parent, start, end, name="x"):
    return {"id": i, "parent": parent, "name": name, "start": start,
            "end": end, "run": "t"}


# -- self time ----------------------------------------------------------------

def test_self_time_of_nested_spans():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),     # overlaps span 1: covered 1..5 once
        _span(3, 2, 2.5, 4.5),     # grandchild: counts against span 2 only
        _span(4, 0, 9.0, 12.0),    # clipped to the parent's end
        _span(5, None, 20.0, 21.0),
    ]
    st = spans.self_times(tree)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0 - 2.0)
    assert st[3] == pytest.approx(2.0)
    assert st[4] == pytest.approx(3.0)
    assert st[5] == pytest.approx(1.0)


def test_tracer_records_parents_and_undecided_nodes():
    ticks = iter(range(100))
    tracer = spans.Tracer("r", clock=lambda: next(ticks))

    class Undecided(Exception):
        def __init__(self, nodes):
            super().__init__()
            self.nodes = nodes

    def leaf():
        raise Undecided(7)

    def outer():
        try:
            traced_leaf()
        except Undecided:
            pass
        return 1

    traced_leaf = tracer.wrap(leaf, "iso.iso_search")
    assert tracer.wrap(outer, "cli.main")() == 1
    top, child = tracer.spans
    assert (top["name"], top["parent"]) == ("cli.main", None)
    assert child["parent"] == top["id"]
    assert child["error"] == "Undecided" and child["nodes"] == 7
    assert top["start"] < child["start"] < child["end"] < top["end"]
    m = spans.layer_metrics(tracer.spans)
    assert m["iso.nodes"] == 7 and m["iso.undecided"] == 1
    assert m["iso.root_settled"] == 0


# -- output checks ------------------------------------------------------------

def _sweep_results(ref, qranges, tweak=None):
    results = []
    for qmin, qmax in qranges:
        lines = []
        for q in sorted(ref):
            if not qmin <= q <= qmax:
                continue
            classes, within, cross = ref[q]
            rec = {"q": q, "class_count": classes,
                   "within_class_checks": within, "cross_class_pairs": cross,
                   "resolved_by_invariant": cross, "resolved_by_search": 0,
                   "undecided": 0, "counterexamples": [], "wall_time": 0.1}
            if tweak:
                tweak(rec)
            lines.append(json.dumps(rec))
        argv = workloads._sweep_argv(qmin, qmax)
        results.append((argv, 0, "\n".join(lines) + "\n"))
    return results


FULL_RANGES = [(2, 13), (17, 19)]


def test_sweep_check_accepts_reference_output():
    out = workloads.check("full-sweep",
                          _sweep_results(workloads.FULL_SWEEP_REFERENCE,
                                         FULL_RANGES))
    assert out.correct and out.failed == 0
    assert out.attempted == sum(w + c for _, w, c in
                                workloads.FULL_SWEEP_REFERENCE.values())


def test_sweep_check_ignores_stage_split():
    def split(rec):
        rec["resolved_by_search"] = rec["cross_class_pairs"] // 2
        rec["resolved_by_invariant"] -= rec["resolved_by_search"]
    out = workloads.check("m1-sweep",
                          _sweep_results(workloads.M1_SWEEP_REFERENCE,
                                         [(3, 19), (25, 25)], split))
    assert out.correct


@pytest.mark.parametrize("tweak", [
    lambda r: r.update(counterexamples=[{"pair1": [1, 2], "pair2": [1, 3]}]),
    lambda r: r.update(undecided=1),
    lambda r: r.update(resolved_by_invariant=0),
    lambda r: r.update(class_count=r["class_count"] + 1),
])
def test_sweep_check_rejects(tweak):
    def only_q19(rec):
        if rec["q"] == 19:
            tweak(rec)
    out = workloads.check("full-sweep",
                          _sweep_results(workloads.FULL_SWEEP_REFERENCE,
                                         FULL_RANGES, only_q19))
    assert not out.correct and out.failed >= 1


def test_sweep_check_rejects_missing_q_and_bad_exit():
    results = _sweep_results(workloads.FULL_SWEEP_REFERENCE, FULL_RANGES)
    argv, code, stdout = results[1]
    results[1] = (argv, code, stdout.splitlines()[0] + "\n")   # q=19 gone
    assert not workloads.check("full-sweep", results).correct
    results[1] = (argv, 1, "")
    out = workloads.check("full-sweep", results)
    assert not out.correct and out.failed == 210 + 1035 + 256 + 2278


def _iso_results(verdicts, seed=0):
    results = []
    for cmd, v in zip(workloads.workload("search-q16", seed).commands,
                      verdicts):
        if v == "undecided":
            results.append((cmd, workloads.EXIT_UNDECIDED, ""))
        else:
            cert = {"verdict": v, "mapping": list(range(256)) if v == "Iso"
                    else None, "witness": None, "nodes": 16}
            results.append((cmd, 0, json.dumps(cert) + "\n"))
    return results


def test_search_check_accepts_nonIso_and_budgeted_undecided():
    for last in ("undecided", "NonIso"):
        out = workloads.check("search-q16",
                              _iso_results(["NonIso", "NonIso", last]))
        assert out.correct and out.failed == 0 and out.attempted == 3
        assert out.undecided == (last == "undecided")


@pytest.mark.parametrize("verdicts", [
    ["Iso", "NonIso", "undecided"],
    ["NonIso", "NonIso", "Iso"],
    ["NonIso", "undecided", "undecided"],   # only the budgeted pair may stop
])
def test_search_check_rejects(verdicts):
    calls = []

    def verify(q, a, b, mapping):
        calls.append((q, a, b))
        return True
    out = workloads.check("search-q16", _iso_results(verdicts), verify)
    assert not out.correct and out.failed == 1
    assert len(calls) == verdicts.count("Iso")


# -- seeded inputs ------------------------------------------------------------

def test_seeded_members_are_deterministic_and_in_class():
    chosen = set()
    for seed in range(20):
        pairs = workloads.search_pairs(seed)
        assert pairs == workloads.search_pairs(seed)
        for (a, b), (ca, cb) in zip(pairs, workloads.SEARCH_PAIRS):
            assert a in workloads.class_members(16, *ca)
            assert b in workloads.class_members(16, *cb)
        chosen.add(tuple(pairs))
    assert len(chosen) > 1


def test_class_members_match_the_program():
    from monomial_digraphs.iso import conjugate_classes
    classes = {c.canonical_rep: list(c.members) for c in conjugate_classes(16)}
    for pair in workloads.SEARCH_PAIRS:
        for rep in pair:
            assert workloads.class_members(16, *rep) == classes[rep]


# -- calibration --------------------------------------------------------------

def test_calibrator_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with child.Calibrator() as cal:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            sum(range(1000))
    n = len(cal.samples)
    time.sleep(2 * child.CAL_PERIOD_S)
    assert len(cal.samples) == n >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < cal.spent < 0.3
    # 0.3 s of program time is 0.3 s / (mean loop duration) loops
    assert cal.in_cal(0.3) == pytest.approx(
        0.3 * sum(1 / c for c in cal.samples) / n)


def test_calibration_is_taken_even_without_ticks():
    assert child.Calibrator().in_cal(1.0) > 0


# -- tracing the real program -------------------------------------------------

def test_install_traces_every_site_and_restores(tmp_path):
    import importlib
    cli = importlib.import_module("monomial_digraphs.cli")
    mods = {n: sys.modules[f"monomial_digraphs.{n}"]
            for n in ("field", "invariants", "iso", "sweep")}
    before = {(n, a): getattr(mods[n], a) for n, a in
              [("sweep", "build_monomial"), ("invariants", "profile"),
               ("iso", "verify_mapping")]}
    tracer = spans.Tracer("t")
    restore = spans.install(tracer, mods["field"], mods["invariants"],
                            mods["iso"], mods["sweep"], cli)
    cache = str(tmp_path / "c.jsonl")
    try:
        for _ in range(2):
            assert cli.main(["sweep", "--qmin", "2", "--qmax", "8",
                             "--cache", cache, "--json",
                             str(tmp_path / "r.jsonl")]) == 0
        assert cli.main(["iso", "8", "1", "2", "1", "4", "--json"]) == 0
    finally:
        restore()
    for (n, a), fn in before.items():
        assert getattr(mods[n], a) is fn
    m = spans.layer_metrics(tracer.spans)
    assert m["sweep.cache_misses"] == m["sweep.cache_puts"] > 0
    assert m["sweep.cache_hits"] > 0
    assert m["digraph.build_calls"] > 0 and m["iso.verify_calls"] > 0
    builds = [s for s in tracer.spans if s["name"] == "digraph.build_monomial"]
    assert all(s["arcs"] == s["q"] ** 3 for s in builds)
    assert m["invariants.profile_calls"] > 0
    assert m["invariants.filter_calls"] >= m["invariants.filter_rejects"] > 0
    assert m["iso.search_calls"] >= 1
    assert m["field.make_field_calls"] >= 3
    names = {s["name"] for s in tracer.spans}
    assert {"cli.main", "sweep.sweep", "sweep.sweep_one", "sweep.cache_load",
            "invariants.census_k22", "invariants.census_k",
            "iso.power_map", "iso.conjugate_classes"} <= names


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in bench["workloads"]] == \
        [workloads.WHY[n] for n in workloads.NAMES]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(spans.PER_LAYER)
