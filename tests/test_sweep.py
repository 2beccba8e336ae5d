import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from monomial_digraphs.field import field_for_order, units_mod
from monomial_digraphs.digraph import build_monomial
from monomial_digraphs.iso import (IsoCertificate, explicit_iso, power_map,
                                   verify_mapping)
from monomial_digraphs.sweep import (SweepReport, ProfileCache, prime_powers,
                                     sweep, sweep_one)

sweep_mod = importlib.import_module("monomial_digraphs.sweep")


def test_prime_powers():
    assert list(prime_powers(2, 13)) == [2, 3, 4, 5, 7, 8, 9, 11, 13]
    assert list(prime_powers(10, 10)) == []
    assert list(prime_powers(25, 27)) == [25, 27]


def test_sweep_q2():
    r = sweep_one(2)
    # the sole parameter pair is (1, 1)
    assert r.class_count == 1
    assert r.cross_class_pairs == 0
    assert r.counterexamples == [] and r.undecided == 0


def test_sweep_q3():
    r = sweep_one(3)
    assert r.class_count == 4
    assert r.within_class_checks == 0   # units mod 2 = {1}: all singletons
    assert r.cross_class_pairs == 6
    assert r.resolved_by_invariant + r.resolved_by_search == 6
    assert r.counterexamples == [] and r.undecided == 0


def test_sweep_q5_accounting():
    r = sweep_one(5)
    assert r.class_count == 10
    # 16 pairs in 10 classes: 6 classes of size 2, checked memberwise
    assert r.within_class_checks == 6
    assert r.cross_class_pairs == 45
    assert (r.resolved_by_invariant + r.resolved_by_search
            + r.undecided + len(r.counterexamples)) == 45
    assert r.counterexamples == [] and r.undecided == 0


def test_package_attribute_is_the_sweep_module(monkeypatch):
    import monomial_digraphs
    import monomial_digraphs.sweep as imported
    assert imported is sweep_mod is monomial_digraphs.sweep
    # so a patch made through it reaches the sweep
    qs = []
    real = imported.sweep_one
    monkeypatch.setattr(imported, "sweep_one",
                        lambda q, **kw: qs.append(q) or real(q, **kw))
    assert [r.q for r in sweep(2, 5)] == qs == [2, 3, 4, 5]


def test_failed_member_check_fails_under_python_O():
    # the within-class checks must not be assert statements, which -O drops
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import importlib\n"
            "sweep = importlib.import_module('monomial_digraphs.sweep')\n"
            "sweep.verify_power_map = lambda *args: False\n"
            "print(sweep.sweep(5, 5)[0].within_class_checks)\n")
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode != 0, res.stdout
    assert "explicit map failed verification for q=5" in res.stderr


def test_sweep_m1_only_skips_even_q():
    reports = sweep(3, 9, m1_only=True)
    assert [r.q for r in reports] == [3, 5, 7, 9]
    for r in reports:
        assert r.class_count == r.q - 1
        assert r.within_class_checks == 0
        assert r.counterexamples == [] and r.undecided == 0


def test_iso_sink_collects_within_class_maps():
    sink = []
    sweep_one(5, iso_sink=sink)
    assert len(sink) == 6
    for rec in sink:
        assert rec["q"] == 5 and len(rec["mapping"]) == 25


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_within_class_sink_records_carry_their_member(q):
    sink = []
    r = sweep_one(q, iso_sink=sink)
    assert len(sink) == r.within_class_checks > 0
    F = field_for_order(q)
    for rec in sink:
        (m, n), (rm, rn) = rec["source"], rec["target"]
        assert rec["mapping"] == power_map(F, explicit_iso(q, rm, rn, m, n))
        assert verify_mapping(build_monomial(F, m, n),
                              build_monomial(F, rm, rn), rec["mapping"])


def test_each_unit_map_is_made_once_per_q(monkeypatch):
    real = sweep_mod.power_map
    calls = []

    def counted(F, k):
        calls.append((F.q, k))
        return real(F, k)

    monkeypatch.setattr(sweep_mod, "power_map", counted)
    qs = [2, 3, 4, 5, 7, 8, 9, 11, 13, 17, 19]
    checks = sum(sweep_one(q).within_class_checks for q in qs)
    assert (len(calls), checks) == (29, 740)
    assert len(set(calls)) == len(calls)
    for q in qs:
        assert sum(1 for c in calls if c[0] == q) <= len(units_mod(q - 1))


def test_counterexample_is_reported_and_sunk(monkeypatch):
    # no q = 8 pair is isomorphic, so a stub certifies one that reaches
    # the search; the other five still get the real search
    real = sweep_mod.iso_search
    fake = IsoCertificate("Iso", mapping=tuple(range(64)))

    def stub(D1, D2, **kw):
        pair = (D1.params.m, D1.params.n), (D2.params.m, D2.params.n)
        if pair == ((1, 2), (1, 4)):
            return fake
        return real(D1, D2, **kw)

    monkeypatch.setattr(sweep_mod, "iso_search", stub)
    sink = []
    r = sweep_one(8, iso_sink=sink)
    assert r.counterexamples == [{"pair1": [1, 2], "pair2": [1, 4]}]
    assert r.resolved_by_search == 5 and r.undecided == 0
    cross = [rec for rec in sink if rec["source"] == (1, 2)]
    assert cross == [{"q": 8, "source": (1, 2), "target": (1, 4),
                      "mapping": list(range(64))}]


def test_q25_counterexamples_are_sunk_with_verified_mappings():
    # the search's own mappings, unlike the stub's above; the two records
    # follow the within-class ones
    sink = []
    r = sweep_one(25, iso_sink=sink)
    assert r.counterexamples == [{"pair1": [3, 6], "pair2": [3, 18]},
                                 {"pair1": [6, 3], "pair2": [6, 9]}]
    assert len(sink) == r.within_class_checks + 2
    F = field_for_order(25)
    for rec, pair in zip(sink[-2:], r.counterexamples):
        assert (rec["q"], rec["source"], rec["target"]) == \
            (25, tuple(pair["pair1"]), tuple(pair["pair2"]))
        assert verify_mapping(build_monomial(F, *rec["source"]),
                              build_monomial(F, *rec["target"]),
                              rec["mapping"])


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ProfileCache(str(path))
    r1 = sweep_one(8, cache=cache)
    cache.close()

    # profiles are cached only for pairs that survive the gcd filter,
    # e.g. the reverse pair (1,2)/(1,4) at q = 8
    cache2 = ProfileCache(str(path))
    assert cache2.get(8, 1, 2) is not None
    r2 = sweep_one(8, cache=cache2)
    cache2.close()

    assert r1.as_dict() == r2.as_dict()


def test_cache_loads_records_with_the_refinement_signature_slot(tmp_path):
    # records once carried "refinement_signature": null, and their
    # profiles "cycle_spectrum": null, which nothing read; a cache written
    # then still loads and takes new records without either slot
    path = tmp_path / "cache.jsonl"
    cache = ProfileCache(str(path))
    sweep_one(8, cache=cache)
    cache.close()
    new = [json.loads(line)
           for line in path.read_text(encoding="utf-8").splitlines()]
    assert all("refinement_signature" not in rec
               and "cycle_spectrum" not in rec["profile"] for rec in new)
    old = "".join(json.dumps({**rec, "profile": {**rec["profile"],
                                                 "cycle_spectrum": None},
                              "refinement_signature": None}) + "\n"
                  for rec in new)
    path.write_text(old, encoding="utf-8")

    cache2 = ProfileCache(str(path))
    assert cache2.entries == cache.entries
    assert cache2.get(8, 1, 2) == cache.get(8, 1, 2) is not None
    sweep_one(9, cache=cache2)
    cache2.close()
    text = path.read_text(encoding="utf-8")
    assert text.startswith(old) and len(text) > len(old)
    assert "refinement_signature" not in text[len(old):]
    assert "cycle_spectrum" not in text[len(old):]

    cache3 = ProfileCache(str(path))
    assert cache3.entries == cache2.entries
    assert len(cache3.entries) > len(cache.entries)
    cache3.close()


def test_cache_tolerates_corrupt_trailing_line(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    cache = ProfileCache(str(path))
    sweep_one(8, cache=cache)
    cache.close()
    n_entries = len(cache.entries)
    assert n_entries > 0

    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"q": 8, "m": 1, "tru')    # simulated torn write

    cache2 = ProfileCache(str(path))
    assert len(cache2.entries) == n_entries
    assert "corrupt trailing" in capsys.readouterr().err
    sweep_one(9, cache=cache2)                 # appends after the torn line
    cache2.close()
    assert len(cache2.entries) > n_entries

    cache3 = ProfileCache(str(path))
    assert cache3.entries == cache2.entries
    cache3.close()
    assert capsys.readouterr().err == ""


def test_cache_restores_lost_final_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ProfileCache(str(path))
    sweep_one(8, cache=cache)
    cache.close()
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-1], encoding="utf-8")    # torn just before "\n"

    cache2 = ProfileCache(str(path))
    sweep_one(9, cache=cache2)
    cache2.close()
    cache3 = ProfileCache(str(path))
    assert cache3.entries == cache2.entries
    assert len(cache3.entries) > len(cache.entries)
    cache3.close()


def test_reports_deterministic_up_to_wall_time():
    a = sweep_one(7).as_dict()
    b = sweep_one(7).as_dict()
    assert a == b
    assert json.dumps(a) == json.dumps(b)


def test_report_dict_key_order():
    keys = list(SweepReport(q=2).as_dict())
    assert keys == ["q", "class_count", "within_class_checks",
                    "cross_class_pairs", "resolved_by_invariant",
                    "resolved_by_search", "undecided", "counterexamples"]


def test_representatives_are_dropped_after_their_last_search(monkeypatch):
    # at q = 8 six pairs reach the search; at each one, every digraph
    # still alive must take part in it or in a later pair
    import gc
    import weakref
    real_build, real_search = sweep_mod.build_monomial, sweep_mod.iso_search
    built = {}
    pairs = []
    alive = []

    def build(F, m, n):
        D = real_build(F, m, n)
        built[(m, n)] = weakref.ref(D)
        return D

    def search(D1, D2, **kw):
        pairs.append({(D1.params.m, D1.params.n),
                      (D2.params.m, D2.params.n)})
        alive.append({rep for rep, ref in built.items()
                      if ref() is not None})
        return real_search(D1, D2, **kw)

    monkeypatch.setattr(sweep_mod, "build_monomial", build)
    monkeypatch.setattr(sweep_mod, "iso_search", search)
    enabled = gc.isenabled()
    gc.disable()            # only reference counting may free them
    try:
        report = sweep_one(8)
        assert not any(ref() for ref in built.values())
    finally:
        if enabled:
            gc.enable()
    assert report.resolved_by_search == 6 and len(pairs) == 6
    for k, live in enumerate(alive):
        assert live <= set().union(*pairs[k:]), k
    assert len(alive[-1]) == 2
