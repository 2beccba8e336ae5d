import hashlib
import json
import re
import time

import pytest

from monomial_digraphs import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "3", "2")
    assert code == 0
    assert "q = 9" in out
    assert "modulus = 1,0,1" in out


def test_field_info_rejects_composite(capsys):
    code, _, err = run(capsys, "field-info", "6", "1")
    assert code == 1
    assert "error" in err


def test_build_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "2", "1", "1")
    assert code == 0
    assert out.splitlines()[0] == "0,0 -> 0,0"
    assert len(out.splitlines()) == 8

    path = tmp_path / "d.dot"
    code, out, _ = run(capsys, "build", "3", "1", "2",
                       "--format", "dot", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().count("->") == 27


def test_build_out_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "build", "2", "1", "1",
                       "--out", str(tmp_path / "no" / "such" / "dir.txt"))
    assert code == 3
    assert "i/o error" in err


def test_invariants_table_and_json(capsys):
    code, out, _ = run(capsys, "invariants", "3", "1", "2")
    assert code == 0
    assert "two_cycle_count" in out and "9" in out
    assert "loop_total" in out

    code, out, _ = run(capsys, "invariants", "3", "1", "2",
                       "--cycles", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["two_cycle_count"] == 9
    assert doc["loop_total"] == 3
    assert doc["cycle_spectrum"] == [3, 9, 4]


def test_iso_noniso_q17_pair(capsys):
    code, out, _ = run(capsys, "iso", "17", "1", "4", "1", "12", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NonIso"
    assert doc["mapping"] is None


def test_iso_verdict_line(capsys):
    code, out, err = run(capsys, "iso", "5", "1", "2", "3", "2")
    assert code == 0
    assert out.startswith("verdict: Iso")
    # the search's node count and time go to stderr
    assert re.fullmatch(r"nodes=\d+ time=\d+\.\d{3}s\n", err)


def test_iso_rejects_out_of_range_exponent(capsys):
    code, _, err = run(capsys, "iso", "3", "1", "2", "99", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [("build", "131", "1", "1"),
                                  ("iso", "131", "1", "2", "1", "3"),
                                  ("sweep", "--qmin", "131", "--qmax", "131")])
def test_too_many_vertices_is_domain_error(capsys, argv):
    # GF(131) exists, but D(131; m, n) has 17161 > MAX_VERTICES vertices
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("iso", "1000000007", "1", "2", "1", "3"),
    ("build", "1000000007", "1", "1"),
    ("trinomial", "1000000007", "3"),
    ("sweep", "--qmin", "1000000007", "--qmax", "1000000007"),
    # stops at q = 131, before the rest of the range is listed
    ("sweep", "--qmin", "2", "--qmax", "200000"),
    ("sweep", "--qmin", "2", "--qmax", "1000000000000"),
    # rejected before 3 ** e is computed or printed
    ("field-info", "3", "10000000"),
    ("field-info", "3", "100000000"),
    # a prime near 10^18: no trial division up to its square root
    ("iso", "1000000000000000003", "1", "2", "1", "3"),
    ("field-info", "1000000000000000003", "1"),
    # sweep ranges near 10^18: each q is factored by integer roots and
    # Miller-Rabin, so the first prime power, 10^18 + 3, is found at once
    ("sweep", "--qmin", "1000000000000000003",
     "--qmax", "1000000000000000003"),
    ("sweep", "--qmin", "1000000000000000000",
     "--qmax", "1000000000000000100")])
def test_large_q_is_domain_error_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_iso_makes_the_field_once(capsys, monkeypatch):
    # both digraphs are built over one GF(q) and share its tables
    calls = []
    make = cli.field_for_order
    monkeypatch.setattr(cli, "field_for_order",
                        lambda q: calls.append(q) or make(q))
    code, out, _ = run(capsys, "iso", "8", "1", "2", "1", "4", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "NonIso"
    assert calls == [8]


def test_iso_budget_exhaustion(capsys):
    code, _, err = run(capsys, "iso", "16", "3", "6", "3", "9",
                       "--budget", "10")
    assert code == 2
    assert "undecided" in err


@pytest.mark.parametrize("argv, code_at_0", [
    (("iso", "8", "1", "2", "1", "4"), 2),
    (("sweep", "--qmin", "8", "--qmax", "8"), 2),
    # no pair reaches the search here, and the budget is still checked
    (("sweep", "--qmin", "2", "--qmax", "7"), 0),
])
def test_negative_budget_is_domain_error(capsys, argv, code_at_0):
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    # budget 0 is valid: a pair that needs a backtrack node is undecided
    assert run(capsys, *argv, "--budget", "0")[0] == code_at_0


@pytest.mark.parametrize("argv", [
    ("--qmin", "5", "--qmax", "3"),
    ("--qmin", "2", "--qmax", "3", "--budget", "-1"),
    ("--qmin", "2", "--qmax", "131"),       # past MAX_VERTICES at q = 131
])
def test_sweep_bad_arguments_leave_cache_alone(capsys, tmp_path, argv):
    cache = tmp_path / "cache.jsonl"
    code, out, err = run(capsys, "sweep", *argv, "--cache", str(cache))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not cache.exists()
    # opening the cache would cut this torn trailing line
    torn = '{"q": 7, "m": 1, "tru'
    cache.write_text(torn, encoding="utf-8")
    assert run(capsys, "sweep", *argv, "--cache", str(cache))[0] == 1
    assert cache.read_text(encoding="utf-8") == torn


@pytest.mark.parametrize("text", [
    b"notes", b"notes\n", b"[1,2]", b"[1,2]\n",
    # a whole record that begins like one but lacks its profile
    b'{"q": 3, "m": 1, "n": 2}\n',
])
def test_sweep_leaves_a_non_cache_file_alone(capsys, tmp_path, text):
    # only a last line that begins as a record does and fails to decode is
    # a torn write; any other bad line exits 3 with the file as it was
    cache = tmp_path / "notes.txt"
    good = tmp_path / "good.jsonl"
    run(capsys, "sweep", "--qmin", "8", "--qmax", "8", "--cache", str(good))
    for data in (text, good.read_bytes() + text):
        cache.write_bytes(data)
        code, out, err = run(capsys, "sweep", "--qmin", "2", "--qmax", "3",
                             "--cache", str(cache))
        assert (code, out) == (3, "")
        assert "corrupt cache line" in err
        assert cache.read_bytes() == data


def test_iso_json_byte_stable(capsys):
    _, out1, _ = run(capsys, "iso", "17", "1", "4", "1", "12", "--json")
    _, out2, _ = run(capsys, "iso", "17", "1", "4", "1", "12", "--json")
    assert out1 == out2


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_sweep_json_stdout(capsys):
    code, out, err = run(capsys, "sweep", "--qmin", "2", "--qmax", "5",
                         "--json", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(l)["q"] for l in lines] == [2, 3, 4, 5]
    for line in lines:
        doc = json.loads(line)
        assert doc["counterexamples"] == [] and doc["undecided"] == 0
    assert "total counterexamples: 0" in err


def test_sweep_json_byte_stable(capsys):
    code1, out1, err = run(capsys, "sweep", "--qmin", "2", "--qmax", "7",
                           "--json", "-")
    code2, out2, _ = run(capsys, "sweep", "--qmin", "2", "--qmax", "7",
                         "--json", "-")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "q=  7 time=" in err          # timings go to stderr


def test_sweep_report_pinned(capsys):
    code, out, _ = run(capsys, "sweep", "--qmin", "2", "--qmax", "16",
                       "--json", "-")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "2ff02648289a0d1f18bb328996e655985264598692c9784f28dbde15ac8c9a66"


def test_sweep_cache_bytes_pinned(capsys, tmp_path):
    # the cache lines follow the order in which the pair stage profiles
    # the representatives
    cache = tmp_path / "cache.jsonl"
    code, _, _ = run(capsys, "sweep", "--qmin", "2", "--qmax", "16",
                     "--cache", str(cache))
    data = cache.read_bytes()
    assert code == 0 and data.count(b"\n") == 26
    assert hashlib.sha256(data).hexdigest() == \
        "80a0b9ba97af6ed55f3aea3b44d14deba1f9e6e1a6bf4d31c4422cddfd345e39"


def test_sweep_report_pinned_17_19(capsys):
    code, out, _ = run(capsys, "sweep", "--qmin", "17", "--qmax", "19",
                       "--json", "-")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0821d2656c319b15287601b3c53ec922943327b0ebf857bda412cd95cb544b6e"


def test_sweep_empty_range_writes_no_line(capsys):
    # 10 is not a prime power, so there is no report to write
    code, out, _ = run(capsys, "sweep", "--qmin", "10", "--qmax", "10",
                       "--json", "-")
    assert (code, out) == (0, "")


def test_sweep_report_file_and_cache(capsys, tmp_path, monkeypatch):
    report = tmp_path / "report.jsonl"
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "sweep", "--qmin", "7", "--qmax", "8",
                       "--m1-only", "--json", str(report),
                       "--cache", str(cache))
    assert code == 0
    assert "q=  7" in out            # human summary still printed
    docs = [json.loads(l) for l in report.read_text().strip().splitlines()]
    assert [d["q"] for d in docs] == [7]        # m1-only skips even q
    assert cache.exists()
    before = report.read_bytes()

    # a report path that cannot be written exits 3 before the cache is
    # opened, so it neither creates a cache file nor cuts a torn line, and
    # before any q is swept
    with monkeypatch.context() as mp:
        mp.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("swept"))
        torn = tmp_path / "torn.jsonl"
        for exists in (False, True):
            if exists:
                torn.write_text('{"q": 7, "m": 1, "tru', encoding="utf-8")
            code, out, err = run(capsys, "sweep", "--qmin", "2",
                                 "--qmax", "5", "--cache", str(torn),
                                 "--json", str(tmp_path / "no" / "x.jsonl"))
            assert (code, out) == (3, "") and "i/o error" in err
            assert torn.exists() == exists
        assert torn.read_text(encoding="utf-8") == '{"q": 7, "m": 1, "tru'

    # a run that exits 1 on its arguments, or 3 on a corrupt cache, leaves
    # an existing report as it was, and the cache's bytes too
    code, _, _ = run(capsys, "sweep", "--qmin", "5", "--qmax", "3",
                     "--json", str(report))
    assert (code, report.read_bytes()) == (1, before)
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"notes")
    code, _, _ = run(capsys, "sweep", "--qmin", "3", "--qmax", "3",
                     "--json", str(report), "--cache", str(notes))
    assert (code, report.read_bytes(), notes.read_bytes()) == \
        (3, before, b"notes")
    # a finished sweep replaces the report
    code, _, _ = run(capsys, "sweep", "--qmin", "3", "--qmax", "3",
                     "--json", str(report))
    assert code == 0
    assert [json.loads(l)["q"] for l in report.read_text().splitlines()] \
        == [3]


def test_sweep_cache_from_the_environment(capsys, tmp_path, monkeypatch):
    # with no --cache the sweep caches to the file that
    # MONOMIAL_DIGRAPHS_CACHE names; --cache overrides it
    env_cache = tmp_path / "env.jsonl"
    flag_cache = tmp_path / "flag.jsonl"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(env_cache))
    argv = ("sweep", "--qmin", "2", "--qmax", "8")
    code, _, _ = run(capsys, *argv)
    records = env_cache.read_bytes()
    assert code == 0 and records.count(b"\n") > 0
    env_cache.unlink()
    code, _, _ = run(capsys, *argv, "--cache", str(flag_cache))
    assert code == 0 and flag_cache.read_bytes() == records
    assert not env_cache.exists()


def test_sweep_corrupt_cache_is_io_error(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"q": 7, "m": 1, "tru\n{}\n', encoding="utf-8")
    code, _, err = run(capsys, "sweep", "--qmin", "7", "--qmax", "7",
                       "--m1-only", "--cache", str(cache))
    assert code == 3
    assert "corrupt cache line 1" in err


def test_cycle_budget_exhaustion_is_undecided(capsys, monkeypatch):
    # exit 2 has a second cause besides the search budget
    count = cli.count_cycles_by_length
    monkeypatch.setattr(cli, "count_cycles_by_length",
                        lambda D, L: count(D, L, budget=10))
    code, out, err = run(capsys, "cycles", "3", "1", "2", "3")
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines()
            if line.startswith("undecided:")] == \
        ["undecided: cycle enumeration exceeded 10 steps"]


def test_census_and_cycles_and_trinomial(capsys):
    code, out, _ = run(capsys, "census", "17", "1", "4")
    assert (code, out.strip()) == (0, "16")
    code, out, _ = run(capsys, "census", "3", "1", "2",
                       "--motif", "directed-K22")
    assert (code, out.strip()) == (0, "9")

    code, out, _ = run(capsys, "cycles", "3", "1", "2", "3")
    assert code == 0
    assert out.splitlines() == ["1 3", "2 9", "3 4"]

    code, out, _ = run(capsys, "trinomial", "17", "5")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "trinomial", "17", "13")
    assert (code, out.strip()) == (0, "1")
