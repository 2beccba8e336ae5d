import hashlib
import json

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
    code, out, _ = run(capsys, "iso", "5", "1", "2", "3", "2")
    assert code == 0
    assert out.startswith("verdict: Iso")


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


def test_iso_budget_exhaustion(capsys):
    code, _, err = run(capsys, "iso", "16", "3", "6", "3", "9",
                       "--budget", "10")
    assert code == 2
    assert "undecided" in err


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


def test_sweep_empty_range_writes_no_line(capsys):
    # 10 is not a prime power, so there is no report to write
    code, out, _ = run(capsys, "sweep", "--qmin", "10", "--qmax", "10",
                       "--json", "-")
    assert (code, out) == (0, "")


def test_sweep_report_file_and_cache(capsys, tmp_path):
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


def test_sweep_corrupt_cache_is_io_error(capsys, tmp_path):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"q": 7, "m": 1, "tru\n{}\n', encoding="utf-8")
    code, _, err = run(capsys, "sweep", "--qmin", "7", "--qmax", "7",
                       "--m1-only", "--cache", str(cache))
    assert code == 3
    assert "corrupt cache line 1" in err


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
