"""Command-line front end: shapes, determinism, exit codes."""

import csv
import io
import json

import pytest

from tlbgram import __version__
from tlbgram.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == __version__
    assert data["count"] == 6
    assert len(data["diagrams"]) == 6
    assert data["diagrams"][0][0].keys() == {"i", "j", "w"}


def test_enumerate_text_lists_all_rows(capsys):
    code, out = run(capsys, "enumerate", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 diagrams
    assert "n=1;(1,2,w=0)" in out
    assert "n=1;(1,2,w=1)" in out


def test_gram_csv_shape(capsys):
    code, out = run(capsys, "gram", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [
        ["1*a^0*d^1", "1*a^1*d^0"],
        ["1*a^1*d^0", "1*a^0*d^1"],
    ]


def test_gram_json_includes_basis(capsys):
    code, out = run(capsys, "gram", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert len(data["basis"]) == 6
    assert len(data["entries"]) == 6


def test_det_verify_symbolic(capsys):
    code, out = run(capsys, "det-verify", "1", "--mode", "symbolic")
    assert code == 0
    assert "pass: True" in out
    assert "-1*a^2*d^0 + 1*a^0*d^2" in out


def test_det_verify_modular_report_fields(capsys):
    code, out = run(
        capsys, "det-verify", "2", "--mode", "modular", "--trials", "4",
        "--seed", "3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    for field in ("version", "n", "mode", "trials", "prime", "seed", "pass", "bound"):
        assert field in data
    assert data["trial_results"] == [True] * 4


def test_sign_check_command(capsys):
    code, out = run(capsys, "lemma2", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_nullity_gram_json_fields(capsys):
    code, out = run(capsys, "nullity-gram", "2", "1", "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["k"] == 1
    assert data["bound"] == 4
    assert data["nullity"] >= data["bound"]
    assert data["rank"] + data["nullity"] == 6
    assert data["sample"] == data["samples"][-1]
    assert data["pass"] is True


def test_nullity_skein_json_fields(capsys):
    code, out = run(capsys, "nullity-skein", "2", "2", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["bound"] == 1
    assert data["nullity"] >= 1
    assert data["pass"] is True


def test_jones_wenzl_paren_output(capsys):
    code, out = run(capsys, "jones-wenzl", "2")
    assert code == 0
    assert "(())\t1*A^0" in out
    assert "()()\t(1*A^2) / (1*A^4 + 1*A^0)" in out


def test_counts_csv_default(capsys):
    code, out = run(capsys, "counts", "2", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "count_tilde", "formula", "match"]
    assert rows[1] == ["2", "1", "5", "5", "True"]


def test_bijection_json_pairs(capsys):
    code, out = run(capsys, "bijection", "2", "1")
    assert code == 0
    data = json.loads(out)
    assert data["stratum_size"] == data["expected"] == 4
    assert data["pass"] is True
    assert {"subset": [4], "diagram": "n=2;(1,4,w=1),(2,3,w=1)"} in data["pairs"]


def test_telescoping_prints_one_line_per_size(capsys):
    code, out = run(capsys, "telescoping", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 50
    assert all(line.endswith("PASS") for line in lines)


def test_telescoping_json(capsys):
    code, out = run(capsys, "telescoping", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["pass"] is True
    assert [r["n"] for r in data["results"]] == [1, 2, 3]


def test_byte_identical_output(capsys):
    _, first = run(capsys, "nullity-gram", "2", "1", "--seed", "4")
    _, second = run(capsys, "nullity-gram", "2", "1", "--seed", "4")
    assert first == second
    _, third = run(capsys, "enumerate", "3", "--format", "json")
    _, fourth = run(capsys, "enumerate", "3", "--format", "json")
    assert third == fourth


def test_out_file_matches_stdout(tmp_path, capsys):
    _, direct = run(capsys, "counts", "2", "1")
    target = tmp_path / "table.csv"
    code = main(["counts", "2", "1", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == direct


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing positional
    assert exc.value.code == 2
    capsys.readouterr()


def test_guard_violation_exits_2(capsys):
    assert main(["enumerate", "99"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_domain_error_exits_2(capsys):
    assert main(["nullity-gram", "2", "5"]) == 2
    capsys.readouterr()


def test_verification_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("tlbgram.cli.telescoping_sides", lambda n: (1, 2))
    assert main(["telescoping", "1"]) == 1
    capsys.readouterr()


def assert_one_line_error(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_counts_below_domain_exits_2(capsys):
    assert_one_line_error(capsys, "counts", "0", "1")


def test_counts_negative_bound_exits_2(capsys):
    assert_one_line_error(capsys, "counts", "2", "-1")


def test_telescoping_below_domain_exits_2(capsys):
    assert_one_line_error(capsys, "telescoping", "-3")


def test_domain_checks_ignore_size_override(capsys, monkeypatch):
    monkeypatch.setenv("TLBGRAM_ALLOW_LARGE", "1")
    assert_one_line_error(capsys, "jones-wenzl", "0")
