"""Command-line front end: shapes, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

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


# sha256 of `jones-wenzl k` stdout, recorded from the gcd-normalised
# implementation that the fraction-free projectors replaced.
JONES_WENZL_SHA256 = {
    "text": {
        1: "90be130c2e1692cfed9c5cb3acf4341ad077fb45413f36f3ed561b7b152b29e8",
        2: "9454796e28eabdaecd27b4df530e7da1e8f4d6fde1744e7b1f91a463cf7c1f09",
        3: "66e8b773b7ef7f58e1251436545d698235c08aa647bbe28628da59ed79d03dea",
        4: "002a337d234db8706c5ce9de23b875a0193c980e67b24a46c79cf864dc0a083a",
        5: "12d3ba0fe300f749d99bb76f7e001d229d582c15f5caf3b4d4b32e8b91d36cfd",
        6: "ccb57d3caff9f9146891ddbf1ed95bbc45cb2d9cf0550206ed77a1603829fd7e",
        7: "500b3a3dd4dd727192ef5e7ffc7f3d7244c923148e8a927390e3d0b94a3a880f",
        8: "99262801c6c93a3cd3dfb7b3ba4f8d4a41184552dd5ceeb37d2e5f5afa5622b6",
    },
    "json": {
        1: "3180e254603c1faeabd8f0c29aa54ed0f7dbdffd93ce2a32330715b161404cff",
        2: "aa3d7ad948afdf2003fb7bf332bded2507ca86b3a860d778c3d9ee45d933aeb4",
        3: "c3ca7589e5d848ee157d230d8882ed6b9b1f253b7f1588eb553d52360883fb5d",
        4: "e2b8f51e72d204e8de62d7fe4e58bbdf68e6b9b7eebedd25e7b35feb2f937448",
        5: "36dcf3e4061c60aaea405edf0fb91491b46409a831af7a73ca59b74ad22e0df0",
        6: "67eafaddc07a44ee85a513caf860e2405b0830aa2c86ea9a5e4046357325fec1",
        7: "278073d7ab8ee86eb126c621fcfa20af104139a67b0946c8ff00b5cf8b454a5c",
    },
}


def assert_jones_wenzl_pinned(capsys, k, fmt):
    flags = () if fmt == "text" else ("--format", fmt)
    code, out = run(capsys, "jones-wenzl", str(k), *flags)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == JONES_WENZL_SHA256[fmt][k]


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_jones_wenzl_output_pinned(capsys, fmt, k):
    assert_jones_wenzl_pinned(capsys, k, fmt)


@pytest.mark.slow
def test_jones_wenzl_8_output_pinned(capsys):
    assert_jones_wenzl_pinned(capsys, 8, "text")


# sha256 of nullity stdout, recorded from the implementation that
# evaluated every matrix entry as a Fraction before the rank.
NULLITY_SHA256 = {
    ("nullity-gram", "3", "2", "--seed", "7"):
        "96513afeb2b7641c0cd88d1e53c46ed6d2c105959eb21af68e3bfb902e0b20ee",
    ("nullity-skein", "3", "2", "--seed", "7"):
        "7d40bcba1fdb05f8079a1eb36ada2d3c3be66a86cb3d8207c4f21138348f5a50",
    ("nullity-gram", "4", "2", "--seed", "7", "--format", "json"):
        "29482781a9e7a0ca415506857ae65aa71b4716d18a0d4616c6a0c608ab5e68e3",
    ("nullity-skein", "4", "2", "--seed", "7", "--format", "json"):
        "68db6428f51ee1f10c76fdcbb6871ca64b8138ecda4ce4f1fc8671c774d37fd7",
    ("nullity-skein", "4", "4", "--seed", "7", "--format", "json"):
        "818a27ba27cacfc6513723d8ae6efb5fcc0a05703b24e51d5fc1486cd9347ddd",
}


@pytest.mark.parametrize("argv", list(NULLITY_SHA256), ids=" ".join)
def test_nullity_output_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NULLITY_SHA256[argv]


# sha256 of `det-verify 3` stdout.  Text and json were recorded from the
# implementation that ran Bareiss on every entry of G_3 in canonical basis
# order, csv from Bareiss on the crossing-ordered basis.
DET_VERIFY_3_SHA256 = {
    "text": "061fbef4a4e9a72d8716fbc48fe461d167433c4a07a7c9ecd9e59aee833af18a",
    "json": "9b2fb4824b6aedeb1c71d549c07378926587a9391792a3b4018e7ab7ae87627b",
    "csv": "ed52535676028996bc4cce36d5b3d030e1039932d1fefb566785934639caf1c4",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_det_verify_3_output_pinned(capsys, fmt):
    flags = () if fmt == "text" else ("--format", fmt)
    code, out = run(capsys, "det-verify", "3", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DET_VERIFY_3_SHA256[fmt]


# sha256 of symbolic `det-verify 1` and `det-verify 2` stdout, recorded
# from the implementation that ran Bareiss on the crossing-ordered basis.
DET_VERIFY_SHA256 = {
    ("1", "text"): "f7a71594865feb17663f820f3d5ec6dc6b21104611cb2b9a87c1dc6c6ecd537d",
    ("1", "json"): "501512c8d0acca2f37797d88ab7eea357432187d3555e093b5938fb299e30206",
    ("1", "csv"): "a6fababc6bee583e841e1ff4b25c4adfaf2819a9b4e6e74566e849be01f3b6b0",
    ("2", "text"): "c293b6e358308ba17c75315fc32259d9a81e53f9cb309f11307e8107715ec841",
    ("2", "json"): "d45cd42329c4994b5a03384536f68e7409e14305c9a8779915dca6c3c4941be0",
    ("2", "csv"): "a3dc58abbfc3f57ed4683a17b269b8ffe802f48bee5850c70d2a1c5a8580bc91",
}


@pytest.mark.parametrize("n, fmt", list(DET_VERIFY_SHA256), ids="-".join)
def test_det_verify_output_pinned(capsys, n, fmt):
    code, out = run(capsys, "det-verify", n, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DET_VERIFY_SHA256[n, fmt]


# sha256 of json stdout.  The gram, lemma2 and det-verify entries were
# recorded from the implementation that paired every two basis diagrams
# and rendered each entry as a polynomial; the enumerate entries, which
# pin the basis order past n = 5, from the one that sorted by a key read
# off a walk over the points.
BASIS_JSON_SHA256 = {
    ("enumerate", "6"):
        "2126f2b40c00a7ba42f0c11222248ae44a4cb626a4466e511e1d64bc5918a4fd",
    ("enumerate", "7"):
        "08f4fef5553053ba700722141ca014c7bbece3c5e01aef19dd974a40cef87b38",
    ("gram", "4"):
        "e3438aca1009d225e777243466edc20d8433200d47263ebb1dd29502e7ff38f8",
    ("gram", "5"):
        "c0794a6076d15f6d99f1d4eada800dd364c5ffb5de26b24b57d09fdcadf08e94",
    ("lemma2", "5"):
        "7ead0ce9d27627e7d1ba01ca008535a235ccc64101ff58bd6ef5b31a4a29886d",
    ("det-verify", "5", "--mode", "modular", "--trials", "1", "--seed", "0"):
        "73239eea922026c06c7bfa4552cdf4194635994de669df14aeaf01fe44a89e5f",
}


@pytest.mark.parametrize("argv", list(BASIS_JSON_SHA256), ids=" ".join)
def test_basis_json_output_pinned(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_JSON_SHA256[argv]


def test_nullity_skein_past_its_guard_exits_2(capsys):
    assert_one_line_error(capsys, "nullity-skein", "6", "2")


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
    monkeypatch.setattr("tlbgram.disk.telescoping_sides", lambda n: (1, 2))
    assert main(["telescoping", "1"]) == 1
    capsys.readouterr()


def assert_one_line_error(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_twelve_base_pseudoprime_is_rejected_as_a_prime(capsys):
    # passes Miller-Rabin to the bases 2..37, but not to 41
    assert_one_line_error(
        capsys, "det-verify", "2", "--mode", "modular",
        "--prime", "318665857834031151167461",
    )


def test_prime_past_the_proven_primality_range_exits_2(capsys):
    # a composite that passes Miller-Rabin to the first 13 prime bases
    assert_one_line_error(
        capsys, "det-verify", "2", "--mode", "modular",
        "--prime", "3317044064679887385961981",
    )


def test_symbolic_det_verify_refuses_a_prime(capsys):
    # symbolic mode never reduces mod a prime, so one given is an error
    assert_one_line_error(capsys, "det-verify", "2", "--prime", "7")


@pytest.mark.parametrize(
    "flags",
    [("--trials", "5"), ("--seed", "5"), ("--trials", "0", "--seed", "5")],
    ids=" ".join,
)
def test_symbolic_det_verify_refuses_trials_and_seed(capsys, flags):
    # symbolic mode draws no samples, so a trial count or seed is an error
    assert_one_line_error(capsys, "det-verify", "1", *flags)


def test_counts_below_domain_exits_2(capsys):
    assert_one_line_error(capsys, "counts", "0", "1")


def test_counts_negative_bound_exits_2(capsys):
    assert_one_line_error(capsys, "counts", "2", "-1")


def test_telescoping_below_domain_exits_2(capsys):
    assert_one_line_error(capsys, "telescoping", "-3")


def test_domain_checks_ignore_size_override(capsys, monkeypatch):
    monkeypatch.setenv("TLBGRAM_ALLOW_LARGE", "1")
    assert_one_line_error(capsys, "jones-wenzl", "0")


# Cheap sizes only: every command below stays well under a second for
# these ranges, including the out-of-range values that must exit 2.
CHEAP_COMMANDS = {
    "enumerate": 1,
    "gram": 1,
    "lemma2": 1,
    "det-verify": 1,
    "counts": 2,
    "bijection": 2,
    "telescoping": 1,
    "jones-wenzl": 1,
    "nullity-gram": 2,
    "nullity-skein": 2,
}


def test_cli_contract_holds_for_small_arguments(capsys):
    # In process, a traceback would be an exception escaping main().
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(
        max_examples=200, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(data=st.data())
    def contract(data):
        command = data.draw(st.sampled_from(sorted(CHEAP_COMMANDS)))
        arity = CHEAP_COMMANDS[command]
        numbers = data.draw(
            st.lists(st.integers(-2, 3), min_size=arity, max_size=arity)
        )
        fmt = data.draw(st.sampled_from(["json", "csv", "text"]))
        argv = [command, *map(str, numbers), "--format", fmt]
        if command == "det-verify":
            argv += ["--mode", "modular", "--trials", "2"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err, argv

    contract()


# Subcommand families, each run in one fresh process, and the modules
# none of its commands may load.  No command may load dataclasses.
IMPORT_FAMILIES = {
    "combinatorics": (
        [["enumerate", "2"], ["counts", "3", "1"], ["bijection", "2", "1"],
         ["telescoping", "3"]],
        {"tlbgram.gram", "tlbgram.linalg", "tlbgram.tl"},
    ),
    "jones-wenzl": (
        [["jones-wenzl", "3"]],
        {"tlbgram.gram", "tlbgram.linalg", "tlbgram.disk"},
    ),
    "gram": (
        [["gram", "2"], ["det-verify", "1"], ["lemma2", "2"],
         ["nullity-gram", "2", "1"]],
        {"tlbgram.tl", "tlbgram.disk"},
    ),
    "skein": ([["nullity-skein", "2", "1"]], set()),
}

# The modules present before the package is imported are those of a bare
# interpreter, with whatever site and .pth files loaded.
FOOTPRINT_SCRIPT = """
import sys
bare = set(sys.modules)
import json, os
from tlbgram.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv + ["--out", os.devnull]) != 0:
        raise SystemExit(f"{argv} failed")
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


@pytest.mark.parametrize("family", sorted(IMPORT_FAMILIES))
def test_subcommands_import_only_their_layers(family):
    commands, barred = IMPORT_FAMILIES[family]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(json.loads(done.stdout))
    assert "tlbgram.cli" in added
    assert not added & (barred | {"dataclasses"})
