"""Command-line front end: shapes, determinism, exit codes."""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

from tlbgram import __version__
from tlbgram.annular import AnnularDiagram
from tlbgram._commands import _chord_json
from tlbgram._render import _Encoded, _json, _render
from tlbgram.cli import (
    _COMMANDS,
    _read,
    _shared,
    build_parser,
    main,
)


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


def test_json_form():
    # enumerate writes each diagram as the cached texts of its chords
    d = AnnularDiagram(2, ((1, 2, 0), (3, 4, 1)))
    report = {"diagrams": [_Encoded(map(_chord_json, d.chords))]}
    expected = {"diagrams": [[{"i": 1, "j": 2, "w": 0}, {"i": 3, "j": 4, "w": 1}]]}
    assert _json(report) == json.dumps(expected, indent=2)


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


def test_nullity_gram_draws_again_at_exceptional_points(capsys):
    # seed 656217 first draws -2 and 2, where n = 3, k = 2 has nullity 15;
    # both are drawn again, and the generic C(6, 1) = 6 is reported
    code, out = run(capsys, "nullity-gram", "3", "2", "--seed", "656217", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["nullity"] == data["bound"] == 6
    assert not {"0", "1", "-1", "2", "-2"} & set(data["samples"])


SAMPLE_PAIRS = [(-3, 7), (5, 1), (-4, 1), (-1000, 999), (7, 2), (1, 50)]


@pytest.mark.parametrize("command, resample", [
    ("nullity-gram", "tlbgram.gram.nullity_with_resample"),
    ("nullity-skein", "tlbgram.tl.skein_nullity_with_resample"),
])
def test_nullity_samples_are_written_as_fractions(
    capsys, monkeypatch, command, resample
):
    monkeypatch.setattr(resample, lambda n, k, rng: (4, SAMPLE_PAIRS))
    code, out = run(capsys, command, "2", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    texts = [str(Fraction(p, q)) for p, q in SAMPLE_PAIRS]
    assert texts[:3] == ["-3/7", "5", "-4"]
    assert data["samples"] == texts
    assert data["sample"] == texts[-1]


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
# implementation that the fraction-free projectors replaced.  The k = 8
# json entry was recorded from the fraction-free f' e f' recurrence that
# the single-strand recurrence replaced.
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
        8: "6f275bec90a6ffa551af8167d71f8be1b465af16ea3de842ffe3c80aab75cabe",
    },
}


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_jones_wenzl_output_pinned(capsys, fmt, k):
    flags = () if fmt == "text" else ("--format", fmt)
    code, out = run(capsys, "jones-wenzl", str(k), *flags)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == JONES_WENZL_SHA256[fmt][k]


@pytest.mark.parametrize("k", [5, 6])
def test_jones_wenzl_reduces_each_distinct_coefficient_once(capsys, monkeypatch, k):
    from tlbgram import polynomials
    from tlbgram.tl import jones_wenzl

    reduced = []
    quotient_text = polynomials.quotient_text

    def counted(num, den):
        reduced.append(num)
        return quotient_text(num, den)

    monkeypatch.setattr(polynomials, "quotient_text", counted)
    code, _ = run(capsys, "jones-wenzl", str(k))
    assert code == 0
    coefficients = list(jones_wenzl(k).terms.values())
    assert len(reduced) == len(set(coefficients)) < len(coefficients)


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


# sha256 of `gram 5` csv and text stdout, recorded from the implementation
# whose GramMatrix.tabulate yielded one list per row of the (n+1)^2 value
# table; the json form is pinned in BASIS_JSON_SHA256.
GRAM_5_SHA256 = {
    "csv": "9fe268dcab879b2685f07f5786ae479ea4390c417e472e00522f9ee78b83800c",
    "text": "fe265dc1d663356de9f6bdb89187a6fce59ee3de2c5e6b0bd14460e58a29eb73",
}


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_gram_5_output_pinned(capsys, fmt):
    code, out = run(capsys, "gram", "5", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRAM_5_SHA256[fmt]


# sha256 of json stdout.  The gram, lemma2 and det-verify 5 entries were
# recorded from the implementation that paired every two basis diagrams
# and rendered each entry as a polynomial; the enumerate entries, which
# pin the basis order past n = 5, from the one that sorted by a key read
# off a walk over the points; det-verify 3, whose prime is the largest
# below 2^53 that is 1 mod 6, from the one that multiplied the character
# blocks of Z/6.
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
    ("det-verify", "3", "--mode", "modular", "--trials", "3", "--seed", "0"):
        "f1390a85d3a9e325955f271be297036be88c3fe40edef8d3a1ed8b8cdb0f6e13",
}

# sha256 of the same modular det-verify 3 report in text and csv, recorded
# from the implementation whose verify_determinant wrote one report per mode.
MODULAR_3_SHA256 = {
    "text": "85226e2b9db83648e7c026844ba13c3c92b40ebfe7078d1e68d2094f5307f194",
    "csv": "a012db2b1c29fd52290b02183ac0768958ae0ae216f28b3cff70ce5c86bc81b8",
}


@pytest.mark.parametrize("argv", list(BASIS_JSON_SHA256), ids=" ".join)
def test_basis_json_output_pinned(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BASIS_JSON_SHA256[argv]


@pytest.mark.parametrize("fmt", list(MODULAR_3_SHA256))
def test_modular_det_verify_3_output_pinned(capsys, fmt):
    argv = ("det-verify", "3", "--mode", "modular", "--trials", "3", "--seed", "0")
    code, out = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODULAR_3_SHA256[fmt]


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks():
    """The fenced blocks of README.md's Command line section."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```\n")[1::2]


# sha256 of the stdout of each example in README.md's command block,
# recorded from the implementation whose verify_determinant wrote one
# report per mode.
README_SHA256 = {
    ("enumerate", "3"):
        "a5275b9891cf15872001459826635961fb0a261b71bf2e489657193397c67211",
    ("gram", "2", "--format", "csv"):
        "af85fbe5cf9d239983f15c0ccc1257056b58cf3f3bf5b81dea088913bbb62d94",
    ("det-verify", "3"):
        "061fbef4a4e9a72d8716fbc48fe461d167433c4a07a7c9ecd9e59aee833af18a",
    ("det-verify", "4", "--mode", "modular", "--trials", "32", "--seed", "0"):
        "b7d4ea618269506bf1e5c95cd97a0c869b8b7bf5520f92280d3d93812b9261cf",
    ("lemma2", "4"):
        "73e3302dfba63621114e2ab5450addd68071f1957aa4f820593b0d28a7245e79",
    ("nullity-gram", "3", "2", "--seed", "7"):
        "96513afeb2b7641c0cd88d1e53c46ed6d2c105959eb21af68e3bfb902e0b20ee",
    ("nullity-skein", "3", "2", "--seed", "7"):
        "7d40bcba1fdb05f8079a1eb36ada2d3c3be66a86cb3d8207c4f21138348f5a50",
    ("jones-wenzl", "3"):
        "66e8b773b7ef7f58e1251436545d698235c08aa647bbe28628da59ed79d03dea",
    ("counts", "2", "1", "--format", "csv"):
        "0e4f268bca46f6dc5e2438bb69551ab69dd0c9d827c5a7d83419e1602ff05c24",
    ("bijection", "2", "1"):
        "3debc39984f70848569e8e37f72c24a43efcbf3f8eba0fc64ed67868d838925f",
    ("telescoping", "50"):
        "5fc123e398d09c72a432c601a18e81f478a80d05eaa240a05f758b76523a1b50",
}


def test_readme_examples_are_the_pinned_ones():
    examples = [
        tuple(line.split("#", 1)[0].split()[1:])
        for line in readme_blocks()[0].splitlines()
    ]
    assert examples == list(README_SHA256)


@pytest.mark.parametrize("argv", list(README_SHA256), ids=" ".join)
def test_readme_example_output_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_SHA256[argv]


def test_readme_transcript_is_the_real_output(capsys):
    command, printed = readme_blocks()[1].split("\n", 1)
    assert command == "$ tlbgram det-verify 1"
    code, out = run(capsys, *command.split()[2:])
    assert code == 0
    assert out == printed


# One json command per report shape the CLI emits.
JSON_COMMANDS = [
    ["enumerate", "3"],
    ["gram", "3"],
    ["det-verify", "2"],
    ["det-verify", "3", "--mode", "modular", "--trials", "3"],
    ["lemma2", "3"],
    ["nullity-gram", "3", "2"],
    ["nullity-skein", "3", "2"],
    ["jones-wenzl", "3"],
    ["counts", "3", "1"],
    ["bijection", "3", "2"],
    ["telescoping", "3"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_json_output_is_the_stdlib_rendering(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_renderer_matches_the_stdlib_on_sampled_reports():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    text = st.text(max_size=8)
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | text
    values = st.deferred(
        lambda: scalars
        | st.lists(values, max_size=3)
        | st.tuples(values, values)
        | st.lists(text, max_size=4)
        | st.dictionaries(text, values, max_size=3)
    )

    @hypothesis.settings(
        max_examples=150, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(report=st.dictionaries(text, values, max_size=4))
    @hypothesis.example(
        report={"floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300]}
    )
    def same_bytes(report):
        rendered = "".join(_render(report, "json"))
        assert rendered == json.dumps(report, indent=2) + "\n"

    same_bytes()


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
    for argv in (
        ("counts", "2", "1"),
        ("gram", "4", "--format", "json"),
        ("gram", "4", "--format", "csv"),
        ("gram", "4", "--format", "text"),
        ("enumerate", "6", "--format", "json"),
    ):
        _, direct = run(capsys, *argv)
        target = tmp_path / "report"
        code = main([*argv, "--out", str(target)])
        capsys.readouterr()
        assert code == 0, argv
        assert target.read_bytes() == direct.encode(), argv


# One piece per row: 252 rows of entries, and in json 252 basis items and
# the closing brace.  A row of gram 5 is about 5 KB.
@pytest.mark.parametrize("fmt, pieces", [("json", 505), ("csv", 252), ("text", 252)])
def test_gram_5_is_rendered_one_row_at_a_time(fmt, pieces):
    args = build_parser().parse_args(["gram", "5", "--format", fmt])
    report, *shapes = args.func(args)
    sizes = [len(piece) for piece in _render(report, fmt, *shapes)]
    assert len(sizes) == pieces
    assert max(sizes) <= 8 * 1024


# The modules gram 5 runs are imported before tracing starts, so the peak
# is that of the run: the n = 5 pairing table and the pieces being written.
TRACED_GRAM_SCRIPT = """
import os, tracemalloc
import tlbgram.gram, tlbgram.polynomials
from tlbgram.cli import main
tracemalloc.start()
code = main(["gram", "5", "--format", "json", "--out", os.devnull])
print(code, tracemalloc.get_traced_memory()[1])
"""


def test_gram_5_json_peaks_below_3_mb():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_GRAM_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, peak = map(int, done.stdout.split())
    assert code == 0
    assert peak < 3 * 2**20


def uncached_env(tmp_path) -> dict:
    """A child's environment that compiles every module it imports.

    An empty cache prefix hides each cached .pyc, and no new one is
    written, as in a cold job without a bytecode cache.
    """
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=str(tmp_path),
                PYTHONDONTWRITEBYTECODE="1")


# json is imported before tracing starts, since the empty cache prefix
# would have it compiled as well, so the peak is that of the package's
# own modules, compiled one after the other.
TRACED_IMPORT_SCRIPT = """
import json, tracemalloc
tracemalloc.start()
import tlbgram.cli
print(tracemalloc.get_traced_memory()[1])
"""


def test_importing_the_cli_peaks_below_800_kib(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", TRACED_IMPORT_SCRIPT],
        env=uncached_env(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 800 * 1024


# python -m runs cli.py as __main__; were it imported as well, it would be
# compiled twice, and its handlers would meet a second set of its objects.
def test_python_m_compiles_the_cli_once_and_writes_mains_bytes(tmp_path, capsys):
    argv = ["enumerate", "3", "--format", "json"]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tlbgram.cli", *argv],
        env=uncached_env(tmp_path), capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.decode().splitlines()]
    assert "tlbgram._commands" in imported
    assert "tlbgram.cli" not in imported
    code, out = run(capsys, *argv)
    assert code == 0
    assert done.stdout == out.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_failed_write_to_stdout_exits_2(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "tlbgram.cli", "counts", "2", "1"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=20,
        )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


def test_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    assert_one_line_error(capsys, "gram", "2", "--out", str(tmp_path / "no" / "x"))


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    assert_one_line_error(capsys, "gram", "2", "--out", str(tmp_path))


def test_out_naming_the_empty_path_exits_2(capsys):
    # an empty --out is a target that cannot be opened, not stdout
    assert_one_line_error(capsys, "gram", "1", "--out", "")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


# Each parser action as (option strings, dest, type, default, choices,
# help), recorded from the hand-written parser that the command table
# replaced, apart from the det-verify --mode help, reworded since.  The
# subcommand action's choices map each name to its help.  Specs, not
# --help text, since argparse lays help out differently across versions.
HELP = (("-h", "--help"), "help", None, argparse.SUPPRESS, None,
        "show this help message and exit")
OUT = (("--out",), "out", None, None, None,
       "write output to this file instead of stdout")
N = ((), "n", int, None, None, "number of chords")
MODULAR_ONLY = (int, None, None, "modular mode only")


def format_flag(default):
    return (("--format",), "format", None, default, ("json", "csv", "text"),
            f"output format (default {default})")


NULLITY = [
    HELP, N, ((), "k", int, None, None, "factor index, 1..n"),
    (("--seed",), "seed", int, 0, None, None), format_flag("json"), OUT,
]


PARSER_SPECS = {
    None: [
        HELP,
        (("--version",), "version", None, argparse.SUPPRESS, None,
         "show program's version number and exit"),
        ((), "command", None, None, {
            "enumerate": "list the annular diagram basis",
            "gram": "print the Gram matrix",
            "det-verify": "check the determinant factorization",
            "lemma2": "check sign conjugation under negating the a variable",
            "nullity-gram": "nullity of the specialized Gram matrix",
            "nullity-skein": "nullity of the projector-evaluation matrix",
            "jones-wenzl": "print a Jones-Wenzl projector",
            "counts": "compare the three diagram counts",
            "bijection": "round-trip the mark-set bijection",
            "telescoping": "check the weighted count identity",
        }, None),
    ],
    "enumerate": [HELP, N, format_flag("text"), OUT],
    "gram": [HELP, N, format_flag("text"), OUT],
    "det-verify": [
        HELP, N,
        (("--mode",), "mode", None, "symbolic", ("symbolic", "modular"),
         "symbolic proves det G_n equals the product at the nodes of a lower "
         "set mod primes (n <= 3), then prints the expansion; modular "
         "compares the two at random points mod a prime"),
        (("--trials",), "trials", *MODULAR_ONLY),
        (("--seed",), "seed", *MODULAR_ONLY),
        (("--prime",), "prime", *MODULAR_ONLY),
        format_flag("text"), OUT,
    ],
    "lemma2": [HELP, N, format_flag("text"), OUT],
    "nullity-gram": NULLITY,
    "nullity-skein": NULLITY,
    "jones-wenzl": [
        HELP, ((), "k", int, None, None, "number of strands"),
        format_flag("text"), OUT,
    ],
    "counts": [
        HELP, N, ((), "k", int, None, None, "crossing bound"),
        format_flag("csv"), OUT,
    ],
    "bijection": [
        HELP, N, ((), "j", int, None, None, "stratum index, 1..n"),
        format_flag("json"), OUT,
    ],
    "telescoping": [
        HELP, ((), "n", int, None, None, "check every size up to n"),
        format_flag("text"), OUT,
    ],
}


def action_specs(parser):
    specs = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = {a.dest: a.help for a in action._choices_actions}
        specs.append((
            tuple(action.option_strings), action.dest, action.type,
            action.default, choices, action.help,
        ))
    return specs


def test_parser_matches_its_recorded_specs():
    parser = build_parser()
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsers = {None: parser, **commands.choices}
    assert list(parsers) == list(PARSER_SPECS)
    for name, expected in PARSER_SPECS.items():
        assert action_specs(parsers[name]) == expected, name


def test_a_named_command_builds_only_its_subparser():
    parser = build_parser(["gram", "3"])
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert list(commands.choices) == ["gram"]
    assert action_specs(commands.choices["gram"]) == PARSER_SPECS["gram"]


# Arguments whose handling must not depend on how many subparsers main
# builds: help, version, usage errors, refusals and the README examples.
PARSE_CASES = [
    [], ["--help"], ["--version"], ["bogus", "3"], ["gram", "3", "extra"],
    ["--format", "json", "gram", "3"], ["gram"], ["gram", "abc"],
    ["gram", "3", "--format", "xml"], ["det-verify", "3", "--mode", "bad"],
    ["nullity-gram", "3", "4"], ["nullity-skein", "3", "4"],
    *([name, "--help"] for name in PARSER_SPECS if name),
    *map(list, README_SHA256),
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda a: " ".join(a) or "-")
def test_one_subparser_parses_as_all_of_them(capsys, monkeypatch, argv):
    alone = outcome(capsys, argv)
    every = build_parser
    monkeypatch.setattr("tlbgram.cli.build_parser", lambda argv=None: every())
    assert outcome(capsys, argv) == alone


HERE = os.path.dirname(__file__)


def workload_jobs():
    """One round and the warm-up jobs of each workload in perfbench."""
    path = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        yield from workloads.job_list(name, 0, 1)
        yield from workloads.WARMUP[name]


def ci_command_lines():
    """Each tlbgram command line of the CI workflow, split as the shell would."""
    path = os.path.join(HERE, os.pardir, ".github", "workflows", "tests.yml")
    with open(path, encoding="utf-8") as handle:
        lines = re.findall(r"\btlbgram ([^|;>\n]*)", handle.read())
    return [shlex.split(line) for line in lines]


def every_option_spelling():
    """Each option of each row alone, repeated and all together, on
    positive and negative sizes, with negative ints and paths as values."""
    for name, _, _, positionals, options, fmt in _COMMANDS:
        count = len(positionals)
        for sizes in (["3"] * count, [str(-i) for i in range(1, count + 1)]):
            base = [name, *sizes]
            every = []
            for flag, spec in options + _shared(fmt):
                values = spec.get("choices") or (
                    ("5", "-7") if "type" in spec else ("out.txt", "-5")
                )
                yield from ([*base, flag, value] for value in values)
                yield [*base, flag, values[0], flag, values[-1]]
                every += [flag, values[-1]]
            yield base
            yield base + every


# The CI lines that only argparse reads: help, the version, a shell
# variable for the command, and spellings that the CI compares with
# their canonical form.
CI_ARGPARSE_ONLY = {
    "--version", "--help", "$cmd --help", "$cmd 3 4", "gram 2 --format=json",
    "gram 2 --form json", "nullity-gram --seed 3 3 2",
}


def test_the_reader_builds_the_namespace_that_argparse_builds():
    corpus = [
        *(job.argv() for job in workload_jobs()),
        *map(list, README_SHA256),
        *ci_command_lines(),
        *every_option_spelling(),
    ]
    declined = set()
    for argv in corpus:
        read = _read(argv)
        if read is None:
            declined.add(" ".join(argv))
        else:
            assert vars(read) == vars(build_parser(argv).parse_args(argv)), argv
    assert declined == CI_ARGPARSE_ONLY


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["gram", "--help"], ["gram", "3", "-h"],
    ["bogus", "3"], ["gram", "3", "--form", "json"], ["gram", "3", "--seed", "1"],
    ["gram", "3", "--format=json"], ["nullity-gram", "--seed", "3", "3", "2"],
    ["gram"], ["counts", "2"], ["gram", "3", "4"], ["gram", "3", "--out"],
    ["gram", "abc"], ["gram", "3.0"], ["gram", "--3"], ["gram", "-"],
    ["det-verify", "3", "--trials", "x"], ["gram", "3", "--format", "xml"],
    ["det-verify", "3", "--mode", "bad"], ["gram", "3", "--out", "-x"],
    ["gram", "3", "--", "x"], ["gram", "3", "xxformat", "json", "--format", "csv"],
], ids=lambda a: " ".join(a) or "-")
def test_the_reader_declines_every_other_spelling(argv):
    assert _read(argv) is None


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["gram", "abc"], 2)])
def test_help_and_usage_errors_go_through_argparse(capsys, monkeypatch, argv, code):
    built = []

    def spy(argv=None, build=build_parser):
        built.append(argv)
        return build(argv)

    monkeypatch.setattr("tlbgram.cli.build_parser", spy)
    assert main(["gram", "1"]) == 0
    assert built == []
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert built == [argv]
    capsys.readouterr()


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


# Each check a command runs, patched to fail: (argv, target, replacement).
FAILED_CHECKS = {
    "telescoping": (
        ["telescoping", "1"], "tlbgram.disk.telescoping_sides", lambda n: (1, 2),
    ),
    "lemma2": (
        ["lemma2", "2"], "tlbgram.gram.sign_conjugation_check", lambda n: False,
    ),
    "counts": (
        ["counts", "2", "1"], "tlbgram.disk.tilde_count_formula", lambda n, k: -1,
    ),
    "bijection": (
        ["bijection", "2", "1"], "tlbgram.disk.subset_to_diagram",
        lambda n, marks, j: None,
    ),
    "det-verify-symbolic": (
        ["det-verify", "1"], "tlbgram.determinant._product_is_determinant",
        lambda n: False,
    ),
    "det-verify-modular": (
        ["det-verify", "1", "--mode", "modular", "--trials", "2"],
        "tlbgram.determinant._agrees_at", lambda g, a, d, p: False,
    ),
    "nullity-gram": (
        ["nullity-gram", "2", "1"], "tlbgram.gram.specialized_nullity",
        lambda n, k, d: 0,
    ),
    "nullity-skein": (
        ["nullity-skein", "2", "1"], "tlbgram.tl.skein_nullity",
        lambda n, k, a: 0,
    ),
}


@pytest.mark.parametrize("command", list(FAILED_CHECKS))
def test_verification_failure_exits_1(capsys, monkeypatch, command):
    argv, target, replacement = FAILED_CHECKS[command]
    monkeypatch.setattr(target, replacement)
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 1
    assert '"pass": false' in out


@pytest.mark.parametrize("argv", [
    ["enumerate", "1"], ["gram", "1"], ["jones-wenzl", "1"],
], ids=" ".join)
def test_commands_without_a_check_exit_0(capsys, argv):
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert "pass" not in json.loads(out)


def assert_one_line_error(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


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


def test_prime_not_1_mod_2n_exits_2(capsys):
    # the largest prime below 2^53 is 5 mod 6, so Z/6 has no characters mod it
    err = assert_one_line_error(
        capsys, "det-verify", "3", "--mode", "modular",
        "--prime", "9007199254740881",
    )
    assert "1 (mod 6)" in err


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


@pytest.mark.parametrize("argv", [
    ("bijection", "1", "2"),
    ("det-verify", "-2", "--mode", "modular"),
])
def test_out_of_range_sizes_are_refused_by_the_package(capsys, argv):
    # checked before math.comb, whose own message would name its k or n
    assert assert_one_line_error(capsys, *argv).startswith("error: need ")


# One size of 10**6 in every subcommand, in a fresh process with the
# guards on.  Each must refuse it at once, before any work that grows
# with the size.
HUGE = str(10**6)


@pytest.mark.parametrize("argv", [
    ("enumerate", HUGE),
    ("gram", HUGE),
    ("det-verify", HUGE),
    ("det-verify", HUGE, "--mode", "modular"),
    ("det-verify", "1", "--mode", "modular", "--trials", HUGE),
    ("lemma2", HUGE),
    ("nullity-gram", HUGE, "1"),
    ("nullity-skein", HUGE, "1"),
    ("jones-wenzl", HUGE),
    ("counts", HUGE, "1"),
    ("bijection", HUGE, "1"),
    ("telescoping", HUGE),
], ids=" ".join)
def test_huge_sizes_exit_2_at_once(argv):
    env = {k: v for k, v in os.environ.items() if k != "TLBGRAM_ALLOW_LARGE"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-m", "tlbgram.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


def test_telescoping_past_its_guard_runs_with_the_override(capsys, monkeypatch):
    assert_one_line_error(capsys, "telescoping", "101")
    monkeypatch.setenv("TLBGRAM_ALLOW_LARGE", "1")
    code, out = run(capsys, "telescoping", "101")
    assert code == 0
    assert out.count("PASS") == 101


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
# none of its commands may load.  No command may load dataclasses, nor
# argparse with its gettext and locale: a canonical command line is read
# from the command table, negative sizes too, which the package refuses
# with exit 2.  None loads fractions with its decimal and numbers: the
# nullity routes carry each sample as an int pair.  random loads only
# where a job samples: the two nullity routes and modular det-verify.
_FRACTIONS = {"fractions", "decimal", "numbers"}
_EVERY_FAMILY = {"dataclasses", "argparse", "gettext", "locale"}
REFUSED = [["counts", "2", "-1"], ["telescoping", "-3"]]
IMPORT_FAMILIES = {
    "combinatorics": (
        [["enumerate", "2"], ["counts", "3", "1"], ["bijection", "2", "1"],
         ["telescoping", "3"], *REFUSED],
        {"tlbgram.gram", "tlbgram.linalg", "tlbgram.tl", "tlbgram.polynomials",
         "random", *_FRACTIONS},
    ),
    "jones-wenzl": (
        [["jones-wenzl", "3"]],
        {"tlbgram.gram", "tlbgram.linalg", "tlbgram.disk", "random", *_FRACTIONS},
    ),
    "gram": (
        [["gram", "2"], ["det-verify", "1"]],
        {"tlbgram.tl", "tlbgram.disk", "random", *_FRACTIONS},
    ),
    # The numeric Gram-stack jobs load no polynomial type and no csv; the
    # parity check ranks nothing, and neither it nor a nullity takes a
    # determinant.
    "det-verify-modular": (
        [["det-verify", "2", "--mode", "modular", "--trials", "1"]],
        {"tlbgram.tl", "tlbgram.disk", "tlbgram.polynomials", "csv", *_FRACTIONS},
    ),
    "nullity-gram": (
        [["nullity-gram", "2", "1"]],
        {"tlbgram.tl", "tlbgram.disk", "tlbgram.polynomials", "csv",
         "tlbgram.determinant", *_FRACTIONS},
    ),
    "lemma2": (
        [["lemma2", "2"]],
        {"tlbgram.tl", "tlbgram.disk", "tlbgram.polynomials", "csv",
         "tlbgram.determinant", "tlbgram.linalg", "random", *_FRACTIONS},
    ),
    "skein": ([["nullity-skein", "2", "1"]], _FRACTIONS),
}

# The modules present before the package is imported are those of a bare
# interpreter, with whatever site and .pth files loaded.
FOOTPRINT_SCRIPT = """
import sys
bare = set(sys.modules)
import json, os
from tlbgram.cli import main
codes = [main(argv + ["--out", os.devnull]) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(set(sys.modules) - bare)]))
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
    codes, added = json.loads(done.stdout)
    assert codes == [2 if argv in REFUSED else 0 for argv in commands], done.stderr
    assert "tlbgram.cli" in added
    assert not set(added) & (barred | _EVERY_FAMILY)


# A factor index past n is refused with the routes' own message before
# random, fractions or either route's layer is loaded.
REFUSAL_SCRIPT = """
import sys
bare = set(sys.modules)
import json
from tlbgram.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""


@pytest.mark.parametrize("command", ["nullity-gram", "nullity-skein"])
def test_nullity_refuses_k_past_n_before_loading_a_layer(command):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", REFUSAL_SCRIPT, command, "3", "4"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.stderr == "error: need 1 <= k <= n, got k=4, n=3\n"
    # stdout holds the script's one line, so main wrote nothing
    code, added = json.loads(done.stdout)
    assert code == 2
    assert not set(added) & {"tlbgram.gram", "tlbgram.tl", "fractions", "random"}
