"""Command-line interface.

One table, _COMMANDS, describes every subcommand: its handler, help,
int positionals, further options and default format, read by one loop
in build_parser.  main builds only the subparser its first argument
names, and every subparser when that names none, as for --help.  A
handler only computes its report, and no library report carries a
"version" header: main alone adds it, renders the report and sets the
exit status.

Every subcommand emits one deterministic report (json, csv, or plain
text; no timestamps), so identical invocations produce byte-identical
output.  A report is written row by row as it is rendered, after every
check that can refuse the input has run.  Exit status: 0 when the
report's "pass" holds or the command only computes, 1 when a
verification fails, 2 for usage errors and failed writes.

Each handler imports the layers it runs, so a cold process loads only
what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import comb

from . import __version__
from ._limits import guard, require


# How json.dumps writes each scalar type of a report.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: json.dumps,
    float: json.dumps,
    type(None): json.dumps,
}


class _Encoded(list):
    """A list of strings that are JSON texts already, written as they are."""

    __slots__ = ()


def _json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for the report shapes.

    Those are dicts with str keys, lists and tuples, _Encoded lists, and
    scalars of the exact types in _SCALARS, each written by the stdlib's
    own function.  Only the layout is written here, because json.dumps
    with an indent runs its pure-Python encoder.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()
        ]
    elif type(value) is _Encoded:
        items = value
    elif all(type(v) is str for v in value):
        items = list(map(encode_basestring_ascii, value))
    else:
        items = [_json(v, inner) for v in value]
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return brackets
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


class _Lines:
    """A csv.writer target: writerow hands back the line it formatted."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _json_pieces(report: dict) -> Iterator[str]:
    """_json(report) + "\n", one piece per item of each top-level list.

    Scalars and dicts between two lists join the piece after them, so a
    report without lists is a single piece.  A list may be any iterable,
    read once.
    """
    piece, sep = "{", "\n  "
    for key, value in report.items():
        piece += f"{sep}{encode_basestring_ascii(key)}: "
        sep = ",\n  "
        if type(value) in _SCALARS or isinstance(value, dict):
            piece += _json(value, "  ")
            continue
        empty = True
        for item in value:
            yield piece + ("[\n    " if empty else ",\n    ") + _json(item, "    ")
            piece, empty = "", False
        piece += "[]" if empty else "\n  ]"
    yield piece + ("\n}\n" if report else "}\n")


def _render(
    report: dict,
    fmt: str,
    table: Iterable | None = None,
    text: Iterable[str] | None = None,
) -> Iterable[str]:
    """Serialize a report as pieces of about one row each.

    ``table`` (rows of strings) drives the csv form and, unless ``text``
    (lines) overrides it, the plain form as well.  Both are read only for
    the formats that use them, so either may be a lazy iterable.
    """
    if fmt == "json":
        return _json_pieces(report)
    if fmt == "csv":
        import csv

        rows = table if table is not None else report.items()
        return map(csv.writer(_Lines, lineterminator="\n").writerow, rows)
    if text is not None:
        return text
    if table is not None:
        return ("\t".join(row) + "\n" for row in table)
    return (f"{key}: {value}\n" for key, value in report.items())


@lru_cache(maxsize=None)
def _chord_json(chord: tuple[int, int, int]) -> str:
    """The JSON text of a chord as it sits in enumerate's diagram list."""
    i, j, w = chord
    return _json({"i": i, "j": j, "w": w}, "      ")


# What each handler returns: (report, table, text), the arguments of _render.
_Report = tuple[dict, "Iterable | None", "Iterable[str] | None"]


def _cmd_enumerate(args) -> _Report:
    from .annular import enumerate_diagrams

    basis = enumerate_diagrams(args.n)
    report = {
        "n": args.n,
        "count": len(basis),
        # each distinct chord is JSON-encoded once, not once per diagram
        "diagrams": (_Encoded(map(_chord_json, d.chords)) for d in basis),
    }
    table = chain([["index", "cut_crossings", "diagram"]], (
        [str(i), str(d.cut_crossings()), d.to_text()]
        for i, d in enumerate(basis)
    ))
    return report, table, None


def _cmd_gram(args) -> _Report:
    from .gram import gram_matrix

    g = gram_matrix(args.n)

    def text(m, t):
        return g.value(m, t).to_text()

    # each of the (n+1)^2 texts is JSON-encoded once, not once per entry
    encoded = g.tabulate(lambda m, t: encode_basestring_ascii(text(m, t)))
    report = {
        "n": args.n,
        "size": g.size(),
        "basis": (d.to_text() for d in g.basis),
        "entries": map(_Encoded, encoded),
    }
    return report, g.tabulate(text), None


def _cmd_det_verify(args) -> _Report:
    from .determinant import verify_determinant

    report = verify_determinant(
        args.n,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        prime=args.prime,
    )
    return report, None, None


def _cmd_sign_check(args) -> _Report:
    from .gram import sign_conjugation_check

    return {"n": args.n, "pass": sign_conjugation_check(args.n)}, None, None


def _cmd_nullity(args) -> _Report:
    """Either nullity route, picked by the subcommand's name."""
    # the routes' own refusal, made before either is loaded
    n, k = args.n, args.k
    require(1 <= k <= n, f"need 1 <= k <= n, got k={k}, n={n}")
    from random import Random

    if args.command == "nullity-gram":
        from .gram import nullity_with_resample as resample
    else:
        from .tl import skein_nullity_with_resample as resample
    value, samples = resample(n, k, Random(args.seed))
    # each reduced pair (p, q) written as str(Fraction(p, q)) writes it
    samples = [f"{p}/{q}" if q != 1 else str(p) for p, q in samples]
    bound = comb(2 * n, n - k)
    report = {
        "n": n,
        "k": k,
        "seed": args.seed,
        "sample": samples[-1],
        "samples": samples,
        "rank": comb(2 * n, n) - value,
        "nullity": value,
        "bound": bound,
        "pass": value >= bound,
    }
    return report, None, None


def _cmd_jones_wenzl(args) -> _Report:
    from .polynomials import quotient_text
    from .tl import jones_wenzl

    f = jones_wenzl(args.k)
    # each distinct coefficient is reduced once: 201 of the 1,430 at k = 8
    texts = {c: quotient_text(c, f.den) for c in set(f.terms.values())}
    terms = sorted((m.to_paren(), texts[c]) for m, c in f.terms.items())
    report = {
        "k": args.k,
        "terms": (
            {"matching": paren, "coefficient": text} for paren, text in terms
        ),
    }
    return report, chain([("matching", "coefficient")], terms), None


def _cmd_counts(args) -> _Report:
    from .disk import count_atmost, count_tilde, tilde_count_formula

    enumerated = count_tilde(args.n, args.k)
    formula = tilde_count_formula(args.n, args.k)
    annular = count_atmost(args.n, args.k)
    ok = enumerated == formula == annular
    report = {
        "n": args.n,
        "k": args.k,
        "count_tilde": enumerated,
        "formula": formula,
        "annular_atmost": annular,
        "pass": ok,
    }
    table = [
        ["n", "k", "count_tilde", "formula", "match"],
        [str(args.n), str(args.k), str(enumerated), str(formula), str(ok)],
    ]
    return report, table, None


def _cmd_bijection(args) -> _Report:
    from .annular import enumerate_diagrams
    from .disk import diagram_to_subset, subset_to_diagram

    n, j = args.n, args.j
    require(1 <= j <= n, f"need 1 <= j <= n, got n={n}, j={j}")
    stratum = [d for d in enumerate_diagrams(n) if d.cut_crossings() >= j]
    expected = comb(2 * n, n - j)
    pairs = []
    roundtrips = True
    for d in stratum:
        marks = diagram_to_subset(d, j)
        if subset_to_diagram(n, marks, j) != d:
            roundtrips = False
        pairs.append({"subset": sorted(marks), "diagram": d.to_text()})
    report = {
        "n": n,
        "j": j,
        "stratum_size": len(stratum),
        "expected": expected,
        "roundtrips": roundtrips,
        "pass": roundtrips and len(stratum) == expected,
        "pairs": pairs,
    }
    table = chain([["subset", "diagram"]], (
        [" ".join(str(p) for p in item["subset"]), item["diagram"]]
        for item in pairs
    ))
    return report, table, None


def _cmd_telescoping(args) -> _Report:
    from .disk import telescoping_sides

    require(args.n >= 1, f"need n >= 1, got n={args.n}")
    guard(args.n <= 100, f"telescoping tested for n <= 100, got n={args.n}")
    results = []
    for n in range(1, args.n + 1):
        lhs, rhs = telescoping_sides(n)
        results.append({"n": n, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs})
    report = {
        "max_n": args.n,
        "pass": all(r["pass"] for r in results),
        "results": results,
    }
    table = chain([["n", "lhs", "rhs", "pass"]], (
        [str(r["n"]), str(r["lhs"]), str(r["rhs"]), str(r["pass"])]
        for r in results
    ))
    # one line per n in plain mode
    lines = (
        "n={n}: {lhs} == {rhs} {verdict}\n".format(
            verdict="PASS" if r["pass"] else "FAIL", **r
        )
        for r in results
    )
    return report, table, lines


_N = ("n", "number of chords")
_K = ("k", "factor index, 1..n")
_SEED = (("--seed", {"type": int, "default": 0}),)
_MODULAR_ONLY = {"type": int, "help": "modular mode only"}

# Each subcommand: name, handler, help, int positionals (name, help),
# further options (flag, add_argument keywords) and default format.
_COMMANDS = (
    ("enumerate", _cmd_enumerate, "list the annular diagram basis", (_N,), (), "text"),
    ("gram", _cmd_gram, "print the Gram matrix", (_N,), (), "text"),
    ("det-verify", _cmd_det_verify, "check the determinant factorization", (_N,), (
        ("--mode", {
            "choices": ("symbolic", "modular"),
            "default": "symbolic",
            "help": "symbolic proves det G_n equals the product at the nodes "
            "of a lower set mod primes (n <= 3), then prints the expansion; "
            "modular compares the two at random points mod a prime",
        }),
        ("--trials", _MODULAR_ONLY),
        ("--seed", _MODULAR_ONLY),
        ("--prime", _MODULAR_ONLY),
    ), "text"),
    ("lemma2", _cmd_sign_check,
     "check sign conjugation under negating the a variable", (_N,), (), "text"),
    ("nullity-gram", _cmd_nullity,
     "nullity of the specialized Gram matrix", (_N, _K), _SEED, "json"),
    ("nullity-skein", _cmd_nullity,
     "nullity of the projector-evaluation matrix", (_N, _K), _SEED, "json"),
    ("jones-wenzl", _cmd_jones_wenzl, "print a Jones-Wenzl projector",
     (("k", "number of strands"),), (), "text"),
    ("counts", _cmd_counts, "compare the three diagram counts",
     (_N, ("k", "crossing bound")), (), "csv"),
    ("bijection", _cmd_bijection, "round-trip the mark-set bijection",
     (_N, ("j", "stratum index, 1..n")), (), "json"),
    ("telescoping", _cmd_telescoping, "check the weighted count identity",
     (("n", "check every size up to n"),), (), "text"),
)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser, with only the subparser that argv[0] names, if any.

    A usage line lists every subcommand either way: with one built, the
    metavar spells them out.  A metavar would also rename "argument
    command" in the errors that a first argument naming none gets, so
    it is set only when one is named.
    """
    parser = argparse.ArgumentParser(
        prog="tlbgram",
        description="Exact Gram determinants of annular chord diagrams.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    named = [row for row in _COMMANDS if argv and row[0] == argv[0]]
    every = "{" + ",".join(row[0] for row in _COMMANDS) + "}"
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=every if named else None
    )
    for name, func, text, positionals, options, fmt in named or _COMMANDS:
        p = sub.add_parser(name, help=text)
        for dest, about in positionals:
            p.add_argument(dest, type=int, help=about)
        for flag, spec in options:
            p.add_argument(flag, **spec)
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default=fmt,
            help=f"output format (default {fmt})",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        report, table, text = args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"version": __version__, **report}
    pieces = _render(report, args.format, table, text)
    try:
        if args.out is not None:
            with open(args.out, "w", newline="") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.out is None:
            # What stdout could not take stays in its buffer, and the
            # flush at exit would fail on it again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
