"""Command-line interface.

Every subcommand emits one deterministic report (json, csv, or plain
text; no timestamps), so identical invocations produce byte-identical
output.  A report is written row by row as it is rendered, after every
check that can refuse the input has run.  Exit status: 0 when the
requested check passes or the command only computes, 1 when a
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


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    from .annular import enumerate_diagrams

    basis = enumerate_diagrams(args.n)
    report = {
        "version": __version__,
        "n": args.n,
        "count": len(basis),
        # each distinct chord is JSON-encoded once, not once per diagram
        "diagrams": (_Encoded(map(_chord_json, d.chords)) for d in basis),
    }
    table = chain([["index", "cut_crossings", "diagram"]], (
        [str(i), str(d.cut_crossings()), d.to_text()]
        for i, d in enumerate(basis)
    ))
    return 0, _render(report, args.format, table)


def _cmd_gram(args) -> tuple[int, Iterable[str]]:
    from .gram import gram_matrix

    g = gram_matrix(args.n)

    def text(m, t):
        return g.value(m, t).to_text()

    # each of the (n+1)^2 texts is JSON-encoded once, not once per entry
    encoded = g.tabulate(lambda m, t: encode_basestring_ascii(text(m, t)))
    report = {
        "version": __version__,
        "n": args.n,
        "size": g.size(),
        "basis": (d.to_text() for d in g.basis),
        "entries": map(_Encoded, encoded),
    }
    return 0, _render(report, args.format, table=g.tabulate(text))


def _cmd_det_verify(args) -> tuple[int, Iterable[str]]:
    from .determinant import verify_determinant

    report = verify_determinant(
        args.n,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        prime=args.prime,
    )
    return (0 if report["pass"] else 1), _render(report, args.format)


def _cmd_sign_check(args) -> tuple[int, Iterable[str]]:
    from .gram import sign_conjugation_check

    ok = sign_conjugation_check(args.n)
    report = {"version": __version__, "n": args.n, "pass": ok}
    return (0 if ok else 1), _render(report, args.format)


def _cmd_nullity(args) -> tuple[int, Iterable[str]]:
    """Either nullity route, picked by the subcommand's name."""
    from random import Random

    if args.command == "nullity-gram":
        from .gram import nullity_with_resample as resample
    else:
        from .tl import skein_nullity_with_resample as resample
    value, samples = resample(args.n, args.k, Random(args.seed))
    bound = comb(2 * args.n, args.n - args.k)
    report = {
        "version": __version__,
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "sample": str(samples[-1]),
        "samples": [str(s) for s in samples],
        "rank": comb(2 * args.n, args.n) - value,
        "nullity": value,
        "bound": bound,
        "pass": value >= bound,
    }
    return (0 if report["pass"] else 1), _render(report, args.format)


def _cmd_jones_wenzl(args) -> tuple[int, Iterable[str]]:
    from .polynomials import quotient_text
    from .tl import jones_wenzl

    f = jones_wenzl(args.k)
    terms = sorted(
        (m.to_paren(), quotient_text(c, f.den)) for m, c in f.terms.items()
    )
    report = {
        "version": __version__,
        "k": args.k,
        "terms": (
            {"matching": paren, "coefficient": text} for paren, text in terms
        ),
    }
    table = chain([("matching", "coefficient")], terms)
    return 0, _render(report, args.format, table)


def _cmd_counts(args) -> tuple[int, Iterable[str]]:
    from .disk import count_atmost, count_tilde, tilde_count_formula

    enumerated = count_tilde(args.n, args.k)
    formula = tilde_count_formula(args.n, args.k)
    annular = count_atmost(args.n, args.k)
    ok = enumerated == formula == annular
    report = {
        "version": __version__,
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
    return (0 if ok else 1), _render(report, args.format, table)


def _cmd_bijection(args) -> tuple[int, Iterable[str]]:
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
    ok = roundtrips and len(stratum) == expected
    report = {
        "version": __version__,
        "n": n,
        "j": j,
        "stratum_size": len(stratum),
        "expected": expected,
        "roundtrips": roundtrips,
        "pass": ok,
        "pairs": pairs,
    }
    table = chain([["subset", "diagram"]], (
        [" ".join(str(p) for p in item["subset"]), item["diagram"]]
        for item in pairs
    ))
    return (0 if ok else 1), _render(report, args.format, table)


def _cmd_telescoping(args) -> tuple[int, Iterable[str]]:
    from .disk import telescoping_sides

    require(args.n >= 1, f"need n >= 1, got n={args.n}")
    guard(args.n <= 100, f"telescoping tested for n <= 100, got n={args.n}")
    results = []
    for n in range(1, args.n + 1):
        lhs, rhs = telescoping_sides(n)
        results.append({"n": n, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs})
    ok = all(r["pass"] for r in results)
    report = {
        "version": __version__,
        "max_n": args.n,
        "pass": ok,
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
    return (0 if ok else 1), _render(report, args.format, table, text=lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlbgram",
        description="Exact Gram determinants of annular chord diagrams.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flags(p, default="text"):
        p.add_argument(
            "--format",
            choices=("json", "csv", "text"),
            default=default,
            help=f"output format (default {default})",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("enumerate", help="list the annular diagram basis")
    p.add_argument("n", type=int, help="number of chords")
    output_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("gram", help="print the Gram matrix")
    p.add_argument("n", type=int, help="number of chords")
    output_flags(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("det-verify", help="check the determinant factorization")
    p.add_argument("n", type=int, help="number of chords")
    p.add_argument(
        "--mode",
        choices=("symbolic", "modular"),
        default="symbolic",
        help="exact expansion or random evaluation mod a prime",
    )
    p.add_argument("--trials", type=int, default=None, help="modular mode only")
    p.add_argument("--seed", type=int, default=None, help="modular mode only")
    p.add_argument("--prime", type=int, default=None, help="modular mode only")
    output_flags(p)
    p.set_defaults(func=_cmd_det_verify)

    p = sub.add_parser(
        "lemma2", help="check sign conjugation under negating the a variable"
    )
    p.add_argument("n", type=int, help="number of chords")
    output_flags(p)
    p.set_defaults(func=_cmd_sign_check)

    for name, text in (
        ("nullity-gram", "nullity of the specialized Gram matrix"),
        ("nullity-skein", "nullity of the projector-evaluation matrix"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("n", type=int, help="number of chords")
        p.add_argument("k", type=int, help="factor index, 1..n")
        p.add_argument("--seed", type=int, default=0)
        output_flags(p, default="json")
        p.set_defaults(func=_cmd_nullity)

    p = sub.add_parser("jones-wenzl", help="print a Jones-Wenzl projector")
    p.add_argument("k", type=int, help="number of strands")
    output_flags(p)
    p.set_defaults(func=_cmd_jones_wenzl)

    p = sub.add_parser("counts", help="compare the three diagram counts")
    p.add_argument("n", type=int, help="number of chords")
    p.add_argument("k", type=int, help="crossing bound")
    output_flags(p, default="csv")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("bijection", help="round-trip the mark-set bijection")
    p.add_argument("n", type=int, help="number of chords")
    p.add_argument("j", type=int, help="stratum index, 1..n")
    output_flags(p, default="json")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("telescoping", help="check the weighted count identity")
    p.add_argument("n", type=int, help="check every size up to n")
    output_flags(p)
    p.set_defaults(func=_cmd_telescoping)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, pieces = args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out:
            with open(args.out, "w", newline="") as handle:
                handle.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not args.out:
            # What stdout could not take stays in its buffer, and the
            # flush at exit would fail on it again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
