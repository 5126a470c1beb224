"""Command-line interface.

Every subcommand emits one deterministic report (json, csv, or plain
text; no timestamps), so identical invocations produce byte-identical
output.  Exit status: 0 when the requested check passes or the command
only computes, 1 when a verification fails, 2 for usage errors.

Each handler imports the layers it runs, so a cold process loads only
what its subcommand needs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import comb

from . import __version__
from ._limits import require


def _render(
    report: dict,
    fmt: str,
    table: list | None = None,
    text: str | None = None,
) -> str:
    """Serialize a report.

    ``table`` (rows of strings) drives the csv form and, unless ``text``
    overrides it, the plain form as well.
    """
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if table is not None:
            writer.writerows(table)
        else:
            for key, value in report.items():
                writer.writerow([key, value])
        return buf.getvalue()
    if text is not None:
        return text
    if table is not None:
        return "\n".join("\t".join(row) for row in table) + "\n"
    return "\n".join(f"{key}: {value}" for key, value in report.items()) + "\n"


def _cmd_enumerate(args) -> tuple[int, str]:
    from .annular import enumerate_diagrams

    basis = enumerate_diagrams(args.n)
    report = {
        "version": __version__,
        "n": args.n,
        "count": len(basis),
        "diagrams": [d.to_json_obj() for d in basis],
    }
    table = [["index", "cut_crossings", "diagram"]] + [
        [str(i), str(d.cut_crossings()), d.to_text()]
        for i, d in enumerate(basis)
    ]
    return 0, _render(report, args.format, table)


def _cmd_gram(args) -> tuple[int, str]:
    from .gram import _tabulate, gram_matrix
    from .polynomials import BivariatePolynomial

    g = gram_matrix(args.n)
    texts = _tabulate(
        g.n, g.pairings, lambda m, t: BivariatePolynomial.monomial(m, t).to_text()
    )
    report = {
        "version": __version__,
        "n": args.n,
        "size": g.size(),
        "basis": [d.to_text() for d in g.basis],
        "entries": texts,
    }
    return 0, _render(report, args.format, table=texts)


def _cmd_det_verify(args) -> tuple[int, str]:
    from .gram import verify_determinant

    report = verify_determinant(
        args.n,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        prime=args.prime,
    )
    return (0 if report["pass"] else 1), _render(report, args.format)


def _cmd_sign_check(args) -> tuple[int, str]:
    from .gram import sign_conjugation_check

    ok = sign_conjugation_check(args.n)
    report = {"version": __version__, "n": args.n, "pass": ok}
    return (0 if ok else 1), _render(report, args.format)


def _cmd_nullity(args) -> tuple[int, str]:
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


def _cmd_jones_wenzl(args) -> tuple[int, str]:
    from .polynomials import quotient_text
    from .tl import jones_wenzl

    f = jones_wenzl(args.k)
    terms = sorted(
        (m.to_paren(), quotient_text(c, f.den)) for m, c in f.terms.items()
    )
    report = {
        "version": __version__,
        "k": args.k,
        "terms": [
            {"matching": paren, "coefficient": text} for paren, text in terms
        ],
    }
    table = [["matching", "coefficient"]] + [list(item) for item in terms]
    return 0, _render(report, args.format, table)


def _cmd_counts(args) -> tuple[int, str]:
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


def _cmd_bijection(args) -> tuple[int, str]:
    from .annular import enumerate_diagrams
    from .disk import diagram_to_subset, subset_to_diagram

    n, j = args.n, args.j
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
    table = [["subset", "diagram"]] + [
        [" ".join(str(p) for p in item["subset"]), item["diagram"]]
        for item in pairs
    ]
    return (0 if ok else 1), _render(report, args.format, table)


def _cmd_telescoping(args) -> tuple[int, str]:
    from .disk import telescoping_sides

    require(args.n >= 1, f"need n >= 1, got n={args.n}")
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
    table = [["n", "lhs", "rhs", "pass"]] + [
        [str(r["n"]), str(r["lhs"]), str(r["rhs"]), str(r["pass"])]
        for r in results
    ]
    # one line per n in plain mode
    lines = "".join(
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
        code, output = args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
