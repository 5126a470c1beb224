"""The handlers of the command line, named in the rows of cli._COMMANDS.

Each takes the namespace that cli reads and only computes its report,
with the table and lines that _render writes it from.  Each imports the
layers it runs inside its body, so a cold process loads only what its
subcommand needs.  They are a module apart from cli because a cold
process without a bytecode cache compiles each module it imports, one
after the other, and the largest compile sets the heap floor of every
job.  No module of the package imports cli: ``python -m tlbgram.cli``
runs that file as __main__, and an import would run it again, with a
second _Encoded class whose lists _json would not recognise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import comb

from ._limits import guard, require
from ._render import _Encoded, _json


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
