"""Command-line interface: the command table, its two readers and main.

One table, _COMMANDS, describes every subcommand: its handler, help,
int positionals, further options and default format.  Two readers take
their arguments from it.  _read takes the canonical spelling,
``<command> <int>... [--flag value]...``, and builds the namespace that
argparse would, without loading argparse.  It declines every other
spelling, and main hands those to build_parser: help, --version, usage
errors, abbreviated flags and the "=" form.  argparse is thus the only
source of help and error text.  build_parser builds only the subparser
that the first argument names, and every subparser when that names
none, as for --help.  The handlers, in _commands, only compute their
reports, and no library report carries a "version" header: main alone
adds it, renders the report through _render and sets the exit status.

Every subcommand emits one deterministic report (json, csv, or plain
text; no timestamps), so identical invocations produce byte-identical
output.  A report is written row by row as it is rendered, after every
check that can refuse the input has run.  Exit status: 0 when the
report's "pass" holds or the command only computes, 1 when a
verification fails, 2 for usage errors and failed writes.

No module of the package imports this one: ``python -m tlbgram.cli``
runs it as __main__, and an import would run it a second time.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from types import SimpleNamespace

from . import __version__
from ._commands import (
    _cmd_bijection,
    _cmd_counts,
    _cmd_det_verify,
    _cmd_enumerate,
    _cmd_gram,
    _cmd_jones_wenzl,
    _cmd_nullity,
    _cmd_sign_check,
    _cmd_telescoping,
)
from ._render import _render


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


def _shared(fmt: str):
    """The --format and --out options of every subcommand, as in _COMMANDS."""
    return (
        ("--format", {
            "choices": ("json", "csv", "text"),
            "default": fmt,
            "help": f"output format (default {fmt})",
        }),
        ("--out", {"help": "write output to this file instead of stdout"}),
    )


def _read(argv):
    """parse_args(argv) for the canonical spelling, and None for any other.

    Only the named row's exact flags are read, each value converted as
    its action does.  A word starting with "-" passes only as a negative
    integer, which argparse reads as a value, since no option looks like
    one.
    """
    try:
        name, func, _, positionals, options, fmt = next(
            row for row in _COMMANDS if argv[:1] == [row[0]]
        )
        specs = dict(options + _shared(fmt))
        args = {flag[2:]: spec.get("default") for flag, spec in specs.items()}
        words = iter(argv[1:])
        # each flag is read from words after the value before it
        for dest, spec in chain(
            ((dest, {"type": int}) for dest, _ in positionals),
            ((flag[2:], specs[flag]) for flag in words),
        ):
            word = next(words)
            value = spec.get("type", str)(word)
            if value not in spec.get("choices", [value]) or (
                word[:1] == "-" and not word[1:].isdecimal()
            ):
                return None
            args[dest] = value
    except (KeyError, StopIteration, ValueError):
        return None
    return SimpleNamespace(command=name, func=func, **args)


def build_parser(argv=None):
    """The argparse parser, with only the subparser that argv[0] names, if any.

    A usage line lists every subcommand either way: with one built, the
    metavar spells them out.  A metavar would also rename "argument
    command" in the errors that a first argument naming none gets, so
    it is set only when one is named.
    """
    import argparse

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
        for flag, spec in options + _shared(fmt):
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or build_parser(argv).parse_args(argv)
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
