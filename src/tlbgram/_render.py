"""The report writers of the command line: json, csv and plain text.

They are a module apart from cli because a cold process without a
bytecode cache compiles each module it imports, one after the other,
and the largest compile sets the heap floor of every job; split three
ways, the command line compiles in pieces of at most about 1,500
tokens.  No module of the package imports cli: ``python -m tlbgram.cli``
runs that file as __main__, and an import would run it again.

No job loads the json package.  Strings are escaped by the C function
of ``_json`` that json.encoder re-exports on CPython, the literals
``true``, ``false`` and ``null`` are written as they are, and a float
as json.dumps writes it: its repr, or NaN, Infinity and -Infinity.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

try:
    from _json import encode_basestring_ascii
except ImportError:
    # json.encoder's own fallback, where _json is missing
    from json.encoder import encode_basestring_ascii


_LITERALS = {True: "true", False: "false", None: "null"}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    """A float as json.dumps writes it."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# How json.dumps writes each scalar type of a report.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _LITERALS.__getitem__,
    float: _float,
    type(None): _LITERALS.__getitem__,
}


class _Encoded(list):
    """A list of strings that are JSON texts already, written as they are."""

    __slots__ = ()


def _json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for the report shapes.

    Those are dicts with str keys, lists and tuples, _Encoded lists, and
    scalars of the exact types in _SCALARS, each written as json.dumps
    writes it.  Only the layout is written here, because json.dumps
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
