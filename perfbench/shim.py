"""Run one tlbgram CLI command with its layer boundaries timed.

Usage: python3 perfbench/shim.py SPANS_FILE tlbgram-arguments...

The shim imports the package, replaces every public module-level
function (and the methods in METHODS) with a timing wrapper, in the
module that defines it and at every module that imported it by name,
then calls ``tlbgram.cli.main``.  Nothing in the package is edited.

Calls with the same name under the same parent span are merged into one
span record that keeps their count and summed duration: ``pair`` runs
31,878 times in ``gram 5``, and one record per call would cost more than
the call.  The records are kept in memory and written to SPANS_FILE as
JSON when the command ends, whether it returns, exits or raises.
"""

from __future__ import annotations

import time

# The shim's own imports and patching are tracing overhead, not start-up.
_SHIM_START = time.perf_counter()

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

MODULES = ("annular", "cli", "disk", "gram", "linalg", "polynomials", "tl")

# Private functions traced as well: _integer_rank is the exact
# elimination inside rank_exact and its input carries the bit lengths.
PRIVATE = {("linalg", "_integer_rank")}

# Methods that do a layer's work.  Per-entry helpers (partner_map,
# LaurentScalar arithmetic, ExactMatrix accessors) are left inside their
# caller's self time: wrapping them would cost more than they do.
METHODS = {
    ("gram", "GramMatrix"): ("evaluate_mod", "evaluate_rational"),
    ("tl", "TLElement"): ("__add__", "__sub__", "__mul__", "scale",
                          "markov_closure"),
    ("polynomials", "BivariatePolynomial"): (
        "monomial", "__neg__", "__add__", "__sub__", "__rsub__", "__mul__",
        "__pow__", "exact_div", "substitute_negated_a", "evaluate",
        "evaluate_mod", "to_text"),
    ("polynomials", "RationalFunction"): (
        "__init__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "__truediv__", "evaluate", "to_text"),
    ("polynomials", "LaurentScalar"): ("evaluate",),
    ("disk", "DiskDiagram"): ("is_admissible",),
}


def _max_bits(counters, args, result):
    bits = max((abs(x).bit_length() for row in args[0] for x in row), default=0)
    key = "linalg.rank_input_bits"
    counters[key] = max(counters.get(key, 0), bits)


def _add(key, value):
    def probe(counters, args, result):
        counters[key] = counters.get(key, 0) + value(args, result)
    return probe


# Work counters read off a call's arguments or result.
PROBES = {
    "linalg._integer_rank": _max_bits,
    "linalg.det_modular": _add(
        "linalg.det_modular_rows", lambda args, result: args[0].nrows),
    "tl.TLElement.__mul__": _add(
        "tl.element_mul_term_pairs",
        lambda args, result: len(args[0].terms) * len(args[1].terms)),
    "disk.enumerate_disk": _add(
        "disk.disk_diagrams", lambda args, result: len(result)),
}

# Span record fields.
ID, NAME, PARENT, COUNT, DUR, START, END, CHILDREN = range(8)


class Tracer:
    """A tree of merged spans, one per (parent span, name)."""

    def __init__(self):
        self.root = [0, "job", None, 0, 0.0, None, None, {}]
        self.spans = [self.root]
        self.stack = [self.root]
        self.counters: dict = {}

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        probe = PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = parent[CHILDREN].get(name)
            if span is None:
                span = [len(spans), name, parent[ID], 0, 0.0, None, None, {}]
                parent[CHILDREN][name] = span
                spans.append(span)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[COUNT] += 1
                span[DUR] += end - start
                if span[START] is None:
                    span[START] = start
                span[END] = end
            if probe is not None:
                probe(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def records(self) -> list[dict]:
        return [
            {"id": s[ID], "name": s[NAME], "parent": s[PARENT],
             "count": s[COUNT], "dur": s[DUR], "start": s[START],
             "end": s[END]}
            for s in self.spans[1:]
        ]


def _traceable(obj, module) -> bool:
    fn = inspect.unwrap(obj)
    return (
        inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not inspect.isgeneratorfunction(fn)
    )


def load() -> dict:
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module(f"tlbgram.{name}")
        except ModuleNotFoundError:
            continue  # a layer that no longer exists reads 0
    return modules


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the package's public functions and the METHODS."""
    wrapped = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or (name, attr) in PRIVATE
            if public and _traceable(obj, module):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{name}.{attr}", obj))
    # Rebind at every import site: `from .linalg import rank_exact` put
    # the same function object into gram and tl.
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    for (name, cls_name), methods in METHODS.items():
        cls = getattr(modules.get(name), cls_name, None)
        for meth in methods:
            raw = vars(cls).get(meth) if cls is not None else None
            span = f"{name}.{cls_name}.{meth}"
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(span, raw))


def main() -> None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    load_start = time.perf_counter()
    modules = load()
    patch_start = time.perf_counter()
    tracer = Tracer()
    install(tracer, modules)
    shim_s = (load_start - _SHIM_START) + (time.perf_counter() - patch_start)
    entry = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = None
    try:
        code = modules["cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
        raise
    finally:
        with open(spans_file, "w") as handle:
            json.dump({"main_entry": entry, "shim_s": shim_s,
                       "exit": code, "counters": tracer.counters,
                       "spans": tracer.records()}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
