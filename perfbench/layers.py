"""Per-layer metrics from the span records the shim writes.

A span's self time is its duration minus the durations of its child
spans.  Calls are synchronous, so children never overlap each other and
lie inside their parent; the sum of their durations is the part of the
parent's interval they cover.  A merged span (one record for several
calls with the same name and parent) carries the summed duration of its
calls, and the same arithmetic holds for it.
"""

from __future__ import annotations

# Self-time metrics: the span names (a trailing "." matches a prefix)
# whose self time each sums.  A traced span that no metric names is a
# helper: its self time goes to the nearest enclosing span of the same
# layer that a metric names, else to "<layer>.other_s".
SELF_TIME = {
    "cli.main_self_s": ("cli.main",),
    "annular.enumerate_s": ("annular.enumerate_diagrams",),
    "annular.pair_s": ("annular.pair",),
    "gram.gram_matrix_self_s": ("gram.gram_matrix",),
    "gram.evaluate_mod_s": ("gram.GramMatrix.evaluate_mod",),
    "gram.evaluate_rational_s": ("gram.GramMatrix.evaluate_rational",),
    "gram.sign_check_s": ("gram.sign_conjugation_check",),
    "linalg.det_modular_s": ("linalg.det_modular",),
    "linalg.rank_exact_s": ("linalg.rank_exact", "linalg._integer_rank"),
    "linalg.det_fraction_free_s": ("linalg.det_fraction_free",),
    "polynomials.bivariate_s": ("polynomials.BivariatePolynomial.",),
    "polynomials.rational_s": ("polynomials.RationalFunction.",),
    "polynomials.laurent_evaluate_s": ("polynomials.LaurentScalar.evaluate",),
    "tl.jones_wenzl_s": ("tl.jones_wenzl",),
    "tl.element_mul_self_s": ("tl.TLElement.__mul__",),
    "tl.skein_matrix_s": ("tl.skein_matrix",),
    "tl.skein_nullity_self_s": ("tl.skein_nullity",),
    "disk.enumerate_disk_s": ("disk.enumerate_disk",),
    "disk.bijection_s": ("disk.subset_to_diagram", "disk.diagram_to_subset"),
}

# Call-count metrics: the span names whose calls each counts.
CALLS = {
    "annular.pair_calls": ("annular.pair",),
    "gram.evaluate_mod_calls": ("gram.GramMatrix.evaluate_mod",),
    "linalg.det_modular_calls": ("linalg.det_modular",),
    "linalg.rank_exact_calls": ("linalg.rank_exact",),
    "polynomials.bivariate_mul_calls": ("polynomials.BivariatePolynomial.__mul__",),
    "polynomials.rational_ops": ("polynomials.RationalFunction.",),
    "polynomials.laurent_evaluate_calls": ("polynomials.LaurentScalar.evaluate",),
    "tl.element_mul_calls": ("tl.TLElement.__mul__",),
}

# Draws per verdict: sample evaluations over resample-loop calls.  Each
# verdict needs at least two draws, so 2 / draws is the useful share.
SAMPLES = {
    "gram.samples_per_verdict": ("gram.specialized_nullity", "gram.nullity_with_resample"),
    "tl.samples_per_verdict": ("tl.skein_nullity", "tl.skein_nullity_with_resample"),
}

# Counters the shim reads off arguments and results, and how jobs combine.
COUNTERS = {
    "linalg.det_modular_rows": sum,
    "linalg.rank_input_bits": max,
    "tl.element_mul_term_pairs": sum,
    "disk.disk_diagrams": sum,
}

# The per-layer metrics a traced run reports, in report order.
PER_LAYER = (
    "cli.startup_s", "cli.main_self_s", "cli.output_bytes",
    "annular.enumerate_s", "annular.pair_calls", "annular.pair_s",
    "gram.gram_matrix_self_s", "gram.evaluate_mod_calls", "gram.evaluate_mod_s",
    "gram.evaluate_rational_s", "gram.sign_check_s", "gram.samples_per_verdict",
    "linalg.det_modular_calls", "linalg.det_modular_rows", "linalg.det_modular_s",
    "linalg.rank_exact_calls", "linalg.rank_exact_s", "linalg.rank_input_bits",
    "linalg.det_fraction_free_s",
    "polynomials.bivariate_mul_calls", "polynomials.bivariate_s",
    "polynomials.rational_ops", "polynomials.rational_s",
    "polynomials.laurent_evaluate_calls", "polynomials.laurent_evaluate_s",
    "tl.jones_wenzl_s", "tl.element_mul_calls", "tl.element_mul_term_pairs",
    "tl.element_mul_self_s", "tl.skein_matrix_s", "tl.skein_nullity_self_s",
    "tl.samples_per_verdict",
    "disk.enumerate_disk_s", "disk.disk_diagrams", "disk.bijection_s",
    "trace.overhead_s", "trace.overhead_share", "trace.accounted_share",
)

UNITS = {"_s": "s", "_calls": "count", "_ops": "count", "_rows": "count",
         "_bits": "bits", "_pairs": "count", "_bytes": "bytes",
         "_diagrams": "count", "_verdict": "ratio", "_share": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def _matches(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith(".") else name == p
               for p in patterns)


def _metric_of(name: str, table: dict) -> str | None:
    for metric, patterns in table.items():
        if _matches(name, patterns):
            return metric
    return None


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["dur"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["dur"]
    return out


def attribute(spans: list[dict]) -> dict[str, float]:
    """Self time per SELF_TIME metric, helpers charged as described above."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        metric = None
        cur = s
        while cur is not None and cur["name"].split(".", 1)[0] == layer:
            metric = _metric_of(cur["name"], SELF_TIME)
            if metric is not None:
                break
            cur = by_id.get(cur["parent"])
        key = metric or f"{layer}.other_s"
        totals[key] = totals.get(key, 0.0) + own[s["id"]]
    return totals


def per_layer(jobs: list[dict]) -> dict[str, float]:
    """Aggregate the traced jobs of a run into the per-layer metrics.

    Each job is {"spawn", "wall", "stdout_bytes", "trace"} where trace
    is what the shim wrote.
    """
    out = {m: 0.0 for m in SELF_TIME}
    out.update({m: 0 for m in CALLS})
    out.update({m: 0 for m in COUNTERS})
    draws = {m: [0, 0] for m in SAMPLES}
    out["cli.startup_s"] = 0.0
    out["cli.output_bytes"] = 0
    for job in jobs:
        trace = job["trace"]
        spans = trace["spans"]
        out["cli.startup_s"] += trace["main_entry"] - job["spawn"] - trace["shim_s"]
        out["cli.output_bytes"] += job["stdout_bytes"]
        for metric, seconds in attribute(spans).items():
            out[metric] = out.get(metric, 0.0) + seconds
        for s in spans:
            metric = _metric_of(s["name"], CALLS)
            if metric is not None:
                out[metric] += s["count"]
            for metric, (drawn, verdicts) in SAMPLES.items():
                if s["name"] == drawn:
                    draws[metric][0] += s["count"]
                elif s["name"] == verdicts:
                    draws[metric][1] += s["count"]
        for metric, combine in COUNTERS.items():
            if metric in trace["counters"]:
                out[metric] = combine((out[metric], trace["counters"][metric]))
    for metric, (drawn, verdicts) in draws.items():
        out[metric] = drawn / verdicts if verdicts else 0.0
    return out
