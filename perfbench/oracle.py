"""Verdict oracle: checks each job's output against closed forms.

Expected values are computed here from binomial and Catalan numbers and
the integer Chebyshev recurrence, never taken from the program under
test; its own ``pass`` field is checked as well, never trusted alone.
"""

from __future__ import annotations

import json
import re
from math import comb

from workloads import Job


class Mismatch(Exception):
    """The output contradicts the expected answer."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def chebyshev(i: int, d: int) -> int:
    """Normalized Chebyshev T_i(d): T_0 = 2, T_1 = d."""
    prev, cur = 2, d
    if i == 0:
        return prev
    for _ in range(i - 1):
        prev, cur = cur, d * cur - prev
    return cur


def determinant_value(n: int, a: int, d: int) -> int:
    """prod_{i=1..n} (T_i(d)^2 - a^2)^C(2n, n-i) at an integer point."""
    out = 1
    for i in range(1, n + 1):
        out *= (chebyshev(i, d) ** 2 - a * a) ** comb(2 * n, n - i)
    return out


_BIVARIATE_TERM = re.compile(r"(-?\d+)\*a\^(\d+)\*d\^(\d+)\Z")
_GRAM_ENTRY = re.compile(r"1\*a\^\d+\*d\^\d+\Z")


def evaluate_bivariate(text: str, a: int, d: int) -> int:
    if text == "0":
        return 0
    total = 0
    for part in text.split(" + "):
        m = _BIVARIATE_TERM.match(part)
        _expect(m is not None, f"bad polynomial term {part!r}")
        total += int(m.group(1)) * a ** int(m.group(2)) * d ** int(m.group(3))
    return total


def _is_probable_prime(p: int) -> bool:
    return p > 3 and all(pow(b, p - 1, p) == 1 for b in (2, 3, 5, 7, 11, 13))


def _check_enumerate(job: Job, rep: dict) -> None:
    (n,) = job.args
    total = comb(2 * n, n)
    _expect(rep["n"] == n, "wrong n")
    _expect(rep["count"] == total == len(rep["diagrams"]),
            f"count {rep['count']}, expected C(2n, n) = {total}")
    crossings = [sum(chord["w"] for chord in d) for d in rep["diagrams"]]
    for j in range(1, n + 1):
        _expect(sum(c >= j for c in crossings) == comb(2 * n, n - j),
                f"stratum >= {j} is not C(2n, n-j)")


def _check_gram(job: Job, rep: dict) -> None:
    (n,) = job.args
    size = comb(2 * n, n)
    rows = rep["entries"]
    _expect(rep["size"] == size == len(rows) == len(rep["basis"]),
            f"size {rep['size']}, expected {size}")
    diagonal = f"1*a^0*d^{n}"
    for i, row in enumerate(rows):
        _expect(len(row) == size, f"row {i} has {len(row)} entries")
        _expect(row[i] == diagonal, f"diagonal entry {i} is {row[i]!r}")
        for j in range(i + 1, size):
            _expect(row[j] == rows[j][i], f"entries ({i},{j}) not symmetric")
            _expect(_GRAM_ENTRY.match(row[j]) is not None,
                    f"entry ({i},{j}) is not one monomial: {row[j]!r}")


def _check_lemma2(job: Job, rep: dict) -> None:
    # Sign conjugation is a theorem for every n.
    _expect(rep["n"] == job.args[0] and rep["pass"] is True, "lemma2 failed")


def _check_bijection(job: Job, rep: dict) -> None:
    n, j = job.args
    size = comb(2 * n, n - j)
    _expect(rep["stratum_size"] == rep["expected"] == size == len(rep["pairs"]),
            f"stratum size {rep['stratum_size']}, expected C(2n, n-j) = {size}")
    subsets = {tuple(p["subset"]) for p in rep["pairs"]}
    _expect(len(subsets) == size, "mark sets repeat")
    _expect(all(len(s) == n - j and len(set(s)) == n - j
                and all(1 <= x <= 2 * n for x in s) for s in subsets),
            "a mark set is not an (n-j)-subset of 1..2n")
    _expect(rep["roundtrips"] is True and rep["pass"] is True,
            "bijection does not round-trip")


def _check_counts(job: Job, rep: dict) -> None:
    n, k = job.args
    want = comb(2 * n, n) - (comb(2 * n, n - k - 1) if n - k - 1 >= 0 else 0)
    got = (rep["count_tilde"], rep["formula"], rep["annular_atmost"])
    _expect(got == (want, want, want), f"counts {got}, expected {want}")
    _expect(rep["pass"] is True, "pass is not true")


def _check_telescoping(job: Job, rep: dict) -> None:
    (m,) = job.args
    want = [
        {"n": n, "lhs": n * comb(2 * n, n), "rhs": n * comb(2 * n, n),
         "pass": True}
        for n in range(1, m + 1)
    ]
    _expect(rep["max_n"] == m and rep["results"] == want,
            f"results for 1..{m} do not match n * C(2n, n)")
    _expect(rep["pass"] is True, "pass is not true")


def _check_det_verify(job: Job, rep: dict) -> None:
    (n,) = job.args
    opts = dict(job.opts)
    _expect(rep["n"] == n and rep["pass"] is True, "det-verify failed")
    if opts.get("--mode") == "modular":
        trials = opts["--trials"]
        p = rep["prime"]
        degree = 2 * n * comb(2 * n, n)
        _expect(rep["trials"] == trials and rep["seed"] == opts["--seed"],
                "trials or seed not echoed")
        _expect(rep["trial_results"] == [True] * trials,
                "a trial disagreed with the product")
        _expect(_is_probable_prime(p) and p > degree, f"bad prime {p}")
        _expect(abs(rep["bound"] - trials * degree / p) <= 1e-9 * rep["bound"],
                "error bound is not trials * D / p")
        return
    text = rep["determinant"]
    for a, d in job.points:
        _expect(evaluate_bivariate(text, a, d) == determinant_value(n, a, d),
                f"determinant differs from the Chebyshev product at a={a}, d={d}")


def _check_nullity(job: Job, rep: dict) -> None:
    n, k = job.args
    # The exponent of the k-th factor, which is also the generic nullity
    # at a point on that factor.
    want = comb(2 * n, n - k)
    _expect(rep["n"] == n and rep["k"] == k and rep["seed"] == dict(job.opts)["--seed"],
            "arguments not echoed")
    _expect(rep["nullity"] == want, f"nullity {rep['nullity']}, expected {want}")
    _expect(rep["rank"] == comb(2 * n, n) - want, "rank + nullity != C(2n, n)")
    _expect(rep["bound"] == want and rep["pass"] is True, "pass is not true")
    samples = rep["samples"]
    _expect(len(samples) >= 2 and rep["sample"] == samples[-1],
            "fewer than two agreeing samples")


def _check_jones_wenzl(job: Job, rep: dict) -> None:
    (k,) = job.args
    terms = rep["terms"]
    _expect(len(terms) == catalan(k), f"{len(terms)} terms, expected Catalan({k})")
    coeffs = {t["matching"]: t["coefficient"] for t in terms}
    _expect(len(coeffs) == len(terms), "a matching repeats")
    _expect(coeffs.get("(" * k + ")" * k) == "1*A^0",
            "identity coefficient is not 1")


_CHECKS = {
    "enumerate": _check_enumerate,
    "gram": _check_gram,
    "lemma2": _check_lemma2,
    "bijection": _check_bijection,
    "counts": _check_counts,
    "telescoping": _check_telescoping,
    "det-verify": _check_det_verify,
    "nullity-gram": _check_nullity,
    "nullity-skein": _check_nullity,
    "jones-wenzl": _check_jones_wenzl,
}


def verdict(job: Job, exit_code: int, stdout: bytes, stderr: bytes,
            timed_out: bool = False) -> str:
    """Return '' for a correct verdict, else the reason it failed."""
    if timed_out:
        return "timeout"
    if b"Traceback" in stderr:
        return f"traceback on stderr (exit {exit_code})"
    if exit_code != job.expect_exit:
        return f"exit {exit_code}, expected {job.expect_exit}"
    if job.expect_exit != 0:
        return "" if not stdout else "output on a usage error"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "unparsable output"
    try:
        _CHECKS[job.command](job, report)
    except Mismatch as exc:
        return f"wrong answer: {exc}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return ""
