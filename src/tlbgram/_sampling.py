"""Rational samples as int pairs (numerator, denominator).

Both nullity routes carry each sample from its draw to the rank this
way, so no nullity loads `fractions`.  `_ratio` reads a sample,
`_laurent_ratio` evaluates a Laurent polynomial at one, `_draw_ratio`
draws one, and `_resample_until_two_agree` measures samples until two
agree.  Only the sampling paths of `gram` and `tl`, and
`LaurentScalar.evaluate`, import this module, so no other job compiles
it.  `random` is never imported: the caller's `random.Random` is named
in annotations alone, which are never evaluated.
"""

from __future__ import annotations

from functools import partial
from math import gcd

from ._limits import require

_MAX_ATTEMPTS = 5  # samples drawn before a nullity's agreement loop gives up


def _ratio(x) -> tuple[int, int]:
    """A rational number as a pair (numerator, denominator) of ints.

    x is such a pair, not necessarily reduced, or a value with
    as_integer_ratio: an int, a Fraction or a finite float.  Anything
    else, and a zero denominator, is refused.
    """
    if type(x) is not tuple:
        require(hasattr(x, "as_integer_ratio"), f"need a rational number, got {x!r}")
        x = x.as_integer_ratio()
    require(
        len(x) == 2 and all(type(v) is int for v in x) and x[1] != 0,
        f"need a pair of ints with a nonzero denominator, got {x!r}",
    )
    return x


def _laurent_ratio(s: LaurentScalar, p: int, q: int) -> tuple[int, int]:
    """s at A = p/q, for ints p, q != 0, as an unreduced (num, den).

    Each term c A^e is scaled by (pq)^h, h the largest |e|, to the
    integer c p^(h+e) q^(h-e).
    """
    require(p * q != 0, "Laurent polynomials are evaluated away from 0")
    h = max(map(abs, s.terms), default=0)
    num = sum(c * p ** (h + e) * q ** (h - e) for e, c in s.terms.items())
    return num, (p * q) ** h


def _draw_ratio(height: int, avoid: int, rng: random.Random) -> tuple[int, int]:
    """A random reduced (p, q) off the integers -avoid..avoid.

    p in -height..height and q in 1..height are drawn, in that order,
    until p/q is not such an integer.
    """
    while True:
        p, q = rng.randint(-height, height), rng.randint(1, height)
        c = gcd(p, q)
        p, q = p // c, q // c
        if q != 1 or abs(p) > avoid:
            return p, q


# Each route's draw: d0 of the Gram route and A of the skein route.
_draw_delta = partial(_draw_ratio, 1000, 2)
_draw_bracket = partial(_draw_ratio, 50, 1)


def _resample_until_two_agree(
    measure, draw, rng: random.Random
) -> tuple[int, list[tuple[int, int]]]:
    """measure(draw(rng)) at fresh samples until two values agree.

    A non-generic sample can inflate a nullity; agreement of two
    independent samples is accepted, disagreement triggers a resample,
    and _MAX_ATTEMPTS samples with no two agreeing raise RuntimeError.
    Returns the agreed value together with every sample drawn.
    """
    counts: dict[int, int] = {}
    samples: list[tuple[int, int]] = []
    for _ in range(_MAX_ATTEMPTS):
        sample = draw(rng)
        samples.append(sample)
        value = measure(sample)
        counts[value] = counts.get(value, 0) + 1
        if counts[value] == 2:
            return value, samples
    raise RuntimeError(
        f"no two of {_MAX_ATTEMPTS} samples agreed on the nullity: {counts}"
    )
