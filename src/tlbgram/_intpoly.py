"""Dense integer polynomials, lowest degree first, and the Chebyshev recurrence.

Exact division and the primitive gcd over Z.  `polynomials` reduces
Jones-Wenzl quotients with them and `gram` divides out cyclotomic
polynomials, so `gram` reaches them without loading `polynomials`.
"""

from __future__ import annotations

from math import gcd

from ._limits import require


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_primitive(p: list) -> list:
    g = gcd(*p)
    if g == 0:
        return []
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _poly_pseudo_rem(u: list, v: list) -> list:
    # leading-coefficient-scaled remainder; keeps everything in integers
    require(bool(v), "pseudo-remainder by the zero polynomial")
    u = list(u)
    lv = v[-1]
    while len(u) >= len(v):
        d = len(u) - len(v)
        lead = u[-1]
        for i in range(len(u)):
            u[i] *= lv
        for i, c in enumerate(v, d):
            u[i] -= lead * c
        _poly_trim(u)
    return u


def _poly_gcd(u: list, v: list) -> list:
    """Primitive gcd of integer polynomials with positive leading coefficient."""
    u = _poly_primitive(_poly_trim(list(u)))
    v = _poly_primitive(_poly_trim(list(v)))
    while v:
        u, v = v, _poly_primitive(_poly_pseudo_rem(u, v))
    return u


def _poly_divexact(p: list, q: list) -> list:
    """Exact quotient of integer polynomials; ValueError unless exact."""
    require(bool(q), "division by the zero polynomial")
    p = list(p)
    out = [0] * (len(p) - len(q) + 1) if len(p) >= len(q) else []
    while len(p) >= len(q):
        d = len(p) - len(q)
        lead = p[-1]
        require(lead % q[-1] == 0, "inexact polynomial division")
        c = lead // q[-1]
        out[d] = c
        for i, qc in enumerate(q, d):
            p[i] -= c * qc
        _poly_trim(p)
    require(not p, "inexact polynomial division")
    return _poly_trim(out)


def _chebyshev_values(n: int, d, s=1) -> list:
    """T_0, ..., T_n of T_0 = 2, T_1 = d, T_i = d*T_(i-1) - s*T_(i-2).

    With s = 1 these are the normalized Chebyshev polynomials at d:
    T_i(x + 1/x) = x^i + x^-i.  With d = p and s = q^2 they are
    q^i T_i(p/q), so a rational point stays in integers.  d lies in any
    ring that takes integers: Z[d], Q, or Z, with the values reduced mod
    p afterwards if need be.
    """
    values = [2 + 0 * d, d]  # 2 in the ring of d
    while len(values) <= n:
        values.append(d * values[-1] - s * values[-2])
    return values[: n + 1]
