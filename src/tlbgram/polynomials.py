"""Sparse exact polynomial arithmetic.

One sparse ring carries both coefficient domains computed here:

* ``BivariatePolynomial``: integer polynomials in the two loop variables
  ``a`` (non-trivial loop) and ``d`` (trivial loop), keyed by
  ``(a_exp, d_exp)``.
* ``LaurentScalar``: integer Laurent polynomials in the bracket variable
  ``A``, keyed by an integer exponent.

Both store a dict from exponents to nonzero integer coefficients and
share every operation that never combines two exponents; each keeps its
own constructor, product and evaluation.  The representation is
canonical and zero-free, so structural equality coincides with
mathematical equality.  Instances are treated as immutable; arithmetic
always builds new objects.  Quotients of Laurent polynomials, such as
Jones-Wenzl coefficients, are carried as separate numerators and
denominators; ``lowest_terms`` reduces one to canonical form for
printing, through the dense coefficient lists of ``_intpoly``.
"""

from __future__ import annotations

from math import gcd

from ._intpoly import _chebyshev_values, _poly_divexact, _poly_gcd
from ._limits import require


class _SparseRing:
    """A dict from exponents to nonzero integer coefficients.

    Holds the operations that never combine two exponents; a subclass
    supplies the exponent ``_ONE_KEY`` of 1, the product and evaluation.
    Values of different subclasses are never equal and never combine.
    """

    __slots__ = ("terms",)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c: int):
        return cls({cls._ONE_KEY: c})

    @classmethod
    def _wrap(cls, terms: dict):
        # terms already zero-free and valid: skip the constructor's checks
        res = cls.__new__(cls)
        res.terms = terms
        return res

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.constant(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        terms = self.terms
        if terms.keys() <= {self._ONE_KEY}:
            return hash(terms.get(self._ONE_KEY, 0))
        return hash(frozenset(terms.items()))

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, int):
                return NotImplemented
            other = self.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self._wrap(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, factor: int):
        if factor == 0:
            return self.zero()
        return self._wrap({e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError(f"need exponent >= 0, got {exponent}")
        result = self.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


class BivariatePolynomial(_SparseRing):
    """Integer polynomial in the loop variables ``a`` and ``d``."""

    __slots__ = ()
    _ONE_KEY = (0, 0)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    ea, ed = exps
                    if ea < 0 or ed < 0:
                        raise ValueError(f"negative exponent in {exps}")
                    clean[exps] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, a_exp: int, d_exp: int) -> "BivariatePolynomial":
        return cls({(a_exp, d_exp): 1})

    @classmethod
    def var_d(cls) -> "BivariatePolynomial":
        return cls({(0, 1): 1})

    def __mul__(self, other) -> "BivariatePolynomial":
        if type(other) is not type(self):
            return self._scale(other) if isinstance(other, int) else NotImplemented
        out: dict = {}
        for (ea1, ed1), c1 in self.terms.items():
            for (ea2, ed2), c2 in other.terms.items():
                key = (ea1 + ea2, ed1 + ed2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return self._wrap(out)

    __rmul__ = __mul__

    def evaluate(self, a_value, d_value):
        """Evaluate at exact scalars (int or Fraction)."""
        total = 0
        for (ea, ed), c in self.terms.items():
            total += c * a_value**ea * d_value**ed
        return total

    def to_text(self) -> str:
        """Canonical text form, e.g. ``-1*a^2*d^0 + 1*a^0*d^2``."""
        if not self.terms:
            return "0"
        parts = []
        for (ea, ed) in sorted(self.terms, reverse=True):
            parts.append(f"{self.terms[(ea, ed)]}*a^{ea}*d^{ed}")
        return " + ".join(parts)


class LaurentScalar(_SparseRing):
    """Integer Laurent polynomial in the bracket variable ``A``."""

    __slots__ = ()
    _ONE_KEY = 0

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, exp: int) -> "LaurentScalar":
        return cls({exp: 1})

    def min_exp(self) -> int:
        assert self.terms
        return min(self.terms)

    def max_exp(self) -> int:
        assert self.terms
        return max(self.terms)

    def __mul__(self, other) -> "LaurentScalar":
        if type(other) is not type(self):
            return self._scale(other) if isinstance(other, int) else NotImplemented
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = e1 + e2
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return self._wrap(out)

    __rmul__ = __mul__

    def evaluate(self, a_value: Fraction) -> Fraction:
        """Evaluate at a nonzero exact scalar (see _sampling._laurent_ratio)."""
        from fractions import Fraction

        from ._sampling import _laurent_ratio

        return Fraction(*_laurent_ratio(self, *a_value.as_integer_ratio()))

    def to_text(self) -> str:
        """Canonical text form, e.g. ``1*A^4 + 1*A^-4``."""
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self.terms[e]}*A^{e}" for e in sorted(self.terms, reverse=True)
        )


# The loop value of a trivial circle in bracket variables: -A^2 - A^-2.
LOOP_VALUE_A = LaurentScalar({2: -1, -2: -1})


def lowest_terms(
    num: LaurentScalar, den: LaurentScalar
) -> tuple[LaurentScalar, LaurentScalar]:
    """The quotient num/den reduced to its canonical form.

    The denominator is an ordinary integer polynomial with nonzero
    constant term and positive leading coefficient, the numerator
    carries any leftover power of ``A``, the polynomial parts share no
    common factor, and gcd of the two integer contents is 1.  Equal
    quotients therefore reduce to identical pairs.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return LaurentScalar.zero(), LaurentScalar.constant(1)
    shift = num.min_exp() - den.min_exp()
    np = _dense_from_laurent(num)
    dp = _dense_from_laurent(den)
    g = _poly_gcd(np, dp)
    if len(g) > 1:
        np = _poly_divexact(np, g)
        dp = _poly_divexact(dp, g)
    cg = gcd(*np, *dp)
    if dp[-1] < 0:
        cg = -cg
    return (
        _laurent_from_dense([c // cg for c in np], shift),
        _laurent_from_dense([c // cg for c in dp], 0),
    )


def quotient_text(num: LaurentScalar, den: LaurentScalar) -> str:
    """Text of num/den in lowest terms, e.g. ``(1*A^2) / (1*A^4 + 1*A^0)``."""
    num, den = lowest_terms(num, den)
    if den == 1:
        return num.to_text()
    return f"({num.to_text()}) / ({den.to_text()})"


def _dense_from_laurent(s: LaurentScalar) -> list:
    lo = s.min_exp()
    out = [0] * (s.max_exp() - lo + 1)
    for e, c in s.terms.items():
        out[e - lo] = c
    return out


def _laurent_from_dense(p: list, shift: int) -> LaurentScalar:
    return LaurentScalar({i + shift: c for i, c in enumerate(p) if c})


def chebyshev(i: int) -> BivariatePolynomial:
    """Normalized Chebyshev polynomial T_i(d) over Z[d] (see _chebyshev_values)."""
    require(i >= 0, f"need i >= 0, got i={i}")
    return _chebyshev_values(i, BivariatePolynomial.var_d())[i]


def substitute_loop_values(
    p: BivariatePolynomial, a_image: LaurentScalar
) -> LaurentScalar:
    """Substitute a_image for a and the trivial loop value LOOP_VALUE_A for d."""
    return sum(
        (a_image**ea * LOOP_VALUE_A**ed * c for (ea, ed), c in p.terms.items()),
        LaurentScalar.zero(),
    )
