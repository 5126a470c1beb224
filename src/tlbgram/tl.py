"""Temperley-Lieb skein evaluation over the bracket variable A.

Diagrams on k strands are crossingless matchings of 2k rectangle
boundary points, indexed circularly: bottom points left to right are
positions 0..k-1, top points right to left are positions k..2k-1 (so
position 2k-1 sits above position 0).  Composition stacks rectangles,
and every closed loop produced contributes a factor -A^2 - A^-2.

On top of the diagram algebra this module builds Jones-Wenzl
projectors, Markov closures, the state-sum expansion of a curve
encircling all strands, and the matrices of skein evaluations that
mirror the annular Gram matrix after its loop variables are specialized.
Those matrices read the Gram stack's pairing table; they import `gram`
and `linalg` where they use them, so the projectors load neither.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import product
import random

from ._limits import guard, require
from .annular import _trace
from .polynomials import LOOP_VALUE_A, LaurentScalar


class PlanarMatching:
    """Crossingless matching of the 2k circular boundary positions."""

    __slots__ = ("k", "match")

    def __init__(self, k: int, match: tuple[int, ...]):
        self.k = k
        self.match = match
        if len(match) != 2 * k:
            raise ValueError("matching length must be 2k")
        stack: list[int] = []
        for p, q in enumerate(match):
            if q == p or not 0 <= q < 2 * k or match[q] != p:
                raise ValueError("not a fixed-point-free involution")
            if q > p:
                stack.append(p)
            elif not stack or stack[-1] != q:
                raise ValueError("matching has crossing chords")
            else:
                stack.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanarMatching):
            return NotImplemented
        return self.match == other.match

    def __hash__(self) -> int:
        return hash(self.match)

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, q) for p, q in enumerate(self.match) if p < q)

    def to_paren(self) -> str:
        """Balanced-parenthesis notation: '(' opens a chord, ')' closes it."""
        return "".join("(" if q > p else ")" for p, q in enumerate(self.match))


def identity_matching(k: int) -> PlanarMatching:
    return PlanarMatching(k, tuple(2 * k - 1 - p for p in range(2 * k)))


def cup_cap_matching(i: int, k: int) -> PlanarMatching:
    """Generator e_i, 1 <= i <= k-1: cup at bottom slots i-1, i, cap above."""
    require(1 <= i < k, f"need 1 <= i < k, got i={i}, k={k}")
    match = [2 * k - 1 - p for p in range(2 * k)]
    lo, hi = i - 1, i
    match[lo], match[hi] = hi, lo
    top_lo, top_hi = 2 * k - 1 - lo, 2 * k - 1 - hi
    match[top_lo], match[top_hi] = top_hi, top_lo
    return PlanarMatching(k, tuple(match))


def all_matchings(k: int) -> tuple[PlanarMatching, ...]:
    """The Catalan-many diagram basis of the k-strand algebra."""
    from .disk import noncrossing_matchings

    out = []
    for pairs in noncrossing_matchings(2 * k):
        match = [0] * (2 * k)
        for a, b in pairs:
            match[a], match[b] = b, a
        out.append(PlanarMatching(k, tuple(match)))
    return tuple(out)


_ONE = LaurentScalar.constant(1)


class TLElement:
    """Combination of planar matchings with Laurent weights over one denominator.

    The element is sum(terms[m] * m) / den.  Denominators are never
    reduced, so two elements are compared by cross-multiplication.
    """

    __slots__ = ("k", "terms", "den")

    def __init__(self, k: int, terms=None, den: LaurentScalar = _ONE):
        terms = terms or {}
        require(all(m.k == k for m in terms), f"every matching needs {k} strands")
        require(not den.is_zero(), "zero denominator")
        self.k = k
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self.den = den

    @classmethod
    def from_matching(cls, m: PlanarMatching, coeff=_ONE) -> "TLElement":
        return cls(m.k, {m: coeff})

    @classmethod
    def identity(cls, k: int) -> "TLElement":
        return cls.from_matching(identity_matching(k))

    @classmethod
    def generator(cls, i: int, k: int) -> "TLElement":
        return cls.from_matching(cup_cap_matching(i, k))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return (
            self.k == other.k
            and self.terms.keys() == other.terms.keys()
            and all(
                c * other.den == other.terms[m] * self.den
                for m, c in self.terms.items()
            )
        )

    def __add__(self, other: "TLElement") -> "TLElement":
        require(self.k == other.k, f"strand counts {self.k} and {other.k} differ")
        out = {m: c * other.den for m, c in self.terms.items()}
        for m, c in other.terms.items():
            c = c * self.den
            s = out.get(m)
            out[m] = c if s is None else s + c
        return TLElement(self.k, out, self.den * other.den)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(-1)

    def scale(self, factor) -> "TLElement":
        """Multiply by a Laurent polynomial or integer."""
        return TLElement(
            self.k, {m: c * factor for m, c in self.terms.items()}, self.den
        )

    def __mul__(self, other: "TLElement") -> "TLElement":
        """Stack other on top of self."""
        require(self.k == other.k, f"strand counts {self.k} and {other.k} differ")
        k = self.k
        # Nodes 0..k-1 are self's bottom and k..2k-1 other's top, so the
        # ends are already positions of the product.  Nodes 2k..3k-1 are
        # self's top positions k..2k-1 and 3k..4k-1 other's bottom
        # positions 0..k-1; self's top slot s (node 3k-1-s) is glued to
        # other's bottom slot s (node 3k+s).
        seam = [0] * (2 * k) + [6 * k - 1 - v for v in range(2 * k, 4 * k)]
        uppers = []
        for m2, c2 in other.terms.items():
            upper = [q if q >= k else q + 3 * k for q in m2.match]
            uppers.append((upper[k:], upper[:k], c2))
        out: dict = {}
        for m1, c1 in self.terms.items():
            lower = [q if q < k else q + k for q in m1.match]
            bottom, top = lower[:k], lower[k:]
            for upper_top, upper_bottom, c2 in uppers:
                match, loops = _trace(
                    bottom + upper_top + top + upper_bottom, seam, 2 * k
                )
                coeff = c1 * c2 * LOOP_VALUE_A**loops
                key = PlanarMatching(k, match)
                s = out.get(key)
                out[key] = coeff if s is None else s + coeff
        return TLElement(k, out, self.den * other.den)

    def markov_closure(self) -> tuple[LaurentScalar, LaurentScalar]:
        """Trace: close every strand around and evaluate the loops.

        Returns the numerator and denominator of the value.
        """
        k = self.k
        closure = [2 * k - 1 - p for p in range(2 * k)]
        total = LaurentScalar.zero()
        for m, c in self.terms.items():
            total = total + c * LOOP_VALUE_A ** _trace(m.match, closure, 0)[1]
        return total, self.den

    def __repr__(self):
        body = ", ".join(
            f"{m.to_pairs()}: {c.to_text()}" for m, c in self.terms.items()
        )
        return f"TLElement(k={self.k}, {{{body}}}, den={self.den.to_text()})"


def quantum_dimension(k: int) -> LaurentScalar:
    """Loop value of the closed k-strand projector: (-1)^k sum A^{2k-4i}."""
    require(k >= 0, f"need k >= 0, got k={k}")
    sign = -1 if k & 1 else 1
    return LaurentScalar({2 * k - 4 * i: sign for i in range(k + 1)})


def _embed(m: PlanarMatching) -> PlanarMatching:
    """Add an uninvolved strand on the right."""
    k = m.k + 1
    newmatch = [0] * (2 * k)
    for p, q in enumerate(m.match):
        np_ = p if p < k - 1 else p + 2
        nq = q if q < k - 1 else q + 2
        newmatch[np_] = nq
    newmatch[k - 1] = k
    newmatch[k] = k - 1
    return PlanarMatching(k, tuple(newmatch))


def _embed_element(x: TLElement) -> TLElement:
    return TLElement(x.k + 1, {_embed(m): c for m, c in x.terms.items()}, x.den)


_JW_CACHE: dict[int, TLElement] = {}


def jones_wenzl(k: int) -> TLElement:
    """The projector killed by every cup, built by the usual recurrence:

        f_1 = 1,   f_k = f' - (D_{k-2}/D_{k-1}) f' e_{k-1} f'

    where f' is f_{k-1} on the first k-1 strands and D is the quantum
    dimension.  It is carried fraction-free as f_k = N_k / c_k, with
    c_1 = 1 and c_k = c_{k-1} D_{k-1}, so that

        N_k = D_{k-1} N' - D_{k-2} (N' e_{k-1} N') / c_{k-1}

    where N' is N_{k-1} on the first k-1 strands.  The division is exact
    (a ValueError says otherwise); coefficients are never reduced.
    """
    require(k >= 1, f"need k >= 1, got k={k}")
    guard(k <= 8, f"jones_wenzl tested for 1 <= k <= 8, got k={k}")
    if k in _JW_CACHE:
        return _JW_CACHE[k]
    if k == 1:
        f = TLElement.identity(1)
    else:
        prev = jones_wenzl(k - 1)
        top = _embed_element(prev)
        # side.terms is N' e_{k-1} N'; its denominator is not needed
        side = top * TLElement.generator(k - 1, k) * top
        d_prev, d_prev2 = quantum_dimension(k - 1), quantum_dimension(k - 2)
        terms = {m: c * d_prev for m, c in top.terms.items()}
        for m, c in side.terms.items():
            c = (c * d_prev2).exact_div(prev.den)
            s = terms.get(m)
            terms[m] = -c if s is None else s - c
        f = TLElement(k, terms, prev.den * d_prev)
    _JW_CACHE[k] = f
    return f


def encircle(k: int) -> TLElement:
    """Bracket expansion of a simple closed curve around all k strands.

    Each strand meets the curve twice: at the lower crossing the curve
    passes over the strand, at the upper one it passes under.  All 4^k
    smoothings are resolved; a state contributes A^(#A - #B) times the
    loop value for each closed component.
    """
    require(k >= 0, f"need k >= 0, got k={k}")
    guard(k <= 4, f"encircle tested for 0 <= k <= 4, got k={k}")
    if k == 0:
        return TLElement(0, {PlanarMatching(0, ()): LOOP_VALUE_A})

    # Boundary position p is node p.  Slot s (counter-clockwise W=0, S=1,
    # E=2, N=3) of crossing j is node 2k + 4j + s; crossings 0..k-1 are
    # the lower ones, k..2k-1 the upper ones.
    def port(j: int, slot: int) -> int:
        return 2 * k + 4 * j + slot

    edges = [0] * (10 * k)

    def join(p1, p2):
        edges[p1] = p2
        edges[p2] = p1

    for i in range(k):
        join(i, port(i, 1))
        join(port(i, 3), port(k + i, 1))
        join(port(k + i, 3), 2 * k - 1 - i)
        if i + 1 < k:
            join(port(i, 2), port(i + 1, 0))
            join(port(k + i, 2), port(k + i + 1, 0))
    join(port(0, 0), port(k, 0))
    join(port(k - 1, 2), port(2 * k - 1, 2))

    terms: dict[PlanarMatching, LaurentScalar] = {}
    for state in product((0, 1), repeat=2 * k):  # 0 = A smoothing, 1 = B
        smooth = [0] * (10 * k)
        exponent = 0
        for j, choice in enumerate(state):
            s = 0 if j < k else 1  # curve is horizontal below, strand vertical above
            step = -1 if choice == 0 else 1
            exponent += 1 - 2 * choice
            for end in (s, s + 2):
                a = port(j, end)
                b = port(j, (end + step) % 4)
                smooth[a] = b
                smooth[b] = a
        match, loops = _trace(edges, smooth, 2 * k)
        weight = LaurentScalar.monomial(exponent) * LOOP_VALUE_A**loops
        key = PlanarMatching(k, match)
        prev = terms.get(key)
        terms[key] = weight if prev is None else prev + weight
    return TLElement(k, terms)


def encircle_eigenvalue(k: int) -> LaurentScalar:
    """-A^{2(k+1)} - A^{-2(k+1)}, the curve's action on the projector."""
    return LaurentScalar({2 * (k + 1): -1, -2 * (k + 1): -1})


def projector_pairing_value(strands: int, nontrivial: int, trivial: int) -> LaurentScalar:
    """Skein value of the annular pairing with the projector inside.

    A non-trivial loop wraps the projector and evaluates to the
    encircling eigenvalue; a trivial loop evaluates to the plain loop
    value; the closed projector itself contributes its quantum
    dimension.
    """
    require(strands >= 0, f"need strands >= 0, got strands={strands}")
    return (
        encircle_eigenvalue(strands) ** nontrivial
        * LOOP_VALUE_A**trivial
        * quantum_dimension(strands)
    )


class SkeinValueMatrix:
    """Matrix of skein evaluations over the annular diagram basis.

    It is kept as the pairing exponents of every two basis diagrams, the
    same table the Gram matrix reads; entry (i, j) is
    projector_pairing_value(k - 1, m, t) for the exponents (m, t) of
    pairings[i][j].  entries is built when first read, with one value
    per exponent pair (m, t).
    """

    def __init__(self, n: int, k: int, basis: tuple, pairings: tuple):
        self.n = n
        self.k = k
        self.basis = basis
        self.pairings = pairings

    @cached_property
    def entries(self) -> ExactMatrix:
        from .gram import _tabulate
        from .linalg import ExactMatrix

        value = partial(projector_pairing_value, self.k - 1)
        return ExactMatrix.from_rows(_tabulate(self.n, self.pairings, value))


@lru_cache(maxsize=None)
def skein_matrix(n: int, k: int) -> SkeinValueMatrix:
    """Evaluations with the (k-1)-strand projector filling the core.

    The basis and the pairings are those of gram_matrix(n): one table,
    assembled from rotation orbits, serves both routes.
    """
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 5, f"skein_matrix tested for 1 <= n <= 5, got n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    from .gram import _pairing_table

    return SkeinValueMatrix(n, k, *_pairing_table(n))


def skein_nullity(n: int, k: int, a_sample: Fraction) -> int:
    """Nullity of the skein matrix at a rational bracket value.

    Evaluation at A is a ring homomorphism, so the skein matrix at A is
    quantum_dimension(k-1) at A times the pairings at
    a = encircle_eigenvalue(k-1), d = LOOP_VALUE_A, both evaluated at A
    once.  That dimension is nonzero at every rational A other than 0
    and +-1 (its zeros are roots of unity), so it leaves the rank alone.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    a_sample = Fraction(a_sample)
    if a_sample in (0, 1, -1):
        raise ValueError("sample must avoid 0 and the roots of unity +-1")
    from .gram import _nullity_at

    return _nullity_at(
        n,
        skein_matrix(n, k).pairings,
        encircle_eigenvalue(k - 1).evaluate(a_sample),
        LOOP_VALUE_A.evaluate(a_sample),
    )


def random_bracket_sample(rng: random.Random) -> Fraction:
    """Random rational A with small height, avoiding 0 and +-1."""
    while True:
        num = rng.randint(-50, 50)
        den = rng.randint(1, 50)
        if num == 0 or abs(num) == den:
            continue
        return Fraction(num, den)


def skein_nullity_with_resample(
    n: int, k: int, rng: random.Random, max_attempts: int = 5
) -> tuple[int, list[Fraction]]:
    """Nullity at fresh random samples until two independent ones agree.

    Returns the agreed value together with every sample drawn.
    """
    from .gram import _resample_until_two_agree

    return _resample_until_two_agree(
        lambda a: skein_nullity(n, k, a), random_bracket_sample, rng, max_attempts
    )
