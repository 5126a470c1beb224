"""Temperley-Lieb skein evaluation over the bracket variable A.

Diagrams on k strands are crossingless matchings of 2k rectangle
boundary points, indexed circularly: bottom points left to right are
positions 0..k-1, top points right to left are positions k..2k-1 (so
position 2k-1 sits above position 0).  Composition stacks rectangles,
and every closed loop produced contributes a factor -A^2 - A^-2.
Products and partial traces are both gluings: `_trace` follows their
strands, and `_weigh` sums the matchings weighted by their loops.

On top of the diagram algebra this module builds Jones-Wenzl
projectors, Markov closures, a curve encircling all strands (an extra
strand crossing them, closed by the Markov closure's partial trace),
and the matrices of skein evaluations that mirror the annular Gram
matrix after its loop variables are specialized.
Each such matrix is a `gram.GramMatrix` on the Gram stack's pairing
table with a skein value for its entry function.  `gram` is imported
where it is used, so the projectors load neither `gram` nor `linalg`.
A sample is an int pair (see `_sampling`): only `random_bracket_sample`
loads `fractions`, and `random` is never imported: the caller's
`random.Random` is named in annotations alone, which are never
evaluated.
"""

from __future__ import annotations

from functools import lru_cache, partial

from ._limits import guard, require
from .annular import PlanarMatching
from .polynomials import LOOP_VALUE_A, LaurentScalar


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


_ONE = LaurentScalar.constant(1)


def _trace(total, glue, ends: int) -> tuple[tuple[int, ...], int]:
    """Follow two involutions of the nodes 0..N-1 in turn.

    ``total`` is defined on every node, ``glue`` on every node but the
    ends 0..ends-1.  A path leaves an end along ``total`` and alternates
    until it reaches another end; the nodes no path visits form closed
    loops.  Returns the matching of the ends and the number of loops.
    """
    seen = [False] * len(total)
    ends_match = [0] * ends
    for start in range(ends):
        if seen[start]:
            continue
        v = total[start]
        while v >= ends:
            w = glue[v]
            seen[v] = seen[w] = True
            v = total[w]
        seen[start] = seen[v] = True
        ends_match[start], ends_match[v] = v, start
    loops = 0
    for start in range(ends, len(total)):
        if seen[start]:
            continue
        loops += 1
        v = start
        while not seen[v]:
            w = glue[v]
            seen[v] = seen[w] = True
            v = total[w]
    return tuple(ends_match), loops


def _weigh(k: int, gluings, den: LaurentScalar) -> "TLElement":
    """The element sum(coeff * LOOP_VALUE_A**loops * match) / den.

    gluings yields pairs of a _trace result (match, loops) and a
    coefficient; equal matchings are summed.  The loop value's powers
    are computed only as far as the loop counts reach.
    """
    powers = [_ONE]
    out: dict = {}
    for (match, loops), coeff in gluings:
        while len(powers) <= loops:
            powers.append(powers[-1] * LOOP_VALUE_A)
        key = PlanarMatching(k, match)
        coeff = coeff * powers[loops]
        s = out.get(key)
        out[key] = coeff if s is None else s + coeff
    return TLElement(k, out, den)


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
    def from_matching(cls, m: PlanarMatching) -> "TLElement":
        return cls(m.k, {m: _ONE})

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
        lowers = []
        for m1, c1 in self.terms.items():
            lower = [q if q < k else q + k for q in m1.match]
            lowers.append((lower[:k], lower[k:], c1))
        return _weigh(k, (
            (_trace(bottom + upper_top + top + upper_bottom, seam, 2 * k), c1 * c2)
            for bottom, top, c1 in lowers
            for upper_top, upper_bottom, c2 in uppers
        ), self.den * other.den)

    def _close(self, j: int) -> "TLElement":
        """Partial trace: join the two ends of each of the rightmost j strands.

        Nodes 0..ends-1 are the kept ends, positions 0..k-j-1 and
        k+j..2k-1, in order, so they are already positions of the result.
        The closed ends k-j..k+j-1 follow, and bottom slot s joins its top
        position 2k-1-s.  Each loop formed runs through one of the j joins.
        """
        k = self.k
        ends = 2 * (k - j)
        node = [*range(ends // 2), *range(ends, 2 * k), *range(ends // 2, ends)]
        # at[v] is the position at node v, so node v joins node[match[at[v]]]
        at = [*range(k - j), *range(k + j, 2 * k), *range(k - j, k + j)]
        joins = [0] * ends + [2 * k - 1 + ends - v for v in range(ends, 2 * k)]
        return _weigh(k - j, (
            (_trace([node[m.match[p]] for p in at], joins, ends), c)
            for m, c in self.terms.items()
        ), self.den)

    def markov_closure(self) -> tuple[LaurentScalar, LaurentScalar]:
        """Trace: close every strand around and evaluate the loops.

        Returns the numerator and denominator of the value.
        """
        closed = self._close(self.k)
        return sum(closed.terms.values(), LaurentScalar.zero()), closed.den

    def __repr__(self):
        body = ", ".join(
            f"{m.to_paren()}: {c.to_text()}" for m, c in self.terms.items()
        )
        return f"TLElement(k={self.k}, {{{body}}}, den={self.den.to_text()})"


def quantum_dimension(k: int) -> LaurentScalar:
    """Loop value of the closed k-strand projector: (-1)^k sum A^{2k-4i}."""
    require(k >= 0, f"need k >= 0, got k={k}")
    sign = -1 if k & 1 else 1
    return LaurentScalar({2 * k - 4 * i: sign for i in range(k + 1)})


def _embed(x: TLElement) -> TLElement:
    """Add an uninvolved strand on the right of every matching."""
    k = x.k + 1
    terms = {}
    for m, c in x.terms.items():
        moved = [q if q < k - 1 else q + 2 for q in m.match]
        terms[PlanarMatching(k, (*moved[: k - 1], k, k - 1, *moved[k - 1 :]))] = c
    return TLElement(k, terms, x.den)


@lru_cache(maxsize=None)
def jones_wenzl(k: int) -> TLElement:
    """The projector killed by every cup, built one strand at a time:

        f_k = f' + sum_{i=1..k-1} ([i]/[k]) f' e_{k-1} e_{k-2} ... e_i

    where f' is f_{k-1} on the first k-1 strands, f_0 is the empty
    diagram and [m] = (-1)^(m-1) D_{m-1} is the quantum integer, D the
    quantum dimension (Morrison, arXiv:1503.00384).  It is carried
    fraction-free as f_k = N_k / c_k, with c_k = c_{k-1} D_{k-1}, so

        N_k = D_{k-1} N' + sum_i (-1)^(k-i) D_{i-1} N' e_{k-1} ... e_i

    where N' is N_{k-1} on the first k-1 strands.  Each word is the one
    before it times a single generator; no coefficient is ever divided.
    """
    require(k >= 1, f"need k >= 1, got k={k}")
    guard(k <= 8, f"jones_wenzl tested for 1 <= k <= 8, got k={k}")
    prev = jones_wenzl(k - 1) if k > 1 else TLElement.identity(0)
    word = _embed(prev)
    d_prev = quantum_dimension(k - 1)
    terms = {m: c * d_prev for m, c in word.terms.items()}
    for i in range(k - 1, 0, -1):
        # word.terms is N' e_{k-1} ... e_i; its denominator is not needed
        word = word * TLElement.generator(i, k)
        weight = quantum_dimension(i - 1) * (-1) ** (k - i)
        for m, c in word.terms.items():
            terms[m] = terms.get(m, 0) + c * weight
    return TLElement(k, terms, prev.den * d_prev)


def encircle(k: int) -> TLElement:
    """Bracket expansion of a simple closed curve around all k strands.

    The curve is an extra strand on the right of TL_(k+1), closed on the
    right by the partial trace.  Stacked from the bottom, it crosses the
    k strands leftwards, s_k ... s_1, and back, s_1 ... s_k.  The
    crossing s_i = A + A^-1 e_i has its over-strand running up to the
    right, so the curve passes under each strand below and over it
    above: tilted the other way, the same curve up to isotopy.
    """
    require(k >= 0, f"need k >= 0, got k={k}")
    guard(k <= 4, f"encircle tested for 0 <= k <= 4, got k={k}")
    strands = k + 1
    a, a_inv = LaurentScalar.monomial(1), LaurentScalar.monomial(-1)
    word = TLElement.identity(strands)
    for i in [*range(k, 0, -1), *range(1, strands)]:
        crossing = {identity_matching(strands): a, cup_cap_matching(i, strands): a_inv}
        word = word * TLElement(strands, crossing)
    return word._close(1)


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


@lru_cache(maxsize=None)
def skein_matrix(n: int, k: int) -> GramMatrix:
    """Evaluations with the (k-1)-strand projector filling the core.

    Entry (i, j) is projector_pairing_value(k - 1, m, t) for the pairing
    a^m d^t of i and j, read from the one table, assembled from rotation
    orbits, that gram_matrix(n) reads too.
    """
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 5, f"skein_matrix tested for 1 <= n <= 5, got n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    from .gram import GramMatrix, _pairing_table

    return GramMatrix(n, *_pairing_table(n), partial(projector_pairing_value, k - 1))


def skein_nullity(n: int, k: int, a_sample) -> int:
    """Nullity of the skein matrix at a rational bracket value.

    A is an int pair (p, q) or any value _sampling._ratio reads.
    Evaluation at A is a ring homomorphism, so the skein matrix at A is
    quantum_dimension(k-1) at A times the pairings at
    a = encircle_eigenvalue(k-1), d = LOOP_VALUE_A, both evaluated at A
    once.  That dimension is nonzero at every rational A other than 0
    and +-1 (its zeros are roots of unity), so it leaves the rank alone.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    from ._sampling import _laurent_ratio, _ratio

    p, q = _ratio(a_sample)
    require(
        p != 0 and abs(p) != abs(q), "sample must avoid 0 and the roots of unity +-1"
    )
    from .gram import _nullity_at

    return _nullity_at(
        skein_matrix(n, k),
        _laurent_ratio(encircle_eigenvalue(k - 1), p, q),
        _laurent_ratio(LOOP_VALUE_A, p, q),
    )


def random_bracket_sample(rng: random.Random) -> Fraction:
    """Random rational A with small height, avoiding 0 and +-1."""
    from fractions import Fraction

    from ._sampling import _draw_bracket

    return Fraction(*_draw_bracket(rng))


def skein_nullity_with_resample(
    n: int, k: int, rng: random.Random
) -> tuple[int, list[tuple[int, int]]]:
    """Nullity at fresh random samples until two independent ones agree.

    Returns the agreed value together with every int pair drawn.
    """
    from ._sampling import _draw_bracket, _resample_until_two_agree

    return _resample_until_two_agree(
        lambda a: skein_nullity(n, k, a), _draw_bracket, rng
    )
