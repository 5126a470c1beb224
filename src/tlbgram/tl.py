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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
import random

from ._limits import guard, require
from .annular import enumerate_diagrams, pair
from .gram import _resample_until_two_agree
from .linalg import ExactMatrix, rank_exact
from .polynomials import LOOP_VALUE_A, LaurentScalar, RationalFunction


@dataclass(frozen=True)
class PlanarMatching:
    """Crossingless matching of the 2k circular boundary positions."""

    k: int
    match: tuple[int, ...]

    def __post_init__(self):
        m = self.match
        if len(m) != 2 * self.k:
            raise ValueError("matching length must be 2k")
        stack: list[int] = []
        for p, q in enumerate(m):
            if q == p or not 0 <= q < 2 * self.k or m[q] != p:
                raise ValueError("not a fixed-point-free involution")
            if q > p:
                stack.append(p)
            elif not stack or stack[-1] != q:
                raise ValueError("matching has crossing chords")
            else:
                stack.pop()

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, q) for p, q in enumerate(self.match) if p < q)

    def to_paren(self) -> str:
        """Balanced-parenthesis notation: '(' opens a chord, ')' closes it."""
        return "".join("(" if q > p else ")" for p, q in enumerate(self.match))


def identity_matching(k: int) -> PlanarMatching:
    return PlanarMatching(k, tuple(2 * k - 1 - p for p in range(2 * k)))


def cup_cap_matching(i: int, k: int) -> PlanarMatching:
    """Generator e_i, 1 <= i <= k-1: cup at bottom slots i-1, i, cap above."""
    assert 1 <= i < k
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


def _glue(x: PlanarMatching, y: PlanarMatching) -> tuple[tuple[int, ...], int]:
    """Stack y on top of x; return the boundary matching and loop count.

    Nodes 0..2k-1 are x's positions, 2k..4k-1 are y's shifted by 2k.
    x's top slot s (node 2k-1-s) is glued to y's bottom slot s
    (node 2k+s); the result keeps x's bottom and y's top.
    """
    assert x.k == y.k
    k = x.k
    glue = {}
    for s in range(k):
        glue[2 * k - 1 - s] = 2 * k + s
        glue[2 * k + s] = 2 * k - 1 - s

    def dmatch(v: int) -> int:
        return x.match[v] if v < 2 * k else 2 * k + y.match[v - 2 * k]

    def is_boundary(v: int) -> bool:
        return v < k or v >= 3 * k

    visited: set[int] = set()
    newmatch = [0] * (2 * k)
    for p0 in range(2 * k):
        v0 = p0 if p0 < k else 2 * k + p0
        if v0 in visited:
            continue
        visited.add(v0)
        v = dmatch(v0)
        while not is_boundary(v):
            visited.add(v)
            v = glue[v]
            visited.add(v)
            v = dmatch(v)
        visited.add(v)
        p1 = v if v < k else v - 2 * k
        newmatch[p0] = p1
        newmatch[p1] = p0
    loops = 0
    for v in range(k, 3 * k):
        if v in visited:
            continue
        loops += 1
        cur = v
        while cur not in visited:
            visited.add(cur)
            nxt = dmatch(cur)
            visited.add(nxt)
            cur = glue[nxt]
    return tuple(newmatch), loops


def _closure_loops(m: PlanarMatching) -> int:
    """Loops after joining each top point to the bottom point below it."""
    k = m.k
    visited: set[int] = set()
    loops = 0
    for start in range(2 * k):
        if start in visited:
            continue
        loops += 1
        cur = start
        while cur not in visited:
            visited.add(cur)
            q = m.match[cur]
            visited.add(q)
            cur = 2 * k - 1 - q
    return loops


_ONE = RationalFunction(1)


class TLElement:
    """Formal combination of planar matchings with rational-function weights."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        self.k = k
        clean = {}
        for m, c in (terms or {}).items():
            assert m.k == k
            if not isinstance(c, RationalFunction):
                c = RationalFunction(c)
            if not c.is_zero():
                clean[m] = c
        self.terms = clean

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
        return self.k == other.k and self.terms == other.terms

    def __add__(self, other: "TLElement") -> "TLElement":
        assert self.k == other.k
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return TLElement(self.k, out)

    def __sub__(self, other: "TLElement") -> "TLElement":
        return self + other.scale(RationalFunction(-1))

    def scale(self, factor) -> "TLElement":
        return TLElement(self.k, {m: c * factor for m, c in self.terms.items()})

    def __mul__(self, other: "TLElement") -> "TLElement":
        assert self.k == other.k
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                match, loops = _glue(m1, m2)
                coeff = c1 * c2 * LOOP_VALUE_A**loops
                key = PlanarMatching(self.k, match)
                s = out.get(key)
                out[key] = coeff if s is None else s + coeff
        return TLElement(self.k, out)

    def markov_closure(self) -> RationalFunction:
        """Trace: close every strand around and evaluate the loops."""
        total = RationalFunction(0)
        for m, c in self.terms.items():
            total = total + c * LOOP_VALUE_A ** _closure_loops(m)
        return total

    def __repr__(self):
        body = ", ".join(
            f"{m.to_pairs()}: {c.to_text()}" for m, c in self.terms.items()
        )
        return f"TLElement(k={self.k}, {{{body}}})"


def quantum_dimension(k: int) -> LaurentScalar:
    """Loop value of the closed k-strand projector: (-1)^k sum A^{2k-4i}."""
    assert k >= 0
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
    return TLElement(x.k + 1, {_embed(m): c for m, c in x.terms.items()})


_JW_CACHE: dict[int, TLElement] = {}


def jones_wenzl(k: int) -> TLElement:
    """The projector killed by every cup, built by the usual recurrence:

        f_1 = 1,   f_k = f' - (D_{k-2}/D_{k-1}) f' e_{k-1} f'

    where f' is f_{k-1} on the first k-1 strands and D is the quantum
    dimension.
    """
    require(k >= 1, f"need k >= 1, got k={k}")
    guard(k <= 8, f"jones_wenzl tested for 1 <= k <= 8, got k={k}")
    if k in _JW_CACHE:
        return _JW_CACHE[k]
    if k == 1:
        f = TLElement.identity(1)
    else:
        prev = _embed_element(jones_wenzl(k - 1))
        coeff = RationalFunction(quantum_dimension(k - 2), quantum_dimension(k - 1))
        side = prev * TLElement.generator(k - 1, k) * prev
        f = prev - side.scale(coeff)
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
        return TLElement(0, {PlanarMatching(0, ()): RationalFunction(LOOP_VALUE_A)})

    edges: dict = {}

    def join(p1, p2):
        edges[p1] = p2
        edges[p2] = p1

    # slots counter-clockwise: W=0, S=1, E=2, N=3
    for i in range(k):
        join(("b", i), (("L", i), 1))
        join((("L", i), 3), (("U", i), 1))
        join((("U", i), 3), ("t", i))
        if i + 1 < k:
            join((("L", i), 2), (("L", i + 1), 0))
            join((("U", i), 2), (("U", i + 1), 0))
    join((("L", 0), 0), (("U", 0), 0))
    join((("L", k - 1), 2), (("U", k - 1), 2))

    vertices = [("L", i) for i in range(k)] + [("U", i) for i in range(k)]
    over_slot = {"L": 0, "U": 1}  # curve is horizontal below, strand vertical above

    terms: dict[PlanarMatching, LaurentScalar] = {}
    for state in product((0, 1), repeat=2 * k):  # 0 = A smoothing, 1 = B
        smooth: dict = {}
        exponent = 0
        for v, choice in zip(vertices, state):
            s = over_slot[v[0]]
            step = -1 if choice == 0 else 1
            exponent += 1 - 2 * choice
            for end in (s, s + 2):
                a = (v, end % 4)
                b = (v, (end + step) % 4)
                smooth[a] = b
                smooth[b] = a
        visited: set = set()
        newmatch = [0] * (2 * k)
        boundary = [("b", i) for i in range(k)] + [("t", i) for i in range(k)]

        def position(port) -> int:
            side, i = port
            return i if side == "b" else 2 * k - 1 - i

        for start in boundary:
            if start in visited:
                continue
            visited.add(start)
            cur = edges[start]
            while cur in smooth:
                visited.add(cur)
                cur = smooth[cur]
                visited.add(cur)
                cur = edges[cur]
            visited.add(cur)
            p0, p1 = position(start), position(cur)
            newmatch[p0] = p1
            newmatch[p1] = p0
        loops = 0
        for v in vertices:
            for slot in range(4):
                port = (v, slot)
                if port in visited:
                    continue
                loops += 1
                cur = port
                while cur not in visited:
                    visited.add(cur)
                    nxt = smooth[cur]
                    visited.add(nxt)
                    cur = edges[nxt]
        weight = LaurentScalar.monomial(exponent) * LOOP_VALUE_A**loops
        key = PlanarMatching(k, tuple(newmatch))
        prev = terms.get(key)
        terms[key] = weight if prev is None else prev + weight
    return TLElement(
        k, {m: RationalFunction(c) for m, c in terms.items() if not c.is_zero()}
    )


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
    assert strands >= 0
    return (
        encircle_eigenvalue(strands) ** nontrivial
        * LOOP_VALUE_A**trivial
        * quantum_dimension(strands)
    )


@dataclass(frozen=True)
class SkeinValueMatrix:
    """Matrix of skein evaluations over the annular diagram basis."""

    n: int
    k: int
    basis: tuple
    entries: ExactMatrix


@lru_cache(maxsize=None)
def skein_matrix(n: int, k: int) -> SkeinValueMatrix:
    """Evaluations with the (k-1)-strand projector filling the core."""
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 4, f"skein_matrix tested for 1 <= n <= 4, got n={n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    basis = enumerate_diagrams(n)
    rows = []
    for d1 in basis:
        row = []
        for d2 in basis:
            v = pair(d1, d2)
            row.append(projector_pairing_value(k - 1, v.nontrivial, v.trivial))
        rows.append(row)
    return SkeinValueMatrix(n, k, basis, ExactMatrix.from_rows(rows))


def skein_nullity(n: int, k: int, a_sample: Fraction) -> int:
    """Nullity of the skein matrix at a rational bracket value."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    a_sample = Fraction(a_sample)
    if a_sample in (0, 1, -1):
        raise ValueError("sample must avoid 0 and the roots of unity +-1")
    m = skein_matrix(n, k)
    values = ExactMatrix.from_rows(
        [[entry.evaluate(a_sample) for entry in row] for row in m.entries.entries]
    )
    return len(m.basis) - rank_exact(values)


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
    return _resample_until_two_agree(
        lambda a: skein_nullity(n, k, a), random_bracket_sample, rng, max_attempts
    )
