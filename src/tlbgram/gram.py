"""The Gram matrix of the annular basis and its specializations.

The bilinear form assigns each pair of basis diagrams a monomial
a^m d^t.  This module builds the pairing table and the matrix read
from it, checks the two sign conjugations, and ranks the matrix over Q
at a = +-T_k(d0), d = d0.  The determinant identity is in
`determinant`.  `polynomials` and `linalg` are imported where they are
used, so the parity checks load neither and a nullity loads no
polynomial type.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul, xor

from ._intpoly import _chebyshev_values, _poly_divexact
from ._limits import guard, require
from .annular import (
    AnnularDiagram,
    PairingRows,
    PairingValue,
    enumerate_diagrams,
    pair,
    rotation_cycles,
)


class GramMatrix:
    """Basis diagrams, the pairing of every two of them, and an entry function.

    pairings is a PairingRows, and pairings[i][j] is the pairing of
    diagrams i and j; only the row of each rotation cycle's first
    diagram is stored.  Entry (i, j) is value(m, t) for the exponents
    a^m d^t of pairings[i][j], built when entries is first read: the
    monomial itself by default, a skein value for tl.skein_matrix.
    Every evaluation of the table goes through tabulate.
    """

    def __init__(
        self,
        n: int,
        basis: tuple[AnnularDiagram, ...],
        pairings: PairingRows,
        value=None,
    ):
        require(isinstance(pairings, PairingRows), "pairings must be a PairingRows")
        self.n = n
        self.basis = basis
        self.pairings = pairings
        if value is not None:
            self.value = value

    @cached_property
    def value(self):
        """The entry function when none is given: the monomial a^m d^t.

        Looked up when first read, so a table read only through
        tabulate never loads the polynomial types.
        """
        from .polynomials import BivariatePolynomial

        return BivariatePolynomial.monomial

    @cached_property
    def entries(self) -> ExactMatrix:
        from .linalg import ExactMatrix

        return ExactMatrix.from_rows(self.tabulate(self.value))

    def size(self) -> int:
        return len(self.basis)

    def tabulate(self, value) -> PairingRows:
        """value(m, t) for every pairing a^m d^t, on the cycles of pairings.

        value is called once per (m, t), before any row is evaluated: a
        loop of a pairing passes through at least two of the 2n points,
        so m + t <= n and an (n+1) x (n+1) table covers every entry.
        Only the stored row of each cycle's first diagram is evaluated;
        every other row is read through the turn when it is read.
        """
        span = range(self.n + 1)
        table = [[value(m, t) for t in span] for m in span]
        return PairingRows(self.pairings.cycles, {
            i: [table[v.nontrivial][v.trivial] for v in row]
            for i, row in self.pairings.firsts.items()
        })


@lru_cache(maxsize=None)
def _pairing_table(n: int) -> tuple[tuple[AnnularDiagram, ...], PairingRows]:
    """The basis and the pairing of every two of its diagrams.

    Turning the 2n points one step permutes the basis and keeps every
    pairing, so only the row of each cycle's first diagram is paired and
    kept (see PairingRows).  Pairing is symmetric too, so for cycles o
    and o' the turn by -r gives G[o_0][o'_r] = G[o'_r][o_0] =
    G[o'_0][o_(-r)]: over a cycle o' listed before o, the row of o_0 is
    read off the row of o'_0, and each unordered pair of cycles is
    paired once.  The diagonal entry of o_r is read from that of o_0, so
    checking it on o_0 checks the cycle.  Both the Gram matrix and the
    skein matrix read this one table.
    """
    basis = enumerate_diagrams(n)
    cycles = rotation_cycles(n)
    firsts: dict[int, tuple[PairingValue, ...]] = {}
    for a, cycle in enumerate(cycles):
        first = basis[cycle[0]]
        row: list = [None] * len(basis)
        for other in cycles[:a]:
            known = firsts[other[0]]
            for r, j in enumerate(other):
                row[j] = known[cycle[-r % len(cycle)]]
        for other in cycles[a:]:
            for j in other:
                row[j] = pair(first, basis[j])
        assert row[cycle[0]] == PairingValue(0, n)
        firsts[cycle[0]] = tuple(row)
    return basis, PairingRows(cycles, firsts)


@lru_cache(maxsize=None)
def gram_matrix(n: int) -> GramMatrix:
    """The pairing of every two basis diagrams: symmetric, d^n on the diagonal."""
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 5, f"gram_matrix tested for 1 <= n <= 5, got n={n}")
    return GramMatrix(n, *_pairing_table(n))


def _cyclotomic(e: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Phi_e, lowest first.

    x^e - 1 divided by Phi_c for every proper divisor c of e.
    """
    poly = [-1] + [0] * (e - 1) + [1]
    for c in range(1, e):
        if e % c == 0:
            poly = _poly_divexact(poly, _cyclotomic(c))
    return poly


@lru_cache(maxsize=None)
def _rotation_basis(n: int) -> dict:
    """The columns of P, split by the rotation components Phi_e, e | 2n.

    Turning the 2n points one step permutes the basis by R.  A cycle
    o_0, ..., o_(s-1) of R spans the permutation module Q[x]/(x^s - 1)
    with x acting as R, and its Phi_e component, for each e | s, is
    spanned by the phi(e) coefficient vectors of x^i (x^s - 1)/Phi_e(x),
    i < phi(e), laid over the cycle.  Entry e lists these as
    (cycle, coefficients), in increasing e; over all e they form an
    invertible matrix P, one square block per cycle.  Every cycle has
    one vector in entry 1.
    """
    cycles = _pairing_table(n)[1].cycles
    columns: dict[int, list] = {}
    for e in range(1, 2 * n + 1):
        phi = _cyclotomic(e)
        deg = len(phi) - 1
        vectors: dict[int, list] = {}
        for cycle in cycles:
            s = len(cycle)
            if s % e:
                continue
            if s not in vectors:
                q = _poly_divexact([-1] + [0] * (s - 1) + [1], phi)
                vectors[s] = [
                    tuple([0] * i + q + [0] * (deg - 1 - i)) for i in range(deg)
                ]
            columns.setdefault(e, []).extend((cycle, u) for u in vectors[s])
    return columns


@lru_cache(maxsize=None)
def _weights(u: tuple, v: tuple) -> tuple:
    """W[k] = sum of u[r] v[r'] over r' - r = k (mod len(v))."""
    w = [0] * len(v)
    for r, c in enumerate(u):
        for r2, c2 in enumerate(v):
            w[(r2 - r) % len(v)] += c * c2
    return tuple(w)


def _nullity_at(g: GramMatrix, a_value: Fraction, d_value: Fraction) -> int:
    """Nullity over Q of the pairings of g at a = a_value, d = d_value.

    The monomials a^m d^t are ranked, not g's entry function: the skein
    route passes its own a and d (see tl.skein_nullity).  G commutes
    with R, so the Phi_e components are G-orthogonal and P^T G P is
    block diagonal: rank G is the sum of the ranks of the blocks
    B_e = P_e^T G P_e (Serre, Linear Representations of Finite Groups,
    sections 12-13).  Entry (u, v) of B_e, for u laid over the cycle o
    and v over the cycle o', is sum_k W[k] G[o_0][o'_k] with W from
    _weights, since G[o_r][o'_r'] = G[o_0][o'_(r' - r)]: only the row of
    each o_0 is read.  The values a^m d^t, m, t <= n, are scaled to
    integers by the common denominator (qs)^n of a = p/q and d = r/s;
    each block is evaluated on and above its diagonal and mirrored, each
    row is divided by its content, and every block rank is certified by
    rank_exact.
    """
    from .linalg import rank_exact

    scale = (a_value.denominator * d_value.denominator) ** g.n
    rows = g.tabulate(lambda m, t: int(scale * a_value**m * d_value**t)).firsts
    components = _rotation_basis(g.n)
    rank = 0
    for members in components.values():
        raw: list[list[int]] = []
        for i, (cycle, u) in enumerate(members):
            at = rows[cycle[0]].__getitem__
            upper = [
                sum(map(mul, _weights(u, v), map(at, other)))
                for other, v in members[i:]
            ]
            raw.append([r[i] for r in raw] + upper)
        block = []
        for row in raw:
            c = gcd(*row)
            block.append([v // c for v in row] if c > 1 else row)
        rank += rank_exact(block)
    return g.size() - rank


def crossing_signs(basis) -> tuple[int, ...]:
    """(-1)^(crossing number) for each basis diagram."""
    return tuple(-1 if d.cut_crossings() & 1 else 1 for d in basis)


def _parities_hold(parities: PairingRows, e) -> bool:
    """Whether every entry x of row i, column j has x = e[i] + e[j] (mod 2).

    parities holds 0 or 1 for each pairing, from GramMatrix.tabulate.
    Only the stored row of each cycle's o_0 is read, once the turn R is
    seen to shift e by one constant c: e[R(j)] = e[j] + c (mod 2) for
    every j.  That is needed, since the turn keeps every pairing: the
    parities for R(i), R(j) and for i, j give e[R(i)] + e[R(j)] =
    e[i] + e[j], so e[R(i)] - e[i] = e[R(j)] - e[j] (mod 2).  Then row
    o_0 decides its cycle: if row i holds, entry (R(i), R(j)) is entry
    (i, j), which has the parity of e[i] + e[j] = e[R(i)] + e[R(j)] - 2c,
    so row R(i) holds.  Each x and each e[i] is 0 or 1, so row i holds
    when x xor e[j] is e[i] all along it.
    """
    cycles = parities.cycles  # R(o_(r-1)) = o_r
    if len({(e[i] - e[o[r - 1]]) & 1 for o in cycles for r, i in enumerate(o)}) > 1:
        return False
    return all(
        set(map(xor, row, e)) == {e[i]}
        for i, row in parities.firsts.items()
    )


def sign_conjugation_check(n: int) -> bool:
    """Negating the non-trivial loop variable conjugates by the sign matrix.

    Checks entrywise that the a -> -a image of every pairing equals
    sign_i * sign_j times the pairing.  The image of a^m d^t is
    (-1)^m a^m d^t, so this reads m = c_i + c_j (mod 2) for the crossing
    numbers c, checked on the exponents.
    """
    g = gram_matrix(n)
    odd = [int(s < 0) for s in crossing_signs(g.basis)]
    return _parities_hold(g.tabulate(lambda m, t: m & 1), odd)


def d_parity_check(n: int) -> bool:
    """Negating the trivial loop variable conjugates by signs, up to (-1)^n.

    With e_j = t_0j - n mod 2 read off row 0, checks that every pairing
    a^m d^t of i and j has t = n + e_i + e_j (mod 2).  Then
    G(a, -d) = (-1)^n S G S with S = diag((-1)^e), so det G is even in d:
    N = C(2n, n) is even and (-1)^(nN) = 1.
    """
    parities = gram_matrix(n).tabulate(lambda m, t: (t - n) & 1)
    return _parities_hold(parities, parities[0])


def specialized_nullity(n: int, k: int, delta_value: Fraction) -> int:
    """Nullity of G_n at a = (-1)^(k-1) T_k(d0), d = d0, exact over Q.

    d0 should lie off {0, +-1, +-2}, the rational values q + 1/q at roots
    of unity q, where the nullity can exceed the generic one: the
    dimension drop forced by the k-th factor of the determinant.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    delta_value = Fraction(delta_value)
    a_value = (-1) ** (k - 1) * _chebyshev_values(k, delta_value)[k]
    return _nullity_at(gram_matrix(n), a_value, delta_value)


def random_delta(rng: random.Random) -> Fraction:
    """A random rational d0 off {0, +-1, +-2}, numerator and denominator up to 10^3."""
    while True:
        d0 = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if d0 not in (0, 1, -1, 2, -2):
            return d0


_MAX_ATTEMPTS = 5  # samples drawn before a nullity's agreement loop gives up


def _resample_until_two_agree(
    measure, draw, rng: random.Random
) -> tuple[int, list[Fraction]]:
    """measure(draw(rng)) at fresh samples until two values agree.

    A non-generic sample can inflate a nullity; agreement of two
    independent samples is accepted, disagreement triggers a resample,
    and _MAX_ATTEMPTS samples with no two agreeing raise RuntimeError.
    Returns the agreed value together with every sample drawn.
    """
    counts: dict[int, int] = {}
    samples: list[Fraction] = []
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


def nullity_with_resample(
    n: int, k: int, rng: random.Random
) -> tuple[int, list[Fraction]]:
    """Specialized nullity at fresh random samples until two of them agree."""
    return _resample_until_two_agree(
        lambda d: specialized_nullity(n, k, d), random_delta, rng
    )
