"""The Gram matrix of the annular basis and its specializations.

The bilinear form assigns each pair of basis diagrams a monomial
a^m d^t.  This module builds the pairing table and the matrix read
from it, checks the two sign conjugations, and ranks the matrix over Q
at a = +-T_k(d0), d = d0.  The determinant identity is in
`determinant`.  `polynomials` and `linalg` are imported where they are
used, so the parity checks load neither and a nullity loads no
polynomial type.  A nullity carries each sample from draw to rank as
an int pair (numerator, denominator), read, drawn and resampled by
`_sampling`, so only `random_delta`, which returns the draw as a
Fraction, loads `fractions`.  `random` is never imported: the caller's
`random.Random` is named in annotations alone, which are never
evaluated.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import xor

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


def _monomial(m: int, t: int):
    """The default entry a^m d^t; it loads the polynomial types when called."""
    from .polynomials import BivariatePolynomial

    return BivariatePolynomial.monomial(m, t)


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
        value=_monomial,
    ):
        require(isinstance(pairings, PairingRows), "pairings must be a PairingRows")
        self.n = n
        self.basis = basis
        self.pairings = pairings
        self.value = value

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


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> list[int]:
    """Coefficients of the cyclotomic polynomial Phi_e, lowest first.

    x^e - 1 divided by Phi_c for every proper divisor c of e.  Cached,
    so every caller shares the list and none changes it.
    """
    poly = [-1] + [0] * (e - 1) + [1]
    for c in range(1, e):
        if e % c == 0:
            poly = _poly_divexact(poly, _cyclotomic(c))
    return poly


def _rotation_block(rows: PairingRows, e: int) -> list[list]:
    """The Phi_e block of the table rows, expanded over Q.

    Take the cycles o of the turn R with e | |o|, and K = Q[x]/Phi_e.
    The block is A_e(o, o') = sum_{r < |o'|} x^r G[o_0][o'_r] in K: C_j
    of _character_det_mod with zeta^j replaced by x, for any j of order
    e.  Row (o, i), i < phi(e), holds the coefficients of x^i A_e(o, o')
    in 1, x, ..., x^(phi(e)-1), over every o', so each entry is expanded
    into the transposed matrix of multiplication by it and the rank over
    Q is phi(e) rank_K A_e.  Empty if no cycle qualifies.

    rank G is the sum of these ranks over e.  Q^N is the sum over the
    cycles of Q[x]/(x^|o| - 1), x acting as R and o_0 as 1.  G commutes
    with x, so it keeps each Phi_e component, a copy of K for every
    cycle with e | |o|.  There G maps the 1 of o' to the sum over o of
    A_e(o, o')(1/x) times the 1 of o, since G[o_r][o'_0] =
    G[o_0][o'_(-r)], and x -> 1/x, an automorphism of K, keeps the rank.
    """
    phi = _cyclotomic(e)
    deg = len(phi) - 1
    cycles = [o for o in rows.cycles if len(o) % e == 0]
    block = []
    for o in cycles:
        row = rows.firsts[o[0]]
        powers = [[] for _ in range(deg)]  # powers[i]: x^i A_e(o, o') over o'
        for other in cycles:
            values = [row[j] for j in other]
            c = [sum(values[i::e]) for i in range(e)]  # folded mod x^e - 1
            for i in range(e - 1, deg - 1, -1):  # less c[i] x^(i-deg) Phi_e
                t = c[i]
                for k, q in enumerate(phi, i - deg):
                    c[k] -= t * q
            del c[deg:]
            powers[0] += c
            for power in powers[1:]:
                t = c[-1]  # times x, less t Phi_e
                c = [-t * phi[0]] + [v - t * q for v, q in zip(c, phi[1:-1])]
                power += c
        block += powers
    return block


def _nullity_at(g: GramMatrix, a_value, d_value) -> int:
    """Nullity over Q of the pairings of g at a = a_value, d = d_value.

    a_value and d_value are rationals read by _sampling._ratio, int pairs
    (numerator, denominator) or values such as a Fraction.  The
    monomials a^m d^t are ranked, not g's entry function: the skein
    route passes its own a and d (see tl.skein_nullity).  rank G is the
    sum of the ranks of its rotation blocks, one for each e | 2n (see
    _rotation_block).  The values a^m d^t, m, t <= n, are scaled to the
    integers p^m q^(n-m) r^t s^(n-t) by (qs)^n, for a = p/q and d = r/s,
    each block row is divided by its content, and every block rank is
    certified by rank_exact.  A pair need not be reduced: a common
    factor scales every entry alike.
    """
    from ._sampling import _ratio
    from .linalg import rank_exact

    n = g.n
    (p, q), (r, s) = _ratio(a_value), _ratio(d_value)
    a_powers = [p**m * q ** (n - m) for m in range(n + 1)]
    d_powers = [r**t * s ** (n - t) for t in range(n + 1)]
    rows = g.tabulate(lambda m, t: a_powers[m] * d_powers[t])
    rank = 0
    for e in range(1, 2 * n + 1):
        block = []
        for row in _rotation_block(rows, e):
            c = gcd(*row)
            block.append([v // c for v in row] if c > 1 else row)
        if block:
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


def specialized_nullity(n: int, k: int, delta_value) -> int:
    """Nullity of G_n at a = (-1)^(k-1) T_k(d0), d = d0, exact over Q.

    d0 = p/q is an int pair (p, q) or any value _sampling._ratio reads.
    The recurrence run in integers gives q^k T_k(p/q), so a is the pair
    ((-1)^(k-1) q^k T_k(p/q), q^k).
    d0 should lie off {0, +-1, +-2}, the rational values q + 1/q at roots
    of unity q, where the nullity can exceed the generic one: the
    dimension drop forced by the k-th factor of the determinant.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    from ._sampling import _ratio

    p, q = _ratio(delta_value)
    t_k = _chebyshev_values(k, p, q * q)[k]
    return _nullity_at(gram_matrix(n), ((-1) ** (k - 1) * t_k, q**k), (p, q))


def random_delta(rng: random.Random) -> Fraction:
    """A random d0 off {0, +-1, +-2}, numerator and denominator up to 10^3."""
    from fractions import Fraction

    from ._sampling import _draw_delta

    return Fraction(*_draw_delta(rng))


def nullity_with_resample(
    n: int, k: int, rng: random.Random
) -> tuple[int, list[tuple[int, int]]]:
    """Specialized nullity at fresh random samples until two of them agree.

    Returns the agreed value together with every int pair drawn.
    """
    from ._sampling import _draw_delta, _resample_until_two_agree

    return _resample_until_two_agree(
        lambda d: specialized_nullity(n, k, d), _draw_delta, rng
    )
