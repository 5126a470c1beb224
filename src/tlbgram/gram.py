"""The Gram matrix of the annular basis and its determinant identity.

The bilinear form assigns each pair of basis diagrams a monomial
a^m d^t.  The determinant of the full matrix factors as

    prod_{i=1..n} (T_i(d)^2 - a^2)^C(2n, n-i)

with T_i the normalized Chebyshev polynomials.  This module builds the
matrix, expands the product, and compares the two at points mod p:
at random points under one large prime, or at every node of a lower
set under enough primes to prove them equal.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import count
from math import comb, gcd, prod
from operator import mul, xor

from . import __version__
from ._limits import guard, require
from .annular import (
    AnnularDiagram,
    PairingRows,
    PairingValue,
    enumerate_diagrams,
    pair,
    rotation_cycles,
)
from .linalg import ExactMatrix, _det_mod, _primes, is_prime, rank_exact
from .polynomials import BivariatePolynomial, _poly_divexact, chebyshev


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
        # looked up here, not bound at definition, so a patched monomial is seen
        self.value = value or BivariatePolynomial.monomial

    @cached_property
    def entries(self) -> ExactMatrix:
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


def determinant_product_form(n: int) -> BivariatePolynomial:
    """Expanded product prod_i (T_i(d)^2 - a^2)^C(2n, n-i)."""
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 3, f"symbolic product expansion tested for n <= 3, got n={n}")
    a_sq = BivariatePolynomial.monomial(2, 0)
    result = BivariatePolynomial.constant(1)
    for i in range(1, n + 1):
        factor = chebyshev(i) * chebyshev(i) - a_sq
        result = result * factor ** comb(2 * n, n - i)
    return result


def determinant_product_value_mod(n: int, a_value: int, d_value: int, p: int) -> int:
    """The factored determinant evaluated at a point mod p."""
    require(n >= 1, f"need n >= 1, got n={n}")
    t_prev, t_cur = 2 % p, d_value % p  # T_0, T_1
    a_sq = a_value * a_value % p
    result = 1
    for i in range(1, n + 1):
        factor = (t_cur * t_cur - a_sq) % p
        result = result * pow(factor, comb(2 * n, n - i), p) % p
        t_prev, t_cur = t_cur, (d_value * t_cur - t_prev) % p
    return result


def degree_bound(n: int) -> int:
    """Total-degree bound used for the random-evaluation error estimate.

    The determinant has degree exactly n*C(2n, n); the doubled value is
    kept as a deliberately crude margin.
    """
    return 2 * n * comb(2 * n, n)


@lru_cache(maxsize=None)
def _root_powers(m: int, p: int) -> tuple[int, ...]:
    """zeta^k mod p for k < m, zeta a primitive m-th root of unity mod p.

    Such a zeta exists exactly when p = 1 (mod m); any other p is
    refused.  zeta = x^((p-1)/m) has zeta^m = 1, so its order divides
    m, and it is m when zeta^0, ..., zeta^(m-1) are distinct.
    """
    require((p - 1) % m == 0, f"need a prime p = 1 (mod {m}), got p={p}")
    for x in count(2):
        zeta = pow(x, (p - 1) // m, p)
        powers = [1]
        while len(powers) < m:
            powers.append(powers[-1] * zeta % p)
        if len(set(powers)) == m:
            return tuple(powers)


def _character_block(
    rows: PairingRows, j: int, powers: tuple, p: int
) -> list[list[int]]:
    """C_j mod p: G on the character j of Z/2n, from the rows of the o_0.

    rows is G mod p from GramMatrix.tabulate, and powers[k] = zeta^k for
    k < 2n.  C_j runs over the cycles o with j|o| = 0 (mod 2n), and its
    entry (o, o') is sum_{r < |o'|} zeta^(jr) G[o_0][o'_r].  See
    _character_det_mod.
    """
    m = len(powers)
    cycles = [o for o in rows.cycles if j * len(o) % m == 0]
    weights = [powers[j * r % m] for r in range(m)]
    return [
        [sum(map(mul, weights, map(row.__getitem__, other))) % p for other in cycles]
        for row in (rows.firsts[o[0]] for o in cycles)
    ]


def _character_det_mod(g: GramMatrix, a_value: int, d_value: int, p: int) -> int:
    """det g mod p at a = a_value, d = d_value, for a prime p = 1 (mod 2n).

    Let zeta be a primitive 2n-th root of unity mod p and R the turn.
    For a cycle o' of R and a j with j|o'| = 0 (mod 2n), the vector
    w = sum_{r < |o'|} zeta^(jr) e_(o'_r) has Rw = zeta^(-j) w.  G
    commutes with R, so Gw lies in the same eigenspace, spanned by the
    w of the cycles o with j|o| = 0; each of those is 1 at its o_0 and
    0 at every other cycle's o_0, so Gw is the sum of (Gw)[o_0] times
    them, and (Gw)[o_0] = C_j(o, o') (_character_block).  Let V hold
    every such w: on each cycle it is a length-|o| DFT, invertible
    because p = 1 (mod 2n) and |o| divides 2n, so zeta^(2n/|o|) is a
    primitive |o|-th root of unity and |o| < p.  So V^-1 G V is block
    diagonal with blocks C_0, ..., C_(2n-1), and det G = prod det C_j.

    C_(2n-j) runs over the same cycles as C_j.  By symmetry and a turn
    by -r, G[o'_0][o_r] = G[o_r][o'_0] = G[o_0][o'_(-r)].  The summand
    zeta^(jr) G[o_0][o'_r] has period |o'| in r, and also |o|, since
    turning both by R^|o| fixes o_0; so its period divides
    c = gcd(|o|, |o'|).  With S its sum over r < c,
    C_j(o, o') = (|o'|/c) S, and
        C_(2n-j)(o', o) = sum_{r < |o|} zeta^(-jr) G[o'_0][o_r]
                        = sum_{r < |o|} zeta^(-jr) G[o_0][o'_(-r)]
                        = (|o|/c) S = (|o|/|o'|) C_j(o, o').
    So C_(2n-j)^T = D C_j D^-1 with D = diag(|o|), the two blocks have
    the same determinant, and
        det G = det C_0 det C_n prod_{0<j<n} (det C_j)^2.
    Only the rows of the o_0 are evaluated, and each block is one
    _det_mod.
    """
    n = g.n
    rows = g.tabulate(lambda m, t: pow(a_value, m, p) * pow(d_value, t, p) % p)
    powers = _root_powers(2 * n, p)
    det = 1
    for j in range(n + 1):
        block = _det_mod(_character_block(rows, j, powers, p), p)
        det = det * (block if j in (0, n) else block * block) % p
    return det


def _agrees_at(g: GramMatrix, a_value: int, d_value: int, p: int) -> bool:
    """Whether det g and the product form agree at a = a_value, d = d_value mod p.

    p must be 1 (mod 2n): det g is the product of its character blocks
    (see _character_det_mod).
    """
    return _character_det_mod(g, a_value, d_value, p) == (
        determinant_product_value_mod(g.n, a_value, d_value, p)
    )


def _product_is_determinant(n: int) -> bool:
    """Whether det G_n = prod_i (T_i(d)^2 - a^2)^C(2n, n-i), proven mod p.

    The proof holds over Z[a, d], from the nodes of a lower set.  Lemma 2
    (sign_conjugation_check) makes det G even in a and d_parity_check
    makes it even in d, so det G = f(a^2, d^2), and G at a = u, d = v
    has determinant f(u^2, v^2).  Row i of G has degree at most
    max_j m_ij in a, max_j t_ij in d and max_j (m_ij + t_ij) in total,
    so the row sums bound the degrees of det G: 44, 60 and 60 at n = 3.
    Row o_r of a cycle o permutes row o_0, so each sum is one over the
    cycles of |o| times the maximum on row o_0.  Halved, they bound f to
    the 460 terms x^i y^j with i <= 22, j <= 30 and i + j <= 30.  The
    product is F(a^2, d^2) too, since T_i^2 is even in d, and its factor
    i has degree 1 in x and i in y and in total, so F has degree
    sum_i C(2n, n-i) in x and sum_i i C(2n, n-i) in y and in total: 22,
    30 and 30 at n = 3.  If these fit the halved bounds, h = f - F lies
    in the same lower set.  Every entry of G has modulus 1 where
    |a| = |d| = 1, so Hadamard's bound N^(N/2) caps every coefficient of
    f (N = C(2n, n) is even).  The sum of the moduli of the coefficients
    is submultiplicative, and it is at most L_i^2 + 1 on factor i, with
    L_i that sum on T_i (the Lucas numbers), so
    prod_i (L_i^2 + 1)^C(2n, n-i) caps every coefficient of F: below
    2^40 against N^(N/2) < 2^44 at n = 3.  A polynomial on a lower set
    that vanishes at its nodes (u^2, v^2) is zero, as long as the
    squares of the nodes stay distinct mod p (divided differences in x,
    then in y), and at each node _agrees_at compares det G with F.  So
    h = 0 mod every prime taken, each = 1 (mod 2n) for _agrees_at.  Once
    their product exceeds twice the sum of the two caps, h = 0.
    """
    if not sign_conjugation_check(n):
        raise RuntimeError(f"Lemma 2 parity fails at n={n}: det G_n is not even in a")
    if not d_parity_check(n):
        raise RuntimeError(f"d parity fails at n={n}: det G_n is not even in d")
    g = gram_matrix(n)
    rows = [(len(o), g.pairings.firsts[o[0]]) for o in g.pairings.cycles]
    deg_a = sum(s * max(v.nontrivial for v in row) for s, row in rows)
    deg_d = sum(s * max(v.trivial for v in row) for s, row in rows)
    total = sum(s * max(v.nontrivial + v.trivial for v in row) for s, row in rows)
    exponents = {i: comb(2 * n, n - i) for i in range(1, n + 1)}
    if (
        sum(exponents.values()) > deg_a // 2
        or sum(i * c for i, c in exponents.items()) > min(deg_d, total) // 2
    ):
        return False
    staircase = [min(deg_d // 2, total // 2 - i) for i in range(deg_a // 2 + 1)]
    size = g.size()
    bound = size ** (size // 2) + prod(
        (sum(map(abs, chebyshev(i).terms.values())) ** 2 + 1) ** c
        for i, c in exponents.items()
    )
    modulus = 1
    primes = _primes(2 * n)
    while modulus <= 2 * bound:
        p = next(primes)
        if not all(
            _agrees_at(g, u, v, p)
            for u, top in enumerate(staircase)
            for v in range(top + 1)
        ):
            return False
        modulus *= p
    return True


def verify_determinant(
    n: int,
    mode: str = "symbolic",
    trials: int | None = None,
    seed: int | None = None,
    prime: int | None = None,
) -> dict:
    """Compare det G_n against the Chebyshev product; returns a report dict.

    Both modes compare the two mod p at points (see _agrees_at).
    Symbolic mode proves them equal over Z[a, d] from the nodes of a
    lower set (see _product_is_determinant), reports the expanded
    product as the determinant, or null if they differ, and refuses
    trials, a seed and a prime.  Modular mode samples random points mod
    a fixed prime (32 trials from seed 0 unless given), reporting the
    Schwartz-Zippel style error bound trials * D / p.  Both take primes
    p = 1 (mod 2n), the largest below 2^53 by default; a given prime
    that is not is refused.
    """
    require(n >= 1, f"need n >= 1, got n={n}")
    if mode == "symbolic":
        require(prime is None, "a prime is only taken in modular mode")
        require(trials is None, "trials are only taken in modular mode")
        require(seed is None, "a seed is only taken in modular mode")
        guard(n <= 3, f"symbolic verification tested for n <= 3, got n={n}")
        proven = _product_is_determinant(n)
        return {
            "version": __version__,
            "n": n,
            "mode": "symbolic",
            "trials": None,
            "prime": None,
            "seed": None,
            "pass": proven,
            "bound": 0.0,
            "determinant": determinant_product_form(n).to_text() if proven else None,
        }
    if mode != "modular":
        raise ValueError(f"mode must be 'symbolic' or 'modular', got {mode!r}")
    trials = 32 if trials is None else trials
    seed = 0 if seed is None else seed
    if trials < 1:
        raise ValueError("need at least one trial")
    guard(trials <= 1000, f"det-verify tested for trials <= 1000, got trials={trials}")
    g = gram_matrix(n)  # the size checks, before the prime search and the degree bound
    p = next(_primes(2 * n)) if prime is None else prime
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bound_degree = degree_bound(n)
    if p <= bound_degree:
        raise ValueError("prime too small for the degree bound")
    rng = random.Random(seed)
    trial_results = []
    for _ in range(trials):
        a_value = rng.randrange(p)
        d_value = rng.randrange(p)
        trial_results.append(_agrees_at(g, a_value, d_value, p))
    return {
        "version": __version__,
        "n": n,
        "mode": "modular",
        "trials": trials,
        "prime": p,
        "seed": seed,
        "pass": all(trial_results),
        "bound": trials * bound_degree / p,
        "trial_results": trial_results,
    }


def specialized_nullity(n: int, k: int, delta_value: Fraction) -> int:
    """Nullity of G_n at a = (-1)^(k-1) T_k(d0), d = d0, exact over Q.

    d0 should be generic; for a generic sample the answer is the
    dimension drop forced by the k-th factor of the determinant.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    delta_value = Fraction(delta_value)
    t_k = chebyshev(k).evaluate(0, delta_value)
    a_value = t_k if k & 1 else -t_k
    return _nullity_at(gram_matrix(n), a_value, delta_value)


def random_delta(rng: random.Random) -> Fraction:
    """A random rational sample with numerator and denominator up to 10^3."""
    num = rng.randint(-1000, 1000)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 1000))


def _resample_until_two_agree(
    measure, draw, rng: random.Random, max_attempts: int
) -> tuple[int, list[Fraction]]:
    """measure(draw(rng)) at fresh samples until two values agree.

    A non-generic sample can inflate a nullity; agreement of two
    independent samples is accepted, disagreement triggers a resample,
    and more than max_attempts samples raises RuntimeError.  Returns the
    agreed value together with every sample drawn.
    """
    counts: dict[int, int] = {}
    samples: list[Fraction] = []
    for _ in range(max_attempts):
        sample = draw(rng)
        samples.append(sample)
        value = measure(sample)
        counts[value] = counts.get(value, 0) + 1
        if counts[value] == 2:
            return value, samples
    raise RuntimeError(
        f"no two of {max_attempts} samples agreed on the nullity: {counts}"
    )


def nullity_with_resample(
    n: int, k: int, rng: random.Random, max_attempts: int = 5
) -> tuple[int, list[Fraction]]:
    """Specialized nullity at fresh random samples until two of them agree."""
    return _resample_until_two_agree(
        lambda d: specialized_nullity(n, k, d), random_delta, rng, max_attempts
    )
