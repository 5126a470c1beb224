"""The determinant identity of the Gram matrix.

The determinant of the Gram matrix of the annular basis factors as

    prod_{i=1..n} (T_i(d)^2 - a^2)^C(2n, n-i)

with T_i the normalized Chebyshev polynomials.  This module expands
the product and compares the two at points mod p: at random points
under one large prime, or at every node of a lower set under enough
primes to prove them equal.  det G mod p is read off the character
blocks of the rotation group, from the orbit rows of the pairing
table.  The matrix and both parity checks are looked up on `gram` when
called, so a table set in place of `gram.gram_matrix` reaches every
check.  Only the symbolic proof and expansion load `polynomials`.
verify_determinant's report has no "version" header: cli.main alone
writes it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import comb, prod
from operator import mul

from . import gram
from ._intpoly import _chebyshev_values
from ._limits import guard, require
from .annular import PairingRows
from .linalg import _det_mod, _primes, is_prime


def determinant_product_form(n: int) -> BivariatePolynomial:
    """Expanded product prod_i (T_i(d)^2 - a^2)^C(2n, n-i)."""
    from .polynomials import BivariatePolynomial, chebyshev

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
    a_sq = a_value * a_value % p
    result = 1
    for i, t_i in enumerate(_chebyshev_values(n, d_value % p)[1:], 1):
        factor = (t_i * t_i - a_sq) % p
        result = result * pow(factor, comb(2 * n, n - i), p) % p
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


def _character_det_mod(g: gram.GramMatrix, a_value: int, d_value: int, p: int) -> int:
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


def _agrees_at(g: gram.GramMatrix, a_value: int, d_value: int, p: int) -> bool:
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
    from .polynomials import chebyshev

    if not gram.sign_conjugation_check(n):
        raise RuntimeError(f"Lemma 2 parity fails at n={n}: det G_n is not even in a")
    if not gram.d_parity_check(n):
        raise RuntimeError(f"d parity fails at n={n}: det G_n is not even in d")
    g = gram.gram_matrix(n)
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
    if mode not in ("symbolic", "modular"):
        raise ValueError(f"mode must be 'symbolic' or 'modular', got {mode!r}")
    if mode == "symbolic":
        require(prime is None, "a prime is only taken in modular mode")
        require(trials is None, "trials are only taken in modular mode")
        require(seed is None, "a seed is only taken in modular mode")
        guard(n <= 3, f"symbolic verification tested for n <= 3, got n={n}")
        ok = _product_is_determinant(n)
        bound = 0.0
        own = {"determinant": determinant_product_form(n).to_text() if ok else None}
    else:
        trials = 32 if trials is None else trials
        seed = 0 if seed is None else seed
        if trials < 1:
            raise ValueError("need at least one trial")
        guard(
            trials <= 1000, f"det-verify tested for trials <= 1000, got trials={trials}"
        )
        # the size checks, before the prime search and the degree bound
        g = gram.gram_matrix(n)
        prime = next(_primes(2 * n)) if prime is None else prime
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        bound_degree = degree_bound(n)
        if prime <= bound_degree:
            raise ValueError("prime too small for the degree bound")
        from random import Random

        rng = Random(seed)
        trial_results = []
        for _ in range(trials):
            a_value = rng.randrange(prime)
            d_value = rng.randrange(prime)
            trial_results.append(_agrees_at(g, a_value, d_value, prime))
        ok = all(trial_results)
        bound = trials * bound_degree / prime
        own = {"trial_results": trial_results}
    return {
        "n": n,
        "mode": mode,
        "trials": trials,
        "prime": prime,
        "seed": seed,
        "pass": ok,
        "bound": bound,
        **own,
    }
