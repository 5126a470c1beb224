"""The Gram matrix of the annular basis and its determinant identity.

The bilinear form assigns each pair of basis diagrams a monomial
a^m d^t.  The determinant of the full matrix factors as

    prod_{i=1..n} (T_i(d)^2 - a^2)^C(2n, n-i)

with T_i the normalized Chebyshev polynomials.  This module builds the
matrix, expands the product, and compares the two either symbolically
(the determinant interpolated from its values mod p) or modulo a large
prime at random points.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from . import __version__
from ._limits import guard, require
from .annular import (
    AnnularDiagram,
    PairingValue,
    enumerate_diagrams,
    pair,
    rotation_permutation,
)
from .linalg import (
    MODULAR_PRIMES,
    ExactMatrix,
    det_interpolated,
    det_modular,
    is_prime,
    rank_exact,
)
from .polynomials import BivariatePolynomial, chebyshev


class GramMatrix:
    """Basis diagrams plus the pairing of every two of them.

    Entry (i, j) is the monomial a^m d^t of pairings[i][j], built when
    entries is first read.
    """

    def __init__(
        self,
        n: int,
        basis: tuple[AnnularDiagram, ...],
        pairings: tuple[tuple[PairingValue, ...], ...],
    ):
        self.n = n
        self.basis = basis
        self.pairings = pairings

    @cached_property
    def entries(self) -> ExactMatrix:
        return ExactMatrix.from_rows(
            [[v.as_polynomial() for v in row] for row in self.pairings]
        )

    def size(self) -> int:
        return len(self.basis)

    def evaluate_mod(self, a_value: int, d_value: int, p: int) -> list[list[int]]:
        """The entries at a = a_value, d = d_value, reduced mod p."""
        return _tabulate(
            self.n,
            self.pairings,
            lambda m, t: pow(a_value, m, p) * pow(d_value, t, p) % p,
        )


def _tabulate(n: int, pairings, value) -> list[list]:
    """value(m, t) for every pairing a^m d^t, computed once per (m, t).

    A loop of a pairing passes through at least two of the 2n points,
    so m + t <= n and an (n+1) x (n+1) table covers every entry.
    """
    span = range(n + 1)
    table = [[value(m, t) for t in span] for m in span]
    return [[table[v.nontrivial][v.trivial] for v in row] for row in pairings]


@lru_cache(maxsize=None)
def _pairing_table(n: int):
    """The basis and the pairing of every two of its diagrams.

    Turning the 2n points one step permutes the basis and keeps every
    pairing, so the row of R(i) is the row of i with its columns moved
    by R.  One row per rotation orbit is paired; the rest are copies.
    Both the Gram matrix and the skein matrix read this one table.
    """
    basis = enumerate_diagrams(n)
    turn = rotation_permutation(n)
    # back[turn[j]] == j: column k of the turned row is column back[k]
    back = sorted(range(len(basis)), key=turn.__getitem__)
    rows: list[tuple[PairingValue, ...] | None] = [None] * len(basis)
    for start, x in enumerate(basis):
        if rows[start] is not None:
            continue
        row = tuple(pair(x, y) for y in basis)
        i = start
        while rows[i] is None:
            assert row[i] == PairingValue(0, n)
            rows[i] = row
            i = turn[i]
            row = tuple(map(row.__getitem__, back))
    return basis, tuple(rows)


@lru_cache(maxsize=None)
def gram_matrix(n: int) -> GramMatrix:
    """The pairing of every two basis diagrams: symmetric, d^n on the diagonal."""
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 5, f"gram_matrix tested for 1 <= n <= 5, got n={n}")
    return GramMatrix(n, *_pairing_table(n))


def _nullity_at(n: int, pairings, a_value: Fraction, d_value: Fraction) -> int:
    """Nullity over Q of the pairings at a = a_value, d = d_value.

    rank_exact clears each row of its own denominators.
    """
    rows = _tabulate(n, pairings, lambda m, t: a_value**m * d_value**t)
    return len(pairings) - rank_exact(ExactMatrix.from_rows(rows))


def crossing_signs(basis) -> tuple[int, ...]:
    """(-1)^(crossing number) for each basis diagram."""
    return tuple(-1 if d.cut_crossings() & 1 else 1 for d in basis)


def sign_conjugation_check(n: int) -> bool:
    """Negating the non-trivial loop variable conjugates by the sign matrix.

    Checks entrywise that the a -> -a image of every pairing equals
    sign_i * sign_j times the pairing.  The image of a^m d^t is
    (-1)^m a^m d^t, so this reads m = c_i + c_j (mod 2) for the crossing
    numbers c, checked on the exponents.
    """
    g = gram_matrix(n)
    signs = crossing_signs(g.basis)
    return all(
        (v.nontrivial & 1 == 0) == (s_i == s_j)
        for s_i, row in zip(signs, g.pairings)
        for v, s_j in zip(row, signs)
    )


def d_parity_check(n: int) -> bool:
    """Negating the trivial loop variable conjugates by signs, up to (-1)^n.

    With e_j = t_0j - n mod 2 read off row 0, checks that every pairing
    a^m d^t of i and j has t = n + e_i + e_j (mod 2).  Then
    G(a, -d) = (-1)^n S G S with S = diag((-1)^e), so det G is even in d:
    N = C(2n, n) is even and (-1)^(nN) = 1.
    """
    g = gram_matrix(n)
    e = [(v.trivial - n) & 1 for v in g.pairings[0]]
    return all(
        (v.trivial - n - e_i - e_j) & 1 == 0
        for e_i, row in zip(e, g.pairings)
        for v, e_j in zip(row, e)
    )


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


def _determinant(n: int) -> BivariatePolynomial:
    """det G_n over Z[a, d], interpolated mod p from the pairing exponents.

    Lemma 2 (sign_conjugation_check) makes det G even in a and
    d_parity_check makes it even in d, so det G = f(a^2, d^2), and G at
    a = u, d = v has determinant f(u^2, v^2).  Row i of G has degree at
    most max_j m_ij in a, max_j t_ij in d and max_j (m_ij + t_ij) in
    total, so the row sums bound the degrees of det G: 44, 60 and 60 at
    n = 3.  Halved, they bound f to the 460 terms x^i y^j with i <= 22,
    j <= 30 and i + j <= 30.  Every entry has modulus 1 where
    |a| = |d| = 1, so Hadamard's bound N^(N/2) caps every coefficient
    (N = C(2n, n) is even).
    """
    if not sign_conjugation_check(n):
        raise RuntimeError(f"Lemma 2 parity fails at n={n}: det G_n is not even in a")
    if not d_parity_check(n):
        raise RuntimeError(f"d parity fails at n={n}: det G_n is not even in d")
    g = gram_matrix(n)
    deg_a = sum(max(v.nontrivial for v in row) for row in g.pairings)
    deg_d = sum(max(v.trivial for v in row) for row in g.pairings)
    total = sum(max(v.nontrivial + v.trivial for v in row) for row in g.pairings)
    staircase = [min(deg_d // 2, total // 2 - i) for i in range(deg_a // 2 + 1)]
    size = g.size()
    det = det_interpolated(g.evaluate_mod, staircase, size ** (size // 2))
    return BivariatePolynomial({(2 * i, 2 * j): c for (i, j), c in det.terms.items()})


def verify_determinant(
    n: int,
    mode: str = "symbolic",
    trials: int | None = None,
    seed: int | None = None,
    prime: int | None = None,
) -> dict:
    """Compare det G_n against the Chebyshev product; returns a report dict.

    Symbolic mode expands both sides exactly; the determinant is
    interpolated from its values mod p on a lower set of grid points (see
    _determinant), and it refuses trials, a seed and a prime.  Modular
    mode samples random points mod a fixed prime (32 trials from seed 0
    unless given) and compares evaluations, reporting the
    Schwartz-Zippel style error bound trials * D / p.
    """
    if mode == "symbolic":
        require(prime is None, "a prime is only taken in modular mode")
        require(trials is None, "trials are only taken in modular mode")
        require(seed is None, "a seed is only taken in modular mode")
        guard(n <= 3, f"symbolic verification tested for n <= 3, got n={n}")
        det = _determinant(n)
        product = determinant_product_form(n)
        return {
            "version": __version__,
            "n": n,
            "mode": "symbolic",
            "trials": None,
            "prime": None,
            "seed": None,
            "pass": det == product,
            "bound": 0.0,
            "determinant": det.to_text(),
        }
    if mode != "modular":
        raise ValueError(f"mode must be 'symbolic' or 'modular', got {mode!r}")
    trials = 32 if trials is None else trials
    seed = 0 if seed is None else seed
    if trials < 1:
        raise ValueError("need at least one trial")
    p = MODULAR_PRIMES[0] if prime is None else prime
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bound_degree = degree_bound(n)
    if p <= bound_degree:
        raise ValueError("prime too small for the degree bound")
    g = gram_matrix(n)
    rng = random.Random(seed)
    trial_results = []
    for _ in range(trials):
        a_value = rng.randrange(p)
        d_value = rng.randrange(p)
        det = det_modular(
            ExactMatrix.from_rows(g.evaluate_mod(a_value, d_value, p)), p
        )
        trial_results.append(det == determinant_product_value_mod(n, a_value, d_value, p))
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
    return _nullity_at(n, gram_matrix(n).pairings, a_value, delta_value)


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
