"""Exact linear algebra over polynomial, rational and modular coefficients.

Every determinant and rank runs on one forward elimination over F_p.
A determinant over Z[x, y] is interpolated from its values mod enough
primes at the points (u^2, v^2) of a lower set, such as the grid cut by
a total-degree bound.  A rank found mod p is returned only with an
exact certificate over Z.  No floating point enters at any stage.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul

from ._limits import require
from .polynomials import BivariatePolynomial

# The four largest primes below 2^53; large enough that a single random
# evaluation of a degree-D identity with D ~ 10^4 has error probability
# well under 2^-30, and small enough that hand checks stay printable.
MODULAR_PRIMES = (
    9007199254740881,
    9007199254740847,
    9007199254740761,
    9007199254740727,
)


# The first 13 primes as Miller-Rabin witnesses decide primality below
# this bound, psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2017; OEIS A014233); the bound itself passes them but is
# 1287836182261 * 2575672364521.
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n must lie below PRIME_TEST_LIMIT."""
    require(
        n < PRIME_TEST_LIMIT,
        f"primality is only decided below {PRIME_TEST_LIMIT}, got {n}",
    )
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


assert all(is_prime(p) for p in MODULAR_PRIMES)


class ExactMatrix:
    """Dense rectangular matrix with exact entries (any exact ring)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries
        if not entries:
            raise ValueError("matrix must have at least one row")
        width = len(entries[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows must all have the same length")

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols


def _eliminate_mod(m: list, p: int):
    """Forward Gaussian elimination mod p of the rows m, in place.

    Entries must lie in [0, p).  Columns are taken left to right and a
    column with no pivot left is skipped.  Each pivot is swapped up to
    row t, where t pivots came before it, and yielded as (its column, the
    row it came from) before the rows below it are reduced, so a caller
    can stop early.  A reduced entry below a pivot is overwritten by its
    multiplier: m[:t] ends up holding the unit lower and the upper
    triangular factors of the pivot rows restricted to the pivot columns.
    """
    t = 0
    for col in range(len(m[0]) if m else 0):
        src = next((i for i in range(t, len(m)) if m[i][col]), None)
        if src is None:
            continue
        m[t], m[src] = m[src], m[t]
        yield col, src
        tail = m[t][col + 1 :]
        inv = pow(m[t][col], -1, p)
        for row in m[t + 1 :]:
            if row[col]:
                factor = row[col] * inv % p
                row[col] = factor
                row[col + 1 :] = [
                    (x - factor * y) % p for x, y in zip(row[col + 1 :], tail)
                ]
        t += 1


def _rank_primes():
    """MODULAR_PRIMES, then every prime below them in decreasing order."""
    yield from MODULAR_PRIMES
    q = MODULAR_PRIMES[-1]
    while True:
        q -= 2
        if is_prime(q):
            yield q


def _rational_reconstruction(u: int, modulus: int, bound: int):
    """(num, den) with num = den * u mod modulus, |num|, den <= bound, or None.

    Extended Euclid stopped at the first remainder within the bound
    (Wang 1981).  When 2 * bound^2 < modulus at most one fraction fits.
    """
    r0, r1 = modulus, u % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _kernel_candidate(lifted, modulus, cols, free, ncols):
    """Integer vectors den * [-X; I] from X mod modulus, or None.

    Each kernel vector keeps one running denominator: an entry is
    reconstructed after multiplying by the denominator found so far, so
    most entries come back as integers at once.
    """
    bound = isqrt(modulus // 2)
    kernel = []
    for f, column in zip(free, lifted):
        den = 1
        parts = []
        for x in column:
            frac = _rational_reconstruction(x * den, modulus, bound)
            if frac is None:
                return None
            den *= frac[1]
            parts.append((frac[0], den))
        v = [0] * ncols
        for c, (num, part_den) in zip(cols, parts):
            v[c] = -num * (den // part_den)
        v[f] = den
        kernel.append(v)
    return kernel


def _kernel_is_exact(rows, lu, pivot_rows, cols, p) -> bool:
    """Whether A = rows has the kernel that its elimination mod p predicts.

    B = A[R, C] (pivot rows and columns) is invertible mod p, and lu[:r]
    holds its LU factors.  X = B^-1 A[R, F], F the free columns, is
    Dixon-lifted mod p^k (Dixon 1982) with those factors at every step.
    After each step rational reconstruction proposes X over Q, and the
    columns of [-X; I], cleared of denominators, are checked against
    every row of A over Z.  They are independent, so if all vanish the
    rank is at most r.  The entries of X are ratios of r-minors of
    A[R, :], each at most its Hadamard bound H, so once p^k > 2 H^2 the
    proposal is X itself, and a failed check means that the rank over Q
    exceeds r: p was unlucky.
    """
    r = len(cols)
    pivots = set(cols)
    free = [j for j in range(len(rows[0])) if j not in pivots]
    lower = [[lu[t][c] for c in cols[:t]] for t in range(r)]
    upper = [[lu[t][c] for c in cols[t + 1 :]] for t in range(r)]
    diag_inv = [pow(lu[t][cols[t]], -1, p) for t in range(r)]
    b = [[rows[i][c] for c in cols] for i in pivot_rows]
    hadamard_sq = 1
    for i in pivot_rows:
        hadamard_sq *= sum(x * x for x in rows[i])
    residues = [[rows[i][f] for i in pivot_rows] for f in free]
    lifted = [[0] * r for _ in free]
    modulus = 1
    rejected = None
    while True:
        for res, acc in zip(residues, lifted):
            # Solve B z = res mod p: L w = res, then U z = w.
            w = []
            for lrow, y in zip(lower, res):
                w.append((y - sum(map(mul, lrow, w))) % p)
            z = [0] * r
            for t in reversed(range(r)):
                z[t] = (w[t] - sum(map(mul, upper[t], z[t + 1 :]))) * diag_inv[t] % p
            for t in range(r):
                acc[t] += z[t] * modulus
                res[t] = (res[t] - sum(map(mul, b[t], z))) // p
        modulus *= p
        kernel = _kernel_candidate(lifted, modulus, cols, free, len(rows[0]))
        if kernel is not None and kernel != rejected:
            if all(sum(map(mul, row, v)) == 0 for v in kernel for row in rows):
                return True
            rejected = kernel
        if modulus > 2 * hadamard_sq:
            return False


def _integer_rank(rows: list) -> int:
    """Rank over Q of an integer matrix, certified.

    Elimination mod p gives a rank r that is never above the rank over Q.
    Unless r is min(nrows, ncols), it is returned only after an exact
    kernel of dimension ncols - r has been checked over Z.  Otherwise the
    next prime is tried; only finitely many primes are unlucky.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for p in _rank_primes():
        m = [[x % p for x in row] for row in rows]
        order = list(range(nrows))
        cols = []
        for col, src in _eliminate_mod(m, p):
            t = len(cols)
            order[t], order[src] = order[src], order[t]
            cols.append(col)
        rank = len(cols)
        if rank == min(nrows, ncols) or _kernel_is_exact(
            rows, m, order[:rank], cols, p
        ):
            return rank


def rank_exact(matrix: ExactMatrix) -> int:
    """Exact rank of a matrix with Fraction (or int) entries.

    Each row is scaled to integers by the lcm of its own denominators
    (rank is unchanged by nonzero row scaling); a row of ints is scaled
    by 1.  Both nullity routes hand their specialized rows here as
    Fractions, so this is the one place where denominators are cleared.
    The rank is found mod a prime and certified over Z by an exactly
    verified kernel (see _integer_rank).
    """
    scaled = []
    for row in matrix.entries:
        mult = lcm(*(e.denominator for e in row))
        scaled.append([e.numerator * (mult // e.denominator) for e in row])
    return _integer_rank(scaled)


def _det_mod(m: list, p: int) -> int:
    """Determinant mod p of the square rows m, entries in [0, p); m is overwritten."""
    det = 1
    pivots = 0
    for col, src in _eliminate_mod(m, p):
        if col != pivots:
            return 0  # column `pivots` has no pivot
        if src != col:
            det = -det
        det = det * m[col][col] % p
        pivots += 1
    return det if pivots == len(m) else 0


def det_modular(matrix: ExactMatrix, p: int) -> int:
    """Determinant of an integer matrix mod p by Gaussian elimination.

    Requires p prime (checked); returns a value in [0, p).
    """
    if not matrix.is_square():
        raise ValueError("determinant needs a square matrix")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _det_mod([[int(e) % p for e in row] for row in matrix.entries], p)


def _newton_mod(values: list, nodes, p: int) -> list:
    """Newton coefficients mod p of the polynomial taking values[k] at nodes[k].

    The k-th is the divided difference on nodes[:k + 1], so a prefix of
    the values gives the same prefix of the coefficients, whatever the
    degree of the polynomial the values come from.
    """
    c = list(values)
    for k in range(1, len(c)):
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * pow(nodes[i] - nodes[i - k], -1, p) % p
    return c


def _expand_mod(newton: list, nodes, p: int) -> list:
    """Coefficients mod p, lowest first, of a Newton form, by Horner's rule.

    The form is the sum of newton[i] * (x - nodes[0]) ... (x - nodes[i - 1]).
    """
    poly = [newton[-1]]
    for i in range(len(newton) - 2, -1, -1):
        # poly * (x - nodes[i]) + newton[i]
        poly = [(lo - nodes[i] * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + newton[i]) % p
    return poly


def det_interpolated(evaluate, staircase, bound: int) -> BivariatePolynomial:
    """A determinant f(x, y) over Z[x, y], by evaluation mod p on a lower set.

    evaluate(u, v, p) returns the rows mod p of a square matrix with
    determinant f(u^2, v^2).  Every term x^i y^j of f must have
    j <= staircase[i], a non-increasing list, and a coefficient at most
    bound in absolute value.  Mod each prime the matrix is eliminated at
    the sum of staircase[i] + 1 points (x, y) = (u^2, v^2) of that lower
    set.  At the v-th y-node the divided differences in x run over the
    x-nodes u <= tops[v], the last i with staircase[i] >= v: on a prefix
    of the nodes they are the exact Newton coefficients c_i(y) of f,
    whatever its degree in x.  Each c_i(y) has degree at most
    staircase[i] and is interpolated from that many values plus one;
    then the Newton form in x is expanded.  Primes from _rank_primes are
    taken until their product exceeds 2 * bound; the coefficients are
    combined by the Chinese remainder theorem and lifted to the symmetric
    range (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5).
    The result carries x as its a variable and y as its d variable.
    """
    require(
        len(staircase) > 0
        and staircase[-1] >= 0
        and all(s >= t for s, t in zip(staircase, staircase[1:])),
        f"staircase must be non-empty, non-increasing and >= 0, got {staircase}",
    )
    tops = [sum(s >= j for s in staircase) - 1 for j in range(staircase[0] + 1)]
    x_nodes = [u * u for u in range(len(staircase))]
    y_nodes = [v * v for v in range(len(tops))]
    coeffs = [[0] * (s + 1) for s in staircase]
    modulus = 1
    primes = _rank_primes()
    while modulus <= 2 * bound:
        p = next(primes)
        in_x = [
            _newton_mod(
                [_det_mod(evaluate(u, v, p), p) for u in range(top + 1)], x_nodes, p
            )
            for v, top in enumerate(tops)
        ]
        in_y = [
            _expand_mod(
                _newton_mod([c[i] for c in in_x[: s + 1]], y_nodes, p), y_nodes, p
            )
            for i, s in enumerate(staircase)
        ]
        step = pow(modulus, -1, p)
        for j, top in enumerate(tops):
            column = _expand_mod([c[j] for c in in_y[: top + 1]], x_nodes, p)
            for row, c in zip(coeffs, column):
                row[j] += modulus * ((c - row[j]) * step % p)
        modulus *= p
    half = modulus // 2
    return BivariatePolynomial({
        (i, j): c - modulus if c > half else c
        for i, row in enumerate(coeffs)
        for j, c in enumerate(row)
    })
