"""Exact determinants and ranks against independent oracles."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, lcm, prod

import pytest

from tlbgram.gram import gram_matrix, random_delta, specialized_nullity
from tlbgram.linalg import (
    MODULAR_PRIMES,
    ExactMatrix,
    PRIME_TEST_LIMIT,
    _integer_rank,
    det_interpolated,
    det_modular,
    is_prime,
    rank_exact,
)
from tlbgram.polynomials import BivariatePolynomial, chebyshev
from tlbgram.tl import random_bracket_sample, skein_matrix, skein_nullity

A = BivariatePolynomial.var_a()
D = BivariatePolynomial.var_d()


def det_by_cofactor(rows):
    """Leibniz/cofactor oracle; fine for tiny matrices."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term * sign
        total = term if total is None else total + term
    return total


def staircase_of(polys):
    """The staircase that det_interpolated needs for a matrix over Z[x, y].

    The row sums of the largest entry degrees bound the determinant's
    degree in x, in y and in total.
    """
    def row_sum(degree):
        return sum(
            max((degree(*e) for poly in row for e in poly.terms), default=0)
            for row in polys
        )

    deg_x = row_sum(lambda i, j: i)
    deg_y = row_sum(lambda i, j: j)
    total = row_sum(lambda i, j: i + j)
    return [min(deg_y, total - i) for i in range(deg_x + 1)]


def det_by_interpolation(rows, bound=None, evaluate=None):
    """det_interpolated on rows of int or BivariatePolynomial entries.

    The nodes are squares, so the matrix is evaluated at x = u^2, y = v^2.
    Coefficients are bounded by the product of the rows' coefficient
    1-norms unless bound is given.
    """
    polys = [[BivariatePolynomial.constant(0) + e for e in row] for row in rows]
    if bound is None:
        bound = prod(
            sum(abs(c) for e in row for c in e.terms.values()) for row in polys
        )
    if evaluate is None:
        def evaluate(u, v, p):
            return [[e.evaluate_mod(u * u, v * v, p) for e in row] for row in polys]

    return det_interpolated(evaluate, staircase_of(polys), bound)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == 6
    assert not m.is_square()


def test_det_frozen_examples():
    assert det_by_interpolation([[D, A], [A, D]]) == D * D - A * A
    eye4 = [[int(i == j) for j in range(4)] for i in range(4)]
    assert det_by_interpolation(eye4) == 1
    # x^2 y - 3 is negative at most grid points: the lift is symmetric
    assert det_by_interpolation([[A * A * D - 3]]) == A * A * D - 3


def test_det_matches_cofactor_on_random_integer_matrices():
    rng = random.Random(201)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [
            [BivariatePolynomial.constant(rng.randint(-9, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_by_interpolation(rows) == det_by_cofactor(rows)


def test_det_matches_cofactor_on_random_polynomial_matrices():
    rng = random.Random(202)
    for _ in range(12):
        n = rng.randint(2, 3)
        rows = [
            [
                BivariatePolynomial(
                    {
                        (rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-4, 4)
                        for _ in range(2)
                    }
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert det_by_interpolation(rows) == det_by_cofactor(rows)


def test_det_singular_and_pivoting():
    # zero leading entry forces a row swap
    assert det_by_interpolation([[0, 1], [1, 0]]) == BivariatePolynomial.constant(-1)
    assert det_by_interpolation([[D, D], [D, D]]) == 0
    assert det_by_interpolation([[D, A], [A * D, A * A]]) == 0
    # a zero matrix has the coefficient bound 0, which needs no prime at
    # all; with a bound it is eliminated at every grid point
    zero = [[0, 0], [0, 0]]
    assert det_by_interpolation(zero) == 0
    assert det_by_interpolation(zero, bound=1) == 0
    assert det_by_interpolation([[0 * D, 0 * A], [A, D]], bound=1) == 0


def random_symmetric(rng, n, zero_share):
    """A random symmetric n x n matrix of small polynomials."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < zero_share:
                entry = BivariatePolynomial.zero()
            else:
                entry = BivariatePolynomial(
                    {
                        (rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-3, 3)
                        for _ in range(2)
                    }
                )
            rows[i][j] = rows[j][i] = entry
    return rows


def test_det_matches_cofactor_on_random_symmetric_polynomial_matrices():
    rng = random.Random(212)
    for zero_share in (0.0, 0.6):
        for _ in range(12):
            rows = random_symmetric(rng, rng.randint(1, 5), zero_share)
            size = len(rows)
            assert all(rows[i][j] == rows[j][i] for i in range(size) for j in range(i))
            assert det_by_interpolation(rows) == det_by_cofactor(rows)


def test_det_of_symmetric_matrices_with_row_swaps():
    zero = BivariatePolynomial.zero()
    # swap at step 0: [[0, 1], [1, 0]] padded with a block [[d, a], [a, d]]
    swap_first = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, D, A], [0, 0, A, D]]
    swap_first = [[zero + e for e in row] for row in swap_first]
    assert det_by_interpolation(swap_first) == A * A - D * D
    # swap at step 1: the 2x2 leading minor vanishes
    swap_later = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
    assert det_by_interpolation(swap_later) == -1
    scaled = [[D * e for e in row] for row in swap_later]
    assert det_by_interpolation(scaled) == -(D**3)
    # swap at step 2: the 3x3 leading minor vanishes
    four = [[2, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 2]]
    assert det_by_interpolation(four) == 4
    for rows in (swap_first, swap_later, scaled, four):
        size = len(rows)
        assert all(rows[i][j] == rows[j][i] for i in range(size) for j in range(i))
        polys = [[zero + e for e in row] for row in rows]
        assert det_by_interpolation(rows) == det_by_cofactor(polys)


def test_det_lifts_over_several_primes():
    # Coefficient bounds of about 2^185 and 2^245 need four and five
    # 53-bit primes, so the Chinese remainder lift runs past the fixed
    # list into the primes that _rank_primes finds below it.
    rng = random.Random(214)
    for bits in (60, 80):
        rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(3)] for _ in range(3)]
        polys = [[BivariatePolynomial.constant(e) for e in row] for row in rows]
        assert det_by_interpolation(rows) == det_by_cofactor(polys)
    big = 2**70
    rows = [[D * big + 1, A - big], [A * big, D * D * 3 + A * big]]
    assert det_by_interpolation(rows) == det_by_cofactor(rows)


def test_det_fills_every_corner_of_a_non_rectangular_staircase():
    rows = [[A * A * 2 - D * D * 3, A + 7], [A - 1, A + D * 5]]
    polys = [[BivariatePolynomial.constant(0) + e for e in row] for row in rows]
    staircase = staircase_of(polys)
    assert staircase == [3, 2, 1, 0]
    det = det_by_interpolation(rows)
    assert det == det_by_cofactor(polys)
    # 2x^3 + 10x^2 y - 3x y^2 - 15y^3 - x^2 - 6x + 7
    assert all(det.terms.get((i, s), 0) != 0 for i, s in enumerate(staircase))


def test_det_evaluates_once_per_staircase_point_and_prime():
    big = 2**70
    rows = [[D * big + 1, A - big], [A * big, D * D * 3 + A * big]]
    polys = [[BivariatePolynomial.constant(0) + e for e in row] for row in rows]
    points = sum(s + 1 for s in staircase_of(polys))
    seen = []

    def evaluate(u, v, p):
        seen.append((u, v, p))
        return [[e.evaluate_mod(u * u, v * v, p) for e in row] for row in polys]

    assert det_by_interpolation(rows, evaluate=evaluate) == det_by_cofactor(rows)
    primes = {p for _, _, p in seen}
    assert len(primes) > 1
    assert len(seen) == len(set(seen)) == points * len(primes)


def test_det_refuses_a_staircase_that_is_not_a_lower_set():
    def evaluate(u, v, p):
        return [[1]]

    for staircase in ([], [1, 2], [2, -1]):
        with pytest.raises(ValueError):
            det_interpolated(evaluate, staircase, 1)


def test_det_alternating_multilinearity_spot_check():
    rng = random.Random(203)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        assert det_by_interpolation(rows) == -det_by_interpolation(swapped)


def test_rank_frozen_examples():
    assert rank_exact(ExactMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rank_exact(ExactMatrix.from_rows([[0] * 3] * 3)) == 0
    eye = ExactMatrix.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    assert rank_exact(eye) == 4


def test_rank_of_constructed_rank_two_matrix():
    rng = random.Random(204)
    for _ in range(10):
        r1 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        r2 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        # two independent rows, each duplicated with a scalar
        rows = [r1, r2, [3 * x for x in r1], [Fraction(-1, 2) * x for x in r2]]
        m = ExactMatrix.from_rows(rows)
        expected = rank_exact(ExactMatrix.from_rows([r1, r2]))
        if expected == 2:  # regenerate-free: almost always independent
            assert rank_exact(m) == 2


def rank_by_gauss(rows):
    """Plain rational Gaussian elimination, the independent rank oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_by_bareiss(rows):
    """Fraction-free Bareiss elimination over Z with full pivoting, a
    second rank oracle that shares no arithmetic with the modular rank."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    prev = 1
    while rank < nr and rank < nc:
        pr = pc = -1
        for i in range(rank, nr):
            for j in range(rank, nc):
                if m[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        m[rank], m[pr] = m[pr], m[rank]
        if pc != rank:
            for row in m:
                row[rank], row[pc] = row[pc], row[rank]
        pivot = m[rank][rank]
        for i in range(rank + 1, nr):
            head = m[i][rank]
            for j in range(rank + 1, nc):
                m[i][j] = (pivot * m[i][j] - head * m[rank][j]) // prev
            m[i][rank] = 0
        prev = pivot
        rank += 1
    return rank


def scaled_rows(matrix):
    """Each row of a Fraction matrix times the lcm of its denominators."""
    out = []
    for row in matrix.entries:
        fracs = [Fraction(e) for e in row]
        mult = lcm(*(f.denominator for f in fracs))
        out.append([int(f * mult) for f in fracs])
    return out


def test_rank_matches_gauss_oracle():
    rng = random.Random(205)
    for _ in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(nc)]
            for _ in range(nr)
        ]
        assert rank_exact(ExactMatrix.from_rows(rows)) == rank_by_gauss(rows)


def test_det_modular_frozen_examples():
    assert det_modular(ExactMatrix.from_rows([[2, 0], [0, 3]]), 7) == 6
    eye = ExactMatrix.from_rows([[int(i == j) for j in range(5)] for i in range(5)])
    for p in (7, MODULAR_PRIMES[0]):
        assert det_modular(eye, p) == 1
    assert det_modular(ExactMatrix.from_rows([[7, 0], [0, 1]]), 7) == 0
    # a zero leading entry forces a row swap, which flips the sign
    assert det_modular(ExactMatrix.from_rows([[0, 1], [1, 0]]), 7) == 6
    # no pivot in a middle column, then in the last column
    assert det_modular(ExactMatrix.from_rows([[1, 1, 1], [2, 2, 3], [0, 0, 1]]), 7) == 0
    assert det_modular(ExactMatrix.from_rows([[1, 2], [2, 4]]), 7) == 0


def test_det_modular_rejects_composite():
    with pytest.raises(ValueError):
        det_modular(ExactMatrix.from_rows([[1]]), 10)


def test_det_modular_matches_fraction_free():
    # the exact integer determinant, interpolated over enough primes
    rng = random.Random(206)
    p = MODULAR_PRIMES[1]
    for _ in range(15):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        value = det_by_interpolation(rows).terms.get((0, 0), 0)
        assert det_modular(ExactMatrix.from_rows(rows), p) == value % p


def test_prime_test_against_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_prime_test_larger_values():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**32 + 1)  # 641 * 6700417
    assert not is_prime(341550071728321)  # strong pseudoprime to low bases
    assert is_prime(2**61 - 1)


def test_prime_test_rejects_the_twelve_base_pseudoprime():
    # psi_12 passes the witnesses 2..37 and has no factor below 41
    psi_12 = 399165290221 * 798330580441
    assert psi_12 == 318665857834031151167461
    assert not is_prime(psi_12)


def test_prime_test_refuses_its_first_unproven_value():
    # the first 13 prime witnesses all pass this composite
    assert PRIME_TEST_LIMIT == 1287836182261 * 2575672364521
    assert not is_prime(PRIME_TEST_LIMIT - 1)
    for n in (PRIME_TEST_LIMIT, PRIME_TEST_LIMIT + 2, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_modular_primes_are_prime_and_sized():
    assert len(set(MODULAR_PRIMES)) == 4
    for p in MODULAR_PRIMES:
        assert is_prime(p)
        assert p < 2**53
        assert p > 2**52
    assert list(MODULAR_PRIMES) == sorted(MODULAR_PRIMES, reverse=True)


def test_modular_primes_are_the_four_largest_below_2_to_53():
    # every number above the list and between its entries is composite
    upper = 2**53
    for lo, hi in zip(MODULAR_PRIMES, (upper,) + MODULAR_PRIMES[:-1]):
        assert all(not is_prime(x) for x in range(lo + 1, hi))


def test_rank_certificate_survives_unlucky_primes():
    p0, p1, p2, p3 = MODULAR_PRIMES
    # rank 1 mod p0; the kernel predicted mod p0 fails over Z
    assert _integer_rank([[p0, 0], [0, 1]]) == 2
    # every fixed prime is unlucky, so the next prime below them decides
    assert _integer_rank([[p0 * p1 * p2 * p3, 0], [0, 1]]) == 2
    # deficient over Q and unlucky mod p0: rank 1 there, 2 over Q
    assert _integer_rank([[p0, 0, 0], [0, 1, 1], [0, 1, 1]]) == 2
    assert _integer_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert _integer_rank([[p0, 2 * p0], [3 * p0, 6 * p0]]) == 1


def test_rank_of_random_low_rank_products_with_large_entries():
    rng = random.Random(207)
    for _ in range(30):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        k = rng.randint(1, min(nr, nc))
        u = [[rng.getrandbits(100) - 2**99 for _ in range(k)] for _ in range(nr)]
        v = [[rng.getrandbits(100) - 2**99 for _ in range(nc)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(ui, col)) for col in zip(*v)] for ui in u]
        assert _integer_rank(rows) == rank_by_gauss(rows) == k


def gram_at(n, a_value, d_value):
    """The Gram matrix of size n evaluated entry by entry over Fraction."""
    a_value, d_value = Fraction(a_value), Fraction(d_value)
    return ExactMatrix.from_rows(
        [
            [a_value**v.nontrivial * d_value**v.trivial for v in row]
            for row in gram_matrix(n).pairings
        ]
    )


def skein_at(n, k, a_sample):
    """The skein matrix evaluated entry by entry at a bracket value."""
    entries = skein_matrix(n, k).entries.entries
    return ExactMatrix.from_rows([[e.evaluate(a_sample) for e in row] for row in entries])


def test_rank_of_gram_and_skein_matrices_matches_bareiss():
    rng = random.Random(208)
    n, k = 4, 2
    delta = random_delta(rng)
    t_k = chebyshev(k).evaluate(0, delta)
    gram_rows = scaled_rows(gram_at(n, -t_k, delta))
    skein_rows = scaled_rows(skein_at(n, k, random_bracket_sample(rng)))
    for rows in (gram_rows, skein_rows):
        assert _integer_rank(rows) == rank_by_bareiss(rows) == 70 - comb(8, 2)


# Cases of the two nullity oracles below: every k for n <= 3, and k = 2
# at n = 4.  Even k puts a minus sign on T_k(d0); each case is sampled
# once with a positive and once with a negative d0 or A.
ORACLE_CASES = [(n, k) for n in (1, 2, 3) for k in range(1, n + 1)] + [(4, 2)]


def test_gram_nullity_matches_gauss_on_fraction_matrix():
    rng = random.Random(210)
    for n, k in ORACLE_CASES:
        for sign in (1, -1):
            d0 = sign * abs(random_delta(rng))
            t_k = chebyshev(k).evaluate(0, d0)
            a_value = t_k if k & 1 else -t_k
            expected = comb(2 * n, n) - rank_by_gauss(gram_at(n, a_value, d0).entries)
            assert specialized_nullity(n, k, d0) == expected, (n, k, d0)


def test_skein_nullity_matches_gauss_on_evaluated_skein_matrix():
    rng = random.Random(211)
    for n, k in ORACLE_CASES:
        for sign in (1, -1):
            a0 = sign * abs(random_bracket_sample(rng))
            expected = comb(2 * n, n) - rank_by_gauss(skein_at(n, k, a0).entries)
            assert skein_nullity(n, k, a0) == expected, (n, k, a0)


@pytest.mark.slow
def test_gram_nullity_at_n5_matches_binomial():
    rng = random.Random(209)
    for k in (4, 5):
        assert specialized_nullity(5, k, random_delta(rng)) == comb(10, 5 - k)


def test_input_checks_survive_python_O():
    script = """
from tlbgram.annular import diagram_from_marks
from tlbgram.disk import (
    DiskDiagram, enumerate_disk, noncrossing_matchings, telescoping_sides,
    tilde_count_formula,
)
from tlbgram.gram import determinant_product_value_mod, verify_determinant
from tlbgram.linalg import PRIME_TEST_LIMIT, ExactMatrix, det_modular, is_prime
from tlbgram.polynomials import (
    BivariatePolynomial, LaurentScalar, _poly_divexact, chebyshev,
    chebyshev_in_bracket,
)
from tlbgram.tl import (
    TLElement, cup_cap_matching, identity_matching, projector_pairing_value,
    quantum_dimension,
)
wide = ExactMatrix.from_rows([[1, 2]])
bad = [
    lambda: ExactMatrix.from_rows([[1, 2], [3]]),
    lambda: det_modular(wide, 7),
    lambda: is_prime(PRIME_TEST_LIMIT),
    lambda: enumerate_disk(0, 1),
    lambda: tilde_count_formula(2, -1),
    lambda: telescoping_sides(0),
    lambda: DiskDiagram(1, 0, ((0, 1), (1, 2))),
    lambda: noncrossing_matchings(3),
    lambda: cup_cap_matching(0, 2),
    lambda: quantum_dimension(-2),
    lambda: projector_pairing_value(-1, 0, 0),
    lambda: chebyshev(-1),
    lambda: chebyshev_in_bracket(-1),
    lambda: determinant_product_value_mod(0, 1, 1, 7),
    lambda: verify_determinant(1, prime=7),
    lambda: verify_determinant(1, trials=0),
    lambda: verify_determinant(1, seed=5),
    lambda: TLElement(2, {identity_matching(1): LaurentScalar.constant(1)}),
    lambda: TLElement.identity(1) * TLElement.identity(2),
    lambda: _poly_divexact([1, 0, 1], [1, 1]),
    lambda: LaurentScalar.monomial(2).evaluate(0),
    lambda: LaurentScalar.constant(2) ** -1,
    lambda: BivariatePolynomial.constant(2) ** -1,
    lambda: BivariatePolynomial({(-1, 0): 1}),
    lambda: diagram_from_marks(1, {1, 2}),
    lambda: diagram_from_marks(2, {1, 7}),
    lambda: diagram_from_marks(2, {1}),
]
for call in bad:
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
