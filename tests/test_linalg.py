"""Exact determinants and ranks against independent oracles."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice, permutations
from math import comb, lcm

import pytest

from tlbgram.determinant import verify_determinant
from tlbgram.gram import (
    gram_matrix,
    random_delta,
    specialized_nullity,
)
from tlbgram.linalg import (
    ExactMatrix,
    PRIME_TEST_LIMIT,
    _det_mod,
    _integer_rank,
    _primes,
    is_prime,
    rank_exact,
)
from tlbgram.polynomials import BivariatePolynomial, chebyshev
from tlbgram.tl import random_bracket_sample, skein_matrix, skein_nullity
from test_polynomials import poly_mod

A = BivariatePolynomial.monomial(1, 0)
D = BivariatePolynomial.var_d()
# The four largest primes below 2^53, the first that _primes(2) yields
# (test_primes_are_those_1_mod_m_below_2_to_53_largest_first).
MODULAR_PRIMES = (
    9007199254740881,
    9007199254740847,
    9007199254740761,
    9007199254740727,
)
P = MODULAR_PRIMES[0]


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


def det_mod_of(rows, p=P):
    """_det_mod of integer rows, each entry reduced into [0, p) first."""
    return _det_mod([[x % p for x in row] for row in rows], p)


def det_mod_at(rows, a_value, d_value, p=P):
    """_det_mod of rows of int or BivariatePolynomial entries at a point."""
    zero = BivariatePolynomial.zero()
    return _det_mod(
        [[poly_mod(zero + e, a_value, d_value, p) for e in row] for row in rows], p
    )


def matches_cofactor_at_points(rows, rng, points=3, p=P):
    """Whether _det_mod agrees with the cofactor expansion at random points."""
    det = BivariatePolynomial.zero() + det_by_cofactor(rows)
    for _ in range(points):
        a_value, d_value = rng.randrange(p), rng.randrange(p)
        if det_mod_at(rows, a_value, d_value, p) != poly_mod(det, a_value, d_value, p):
            return False
    return True


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.entries == ((1, 2, 3), (4, 5, 6))
    assert m[1, 2] == 6


def test_det_frozen_examples():
    rng = random.Random(200)
    for _ in range(5):
        a_value, d_value = rng.randrange(P), rng.randrange(P)
        expected = (d_value * d_value - a_value * a_value) % P
        assert det_mod_at([[D, A], [A, D]], a_value, d_value) == expected
    eye4 = [[int(i == j) for j in range(4)] for i in range(4)]
    assert det_mod_of(eye4) == 1
    # a negative entry is taken to its residue
    assert det_mod_of([[-3]]) == P - 3


def test_det_matches_cofactor_on_random_integer_matrices():
    rng = random.Random(201)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_mod_of(rows) == det_by_cofactor(rows) % P


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
        assert matches_cofactor_at_points(rows, rng)


def test_det_singular_and_pivoting():
    # zero leading entry forces a row swap
    assert det_mod_of([[0, 1], [1, 0]]) == P - 1
    rng = random.Random(213)
    for _ in range(3):
        a_value, d_value = rng.randrange(P), rng.randrange(P)
        for rows in (
            [[D, D], [D, D]],
            [[D, A], [A * D, A * A]],
            [[0, 0], [0, 0]],
            [[0, 0], [A, D]],
        ):
            assert det_mod_at(rows, a_value, d_value) == 0


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
            assert matches_cofactor_at_points(rows, rng)


def test_det_of_symmetric_matrices_with_row_swaps():
    rng = random.Random(215)
    # swap at step 0: [[0, 1], [1, 0]] padded with a block [[d, a], [a, d]]
    swap_first = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, D, A], [0, 0, A, D]]
    # swap at step 1: the 2x2 leading minor vanishes
    swap_later = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
    scaled = [[D * e for e in row] for row in swap_later]
    # swap at step 2: the 3x3 leading minor vanishes
    four = [[2, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 2]]
    assert det_mod_of(swap_later) == P - 1
    assert det_mod_of(four) == 4
    for _ in range(3):
        a_value, d_value = rng.randrange(P), rng.randrange(P)
        assert det_mod_at(swap_first, a_value, d_value) == (
            (a_value * a_value - d_value * d_value) % P
        )
        assert det_mod_at(scaled, a_value, d_value) == -pow(d_value, 3, P) % P
    for rows in (swap_first, swap_later, scaled, four):
        size = len(rows)
        assert all(rows[i][j] == rows[j][i] for i in range(size) for j in range(i))
        assert matches_cofactor_at_points(rows, rng)


def test_det_alternating_multilinearity_spot_check():
    rng = random.Random(203)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        assert det_mod_of(rows) == -det_mod_of(swapped) % P


def test_rank_frozen_examples():
    assert rank_exact([[1, 1], [1, 1]]) == 1
    assert rank_exact([[0] * 3] * 3) == 0
    assert rank_exact([[int(i == j) for j in range(4)] for i in range(4)]) == 4


def test_rank_of_constructed_rank_two_matrix():
    rng = random.Random(204)
    for _ in range(10):
        r1 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        r2 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        # two independent rows, each duplicated with a scalar
        rows = [r1, r2, [3 * x for x in r1], [Fraction(-1, 2) * x for x in r2]]
        if rank_exact(scaled_rows([r1, r2])) == 2:  # almost always independent
            assert rank_exact(scaled_rows(rows)) == 2


def test_rank_refuses_entries_that_are_not_ints():
    for rows in ([[1, Fraction(1, 2)]], [[1, 2], [3, 4.0]], [["1"]]):
        with pytest.raises(ValueError, match="int entries"):
            rank_exact(rows)


def test_rank_refuses_a_matrix_that_is_empty_or_ragged():
    for rows in ([], [[]], [[], []], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError, match="same length"):
            rank_exact(rows)


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


def scaled_rows(rows):
    """Each row of Fractions times the lcm of its denominators."""
    out = []
    for row in rows:
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
        assert rank_exact(scaled_rows(rows)) == rank_by_gauss(rows)


def test_det_modular_frozen_examples():
    assert det_mod_of([[2, 0], [0, 3]], 7) == 6
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    for p in (7, P):
        assert det_mod_of(eye, p) == 1
    assert det_mod_of([[7, 0], [0, 1]], 7) == 0
    # a zero leading entry forces a row swap, which flips the sign
    assert det_mod_of([[0, 1], [1, 0]], 7) == 6
    # no pivot in a middle column, then in the last column
    assert det_mod_of([[1, 1, 1], [2, 2, 3], [0, 0, 1]], 7) == 0
    assert det_mod_of([[1, 2], [2, 4]], 7) == 0


def test_det_modular_rejects_composite():
    # P + 2 lies between P and 2^53, so it is composite
    for composite in (10, P + 2):
        with pytest.raises(ValueError, match="not prime"):
            verify_determinant(1, mode="modular", prime=composite)


def test_det_modular_matches_fraction_free():
    rng = random.Random(206)
    p = MODULAR_PRIMES[1]
    for _ in range(15):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert det_mod_of(rows, p) == det_by_cofactor(rows) % p


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


def test_primes_are_those_1_mod_m_below_2_to_53_largest_first():
    top = 2**53
    for m in range(1, 13):
        window = range(top - 1, top - 3000, -1)
        scan = [q for q in window if q % m == 1 % m and is_prime(q)]
        assert len(scan) >= 5
        assert list(islice(_primes(m), len(scan))) == scan
    assert list(islice(_primes(2), 4)) == list(MODULAR_PRIMES)
    # the default det-verify prime of n = 1..5, the largest one that is 1 mod 2n
    p0, p1 = MODULAR_PRIMES[:2]
    assert [next(_primes(2 * n)) for n in range(1, 6)] == [p0, p0, p1, p0, p0]


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
    gram_rows = scaled_rows(gram_at(n, -t_k, delta).entries)
    skein_rows = scaled_rows(skein_at(n, k, random_bracket_sample(rng)).entries)
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


def test_gram_nullity_at_n5_matches_binomial():
    rng = random.Random(209)
    for k in (4, 5):
        assert specialized_nullity(5, k, random_delta(rng)) == comb(10, 5 - k)


def test_input_checks_survive_python_O():
    script = """
from fractions import Fraction
from tlbgram.annular import (
    AnnularDiagram, PlanarMatching, diagram_from_marks, enumerate_diagrams,
)
from tlbgram.disk import (
    diagram_to_subset, enumerate_disk, noncrossing_matchings, telescoping_sides,
    tilde_count_formula,
)
from tlbgram.determinant import determinant_product_value_mod, verify_determinant
from tlbgram.linalg import PRIME_TEST_LIMIT, ExactMatrix, is_prime, rank_exact
from tlbgram._intpoly import _poly_divexact
from tlbgram.polynomials import BivariatePolynomial, LaurentScalar, chebyshev
from tlbgram.tl import (
    TLElement, cup_cap_matching, identity_matching, projector_pairing_value,
    quantum_dimension,
)
bad = [
    lambda: ExactMatrix.from_rows([[1, 2], [3]]),
    lambda: ExactMatrix(((),)),
    lambda: AnnularDiagram(0, ()),
    lambda: AnnularDiagram(2, ((1, 2, 0), (2, 3, 0))),
    lambda: diagram_to_subset(enumerate_diagrams(2)[0], 0),
    lambda: diagram_to_subset(enumerate_diagrams(2)[0], 3),
    lambda: verify_determinant(1, mode="modular", prime=10),
    lambda: verify_determinant(3, mode="modular", prime=9007199254740881),
    lambda: is_prime(PRIME_TEST_LIMIT),
    lambda: rank_exact([[Fraction(1, 2)]]),
    lambda: rank_exact([[1, 2], [3]]),
    lambda: rank_exact([]),
    lambda: rank_exact([[]]),
    lambda: enumerate_disk(0, 1),
    lambda: tilde_count_formula(2, -1),
    lambda: telescoping_sides(0),
    lambda: PlanarMatching(2, (1, 2, 1, 0)),
    lambda: PlanarMatching(2, (2, 3, 0, 1)),
    lambda: noncrossing_matchings(3),
    lambda: cup_cap_matching(0, 2),
    lambda: quantum_dimension(-2),
    lambda: projector_pairing_value(-1, 0, 0),
    lambda: chebyshev(-1),
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
