"""Diagram algebra, projectors, encircling, and the skein-valued matrix."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from tlbgram.annular import pair
from tlbgram.gram import gram_matrix, specialized_nullity
from tlbgram.polynomials import (
    LOOP_VALUE_A,
    LaurentScalar,
    chebyshev_in_bracket,
    substitute_loop_values,
)
from tlbgram.tl import (
    PlanarMatching,
    SkeinValueMatrix,
    TLElement,
    all_matchings,
    cup_cap_matching,
    encircle,
    encircle_eigenvalue,
    identity_matching,
    jones_wenzl,
    projector_pairing_value,
    quantum_dimension,
    random_bracket_sample,
    skein_matrix,
    skein_nullity,
    skein_nullity_with_resample,
)


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def test_matching_validation():
    with pytest.raises(ValueError):
        PlanarMatching(1, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        PlanarMatching(1, (0, 0))  # fixed point
    with pytest.raises(ValueError):
        PlanarMatching(2, (2, 3, 0, 1))  # crossing


def test_matching_paren_notation():
    assert identity_matching(2).to_paren() == "(())"
    assert cup_cap_matching(1, 2).to_paren() == "()()"
    assert identity_matching(1).to_paren() == "()"


def test_all_matchings_counts():
    for k in range(1, 7):
        ms = all_matchings(k)
        assert len(ms) == catalan(k)
        assert len(set(ms)) == len(ms)


def test_generator_relations():
    # e_i^2 = delta e_i, and the braid-like absorption around a corner
    e1 = TLElement.generator(1, 2)
    assert e1 * e1 == e1.scale(LOOP_VALUE_A)
    e1_3 = TLElement.generator(1, 3)
    e2_3 = TLElement.generator(2, 3)
    assert e1_3 * e2_3 * e1_3 == e1_3
    assert e2_3 * e1_3 * e2_3 == e2_3
    for k in (2, 3, 4):
        ident = TLElement.identity(k)
        for i in range(1, k):
            e = TLElement.generator(i, k)
            assert ident * e == e
            assert e * ident == e


def test_distant_generators_commute():
    e1 = TLElement.generator(1, 4)
    e3 = TLElement.generator(3, 4)
    assert e1 * e3 == e3 * e1


def test_projector_smallest_cases():
    assert jones_wenzl(1) == TLElement.identity(1)
    # f_2 = 1 - e_1 / delta
    one = LaurentScalar.constant(1)
    e1_over_delta = TLElement(2, {cup_cap_matching(1, 2): one}, LOOP_VALUE_A)
    assert jones_wenzl(2) == TLElement.identity(2) - e1_over_delta
    assert jones_wenzl(2) != TLElement.identity(2) - TLElement.generator(1, 2)


def test_element_equality_cross_multiplies():
    # numerator and denominator scaled alike give the same element
    e1 = TLElement.generator(1, 2)
    assert TLElement(2, e1.scale(LOOP_VALUE_A).terms, LOOP_VALUE_A) == e1
    assert e1 != TLElement(2, e1.terms, LaurentScalar.constant(2))
    assert e1 != TLElement.identity(2)


def test_element_strand_checks():
    one = LaurentScalar.constant(1)
    with pytest.raises(ValueError):
        TLElement(2, {identity_matching(1): one})
    with pytest.raises(ValueError):
        TLElement.identity(1) * TLElement.identity(2)
    with pytest.raises(ValueError):
        TLElement.identity(1) + TLElement.identity(2)
    with pytest.raises(ValueError):
        TLElement(1, {identity_matching(1): one}, LaurentScalar.zero())


@lru_cache(maxsize=None)
def product_term(m1, m2):
    """The single term of the product of two matchings."""
    product = TLElement.from_matching(m1) * TLElement.from_matching(m2)
    ((m, weight),) = product.terms.items()
    return m, weight


def jones_wenzl_at(k, a):
    """f_k at A = a by the plain recurrence, with Fraction coefficients."""

    def times(x, y):
        out = {}
        for m1, c1 in x.items():
            for m2, c2 in y.items():
                m, weight = product_term(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2 * weight.evaluate(a)
        return out

    f = {identity_matching(1): Fraction(1)}
    for j in range(2, k + 1):
        moved = [p if p < j - 1 else p + 2 for p in range(2 * j - 2)]
        top = {}
        for m, c in f.items():
            match = [0] * (2 * j)
            match[j - 1], match[j] = j, j - 1  # the new strand
            for p, q in enumerate(m.match):
                match[moved[p]] = moved[q]
            top[PlanarMatching(j, tuple(match))] = c
        lower, upper = quantum_dimension(j - 2), quantum_dimension(j - 1)
        ratio = lower.evaluate(a) / upper.evaluate(a)
        side = times(times(top, {cup_cap_matching(j - 1, j): Fraction(1)}), top)
        f = dict(top)
        for m, c in side.items():
            f[m] = f.get(m, 0) - ratio * c
        f = {m: c for m, c in f.items() if c}
    return f


def test_projector_matches_fraction_recurrence():
    for a in (Fraction(2, 3), Fraction(-5, 7), Fraction(3)):
        for k in range(1, 7):
            f = jones_wenzl(k)
            den = f.den.evaluate(a)
            values = {m: c.evaluate(a) / den for m, c in f.terms.items()}
            assert values == jones_wenzl_at(k, a)


def test_projector_idempotent_and_cup_killed():
    for k in range(1, 5):
        f = jones_wenzl(k)
        assert f * f == f
        for i in range(1, k):
            assert (TLElement.generator(i, k) * f).is_zero()
            assert (f * TLElement.generator(i, k)).is_zero()


def test_projector_guard():
    with pytest.raises(ValueError):
        jones_wenzl(9)


def test_quantum_dimension_frozen_values():
    assert quantum_dimension(0) == LaurentScalar.constant(1)
    assert quantum_dimension(1) == LOOP_VALUE_A
    assert quantum_dimension(2) == LaurentScalar({4: 1, 0: 1, -4: 1})


def test_quantum_dimension_recurrence():
    for k in range(2, 17):
        assert quantum_dimension(k) == LOOP_VALUE_A * quantum_dimension(
            k - 1
        ) - quantum_dimension(k - 2)


def test_quantum_dimension_closed_form():
    # D_k * (A^2 - A^-2) = (-1)^k (A^{2(k+1)} - A^{-2(k+1)})
    shear = LaurentScalar({2: 1, -2: -1})
    for k in range(0, 12):
        sign = -1 if k & 1 else 1
        rhs = LaurentScalar({2 * (k + 1): sign, -2 * (k + 1): -sign})
        assert quantum_dimension(k) * shear == rhs


def test_markov_closure_frozen_values():
    delta = LOOP_VALUE_A
    assert TLElement.identity(2).markov_closure() == (delta * delta, 1)
    assert TLElement.generator(1, 2).markov_closure() == (delta, 1)
    num, den = jones_wenzl(3).markov_closure()
    assert num == quantum_dimension(3) * den


def test_encircle_nothing_is_a_free_loop():
    e0 = encircle(0)
    assert len(e0.terms) == 1
    ((m, c),) = e0.terms.items()
    assert m == PlanarMatching(0, ())
    assert c == LOOP_VALUE_A
    assert e0.den == 1


def test_encircle_eigenvalue_on_projectors():
    for k in (1, 2):
        f = jones_wenzl(k)
        scaled = f.scale(encircle_eigenvalue(k))
        assert encircle(k) * f == scaled
    assert encircle_eigenvalue(1) == LaurentScalar({4: -1, -4: -1})


def test_encircle_guard():
    with pytest.raises(ValueError):
        encircle(5)


def test_eigenvalue_matches_chebyshev_image():
    # the eigenvalue for k-1 strands is the loop-variable image of T_k
    for k in range(1, 7):
        sign = 1 if k & 1 else -1
        assert encircle_eigenvalue(k - 1) == chebyshev_in_bracket(k) * sign


def test_pairing_value_frozen_examples():
    delta = LOOP_VALUE_A
    assert projector_pairing_value(0, 2, 1) == delta**3
    assert projector_pairing_value(1, 1, 0) == LaurentScalar({4: -1, -4: -1}) * delta
    assert projector_pairing_value(1, 0, 1) == delta * delta


def test_skein_matrix_smallest_case():
    m = skein_matrix(1, 1)
    for i in range(2):
        for j in range(2):
            assert m.entries[i, j] == LOOP_VALUE_A


def test_skein_matrix_symmetric():
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        m = skein_matrix(n, k).entries.entries
        assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def test_skein_matrix_guards():
    with pytest.raises(ValueError):
        skein_matrix(6, 1)
    with pytest.raises(ValueError):
        skein_matrix(2, 0)


def test_projector_scaled_entries_match_gram_specialization():
    # dimension factor times the substituted Gram entry, entry by entry
    for n in (1, 2):
        g = gram_matrix(n)
        for k in (1, 2):
            f = skein_matrix(n, k)
            dim = quantum_dimension(k - 1)
            a_image = encircle_eigenvalue(k - 1)
            for i in range(g.size()):
                for j in range(g.size()):
                    lhs = dim * substitute_loop_values(g.entries[i, j], a_image)
                    assert lhs == f.entries[i, j]


def test_skein_nullity_frozen_values():
    assert skein_nullity(1, 1, Fraction(2)) == 1
    assert skein_nullity(2, 1, Fraction(3, 2)) == 4
    assert skein_nullity(2, 2, Fraction(3, 2)) == 1


def test_skein_nullity_validation():
    with pytest.raises(ValueError):
        skein_nullity(2, 3, Fraction(2))
    with pytest.raises(ValueError):
        skein_nullity(2, 1, Fraction(0))
    with pytest.raises(ValueError):
        skein_nullity(2, 1, Fraction(-1))


def test_skein_nullity_matches_gram_route():
    # same specialization through either construction
    rng = random.Random(501)
    for n, k in ((1, 1), (2, 1), (2, 2)):
        num = rng.randint(2, 9)
        a0 = Fraction(num, num + 1)
        d0 = -(a0**2) - 1 / a0**2
        assert skein_nullity(n, k, a0) == specialized_nullity(n, k, d0)


def test_skein_matrix_reads_the_gram_pairing_table():
    for n in range(1, 5):
        for k in range(1, n + 2):
            m = skein_matrix(n, k)
            assert m.pairings is gram_matrix(n).pairings
            assert m.basis is gram_matrix(n).basis


def test_skein_entries_evaluate_each_exponent_pair_once(monkeypatch):
    calls = []

    def counted(strands, nontrivial, trivial):
        calls.append((nontrivial, trivial))
        return projector_pairing_value(strands, nontrivial, trivial)

    monkeypatch.setattr("tlbgram.tl.projector_pairing_value", counted)
    cached = skein_matrix(4, 2)
    # a fresh matrix, so that entries is not already cached
    SkeinValueMatrix(4, 2, cached.basis, cached.pairings).entries
    assert len(calls) == len(set(calls)) == 25


@pytest.mark.slow
def test_both_routes_give_the_binomial_nullity_at_n5():
    rng = random.Random(502)
    for k in range(1, 6):
        a0 = random_bracket_sample(rng)
        d0 = -(a0**2) - 1 / a0**2
        expected = comb(10, 5 - k)
        assert skein_nullity(5, k, a0) == expected, (k, a0)
        assert specialized_nullity(5, k, d0) == expected, (k, d0)


def test_skein_resample_protocol():
    value, samples = skein_nullity_with_resample(2, 2, random.Random(3))
    assert value == 1
    assert 2 <= len(samples) <= 5
    assert all(s not in (0, 1, -1) for s in samples)


def test_pair_composes_with_pairing_value():
    # the skein matrix is exactly phi applied to the pairing exponents
    n, k = 2, 2
    basis = skein_matrix(n, k).basis
    m = skein_matrix(n, k)
    for i, d1 in enumerate(basis):
        for j, d2 in enumerate(basis):
            v = pair(d1, d2)
            assert m.entries[i, j] == projector_pairing_value(
                k - 1, v.nontrivial, v.trivial
            )
