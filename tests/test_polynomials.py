"""Exact polynomial arithmetic: ring axioms, frozen values, dense helpers."""

import random
from fractions import Fraction

import pytest

from tlbgram._intpoly import (
    _chebyshev_values,
    _poly_divexact,
    _poly_gcd,
    _poly_primitive,
)
from tlbgram._sampling import _laurent_ratio
from tlbgram.gram import specialized_nullity
from tlbgram.polynomials import (
    LOOP_VALUE_A,
    BivariatePolynomial,
    LaurentScalar,
    chebyshev,
    lowest_terms,
    quotient_text,
    substitute_loop_values,
)

A = BivariatePolynomial.monomial(1, 0)
D = BivariatePolynomial.var_d()


def poly_mod(p, a_value, d_value, prime):
    """p at a = a_value, d = d_value, reduced mod prime."""
    return sum(
        c * pow(a_value, ea, prime) * pow(d_value, ed, prime)
        for (ea, ed), c in p.terms.items()
    ) % prime


def chebyshev_in_bracket(k):
    """T_k evaluated at d = -A^2 - A^-2, namely (-1)^k (A^{2k} + A^{-2k})."""
    sign = -1 if k & 1 else 1
    if k == 0:
        return LaurentScalar.constant(2)
    return LaurentScalar({2 * k: sign, -2 * k: sign})


def negated_a(p):
    """The image of p under a -> -a."""
    return BivariatePolynomial(
        {e: (-c if e[0] & 1 else c) for e, c in p.terms.items()}
    )


def random_bivariate(rng, max_terms=6, max_exp=5, max_coeff=30):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = rng.randint(-max_coeff, max_coeff)
    return BivariatePolynomial(terms)


def random_laurent(rng, max_terms=6, max_exp=6, max_coeff=30):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentScalar(terms)


def test_constructors_drop_zero_coefficients():
    assert BivariatePolynomial({(1, 1): 0}).is_zero()
    assert LaurentScalar({3: 0}).is_zero()
    assert BivariatePolynomial.zero() == 0
    assert LaurentScalar.zero() == 0


def test_bivariate_ring_axioms():
    rng = random.Random(101)
    for _ in range(60):
        p = random_bivariate(rng)
        q = random_bivariate(rng)
        r = random_bivariate(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + BivariatePolynomial.zero() == p
        assert p * BivariatePolynomial.constant(1) == p
        assert p - p == 0


def test_laurent_ring_axioms():
    rng = random.Random(102)
    for _ in range(60):
        p = random_laurent(rng)
        q = random_laurent(rng)
        r = random_laurent(rng)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p - p == 0
        assert p * 1 == p


def test_power_matches_repeated_product():
    rng = random.Random(103)
    for _ in range(10):
        p = random_bivariate(rng, max_terms=3, max_exp=2)
        acc = BivariatePolynomial.constant(1)
        for e in range(5):
            assert p**e == acc
            acc = acc * p


def test_evaluation_is_a_homomorphism():
    rng = random.Random(104)
    for _ in range(25):
        p = random_bivariate(rng)
        q = random_bivariate(rng)
        av = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        dv = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (p + q).evaluate(av, dv) == p.evaluate(av, dv) + q.evaluate(av, dv)
        assert (p * q).evaluate(av, dv) == p.evaluate(av, dv) * q.evaluate(av, dv)


def test_evaluate_mod_matches_exact_evaluation():
    rng = random.Random(105)
    for _ in range(25):
        p = random_bivariate(rng)
        av, dv = rng.randint(0, 100), rng.randint(0, 100)
        assert poly_mod(p, av, dv, 10007) == p.evaluate(av, dv) % 10007


def test_negated_a_substitution():
    p = A**2 * D - A * D**2 + 3
    assert negated_a(p) == A**2 * D + A * D**2 + 3
    rng = random.Random(107)
    for _ in range(20):
        q = random_bivariate(rng)
        # involution, and even in a iff fixed
        assert negated_a(negated_a(q)) == q


def test_chebyshev_frozen_values():
    assert chebyshev(0) == BivariatePolynomial.constant(2)
    assert chebyshev(1) == D
    assert chebyshev(2) == D * D - 2
    assert chebyshev(3) == D**3 - 3 * D


def test_chebyshev_monic_of_exact_degree():
    for i in range(1, 65):
        t = chebyshev(i)
        assert all(ea == 0 and ed <= i for ea, ed in t.terms)
        assert t.terms[(0, i)] == 1


def test_chebyshev_functional_equation():
    # T_i(x + 1/x) = x^i + x^-i
    rng = random.Random(108)
    for _ in range(15):
        x = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        i = rng.randint(0, 20)
        assert chebyshev(i).evaluate(0, x + 1 / x) == x**i + x**-i


def test_specialized_nullity_takes_chebyshev_from_the_recurrence(monkeypatch):
    # gram reads q^k T_k(p/q) off T_0 = 2, T_1 = p, T_i = p T_(i-1) - q^2 T_(i-2)
    # in integers, without the polynomial type, and ranks at the int pairs
    # a = ((-1)^(k-1) q^k T_k(d0), q^k) and d = (p, q), d0 = p/q
    seen = []
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: None)
    monkeypatch.setattr(
        "tlbgram.gram._nullity_at", lambda g, a, d: seen.append((a, d)) or 0
    )
    for d0 in (Fraction(3, 7), Fraction(5, 2), Fraction(-4, 9), Fraction(-7, 3)):
        p, q = d0.numerator, d0.denominator
        for k in range(1, 9):
            a0 = (-1) ** (k - 1) * chebyshev(k).evaluate(0, d0)
            for point in (d0, (p, q)):
                seen.clear()
                assert specialized_nullity(8, k, point) == 0
                assert seen == [((a0 * q**k, q**k), (p, q))]
                assert all(type(v) is int for pair in seen[0] for v in pair)


def test_chebyshev_in_bracket_frozen_values():
    assert chebyshev_in_bracket(0) == LaurentScalar.constant(2)
    assert chebyshev_in_bracket(1) == LaurentScalar({2: -1, -2: -1})
    assert chebyshev_in_bracket(2) == LaurentScalar({4: 1, -4: 1})


def test_loop_value_constant():
    assert LOOP_VALUE_A == LaurentScalar({2: -1, -2: -1})
    assert chebyshev_in_bracket(1) == LOOP_VALUE_A


def test_substitution_frozen_values():
    any_image = LaurentScalar.monomial(1)
    assert substitute_loop_values(D, any_image) == LOOP_VALUE_A
    assert substitute_loop_values(BivariatePolynomial.zero(), any_image) == 0
    assert substitute_loop_values(D * D - 2, any_image) == LaurentScalar({4: 1, -4: 1})


def test_substitution_matches_bracket_chebyshev():
    img = LaurentScalar.monomial(1)
    for k in range(33):
        assert substitute_loop_values(chebyshev(k), img) == chebyshev_in_bracket(k)


def test_substitution_is_a_homomorphism():
    rng = random.Random(109)
    a_img = LaurentScalar({3: 1, -1: 2})
    for _ in range(15):
        p = random_bivariate(rng, max_exp=3)
        q = random_bivariate(rng, max_exp=3)
        s = substitute_loop_values
        assert s(p + q, a_img) == s(p, a_img) + s(q, a_img)
        assert s(p * q, a_img) == s(p, a_img) * s(q, a_img)


def test_bivariate_text_round_trip():
    frozen = "-1*a^2*d^0 + 1*a^0*d^2"
    p = D * D - A * A
    assert p.to_text() == frozen
    assert BivariatePolynomial.zero().to_text() == "0"


def test_laurent_text_round_trip():
    frozen = "1*A^4 + 1*A^-4"
    s = LaurentScalar({4: 1, -4: 1})
    assert s.to_text() == frozen
    assert LaurentScalar.zero().to_text() == "0"


def test_the_two_rings_never_compare_equal():
    for p, s in [
        (BivariatePolynomial.zero(), LaurentScalar.zero()),
        (BivariatePolynomial.constant(1), LaurentScalar.constant(1)),
    ]:
        assert not p == s and not s == p
        assert p != s and s != p


def test_equal_values_hash_equally():
    rng = random.Random(117)
    for _ in range(30):
        p = random_bivariate(rng)
        q = random_bivariate(rng)
        assert hash((p + q) - q) == hash(p)
        assert hash(p * q) == hash(q * p)
        s = random_laurent(rng)
        t = random_laurent(rng)
        assert hash((s + t) - t) == hash(s)
        assert hash(s * t) == hash(t * s)
    assert len({A + D, D + A, A * 1, 1 * A}) == 2


def test_constants_hash_as_the_int_they_equal():
    for ring in (BivariatePolynomial, LaurentScalar):
        for c in (-7, 0, 1, 3, 2**70):
            assert ring.constant(c) == c
            assert hash(ring.constant(c)) == hash(c)
        assert len({ring.constant(3), 3}) == 1
        assert len({ring.zero(), 0, ring.constant(5) - 5}) == 1


def test_the_two_rings_never_add():
    p, s = A, LaurentScalar.constant(1)
    for combine in (lambda: p + s, lambda: s + p, lambda: p - s, lambda: s - p):
        with pytest.raises(TypeError):
            combine()


def test_the_rings_multiply_only_by_ints_and_their_own_type():
    p, s = A, LaurentScalar.monomial(1)
    for x, other in ((p, s), (s, p)):
        for y in (2.5, Fraction(1, 2), other, type(other).zero()):
            for product in (lambda: x * y, lambda: y * x):
                with pytest.raises(TypeError):
                    product()
        assert x * 3 == 3 * x == x + x + x
        assert x * True == x
        assert (x * type(x).constant(2)).terms == (x + x).terms


def random_dense(rng, max_degree=6, max_coeff=20):
    """A dense integer polynomial with nonzero leading coefficient."""
    p = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_degree))]
    return p + [rng.choice([-3, -2, -1, 1, 2, 3])]


def dense_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_dense_division_and_gcd():
    rng = random.Random(118)
    for _ in range(60):
        f, g, h = random_dense(rng), random_dense(rng), random_dense(rng)
        fg = dense_mul(f, g)
        assert _poly_divexact(fg, g) == f
        # fg + 1 leaves remainder 1 over g unless g is a unit
        if len(g) > 1 or abs(g[0]) > 1:
            with pytest.raises(ValueError):
                _poly_divexact([fg[0] + 1] + fg[1:], g)
        common = _poly_gcd(fg, dense_mul(f, h))
        # f divides the gcd over Q, so its primitive part divides it over Z
        _poly_divexact(common, _poly_primitive(f))  # ValueError unless exact


def test_laurent_evaluate():
    s = LaurentScalar({2: -1, -2: -1})
    assert s.evaluate(Fraction(2)) == Fraction(-17, 4)
    rng = random.Random(112)
    for _ in range(20):
        p = random_laurent(rng)
        q = random_laurent(rng)
        x = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


def test_laurent_evaluate_is_an_exact_fraction_at_ints_and_fractions():
    # 2A^3 - 1 + 5A^-1 + A^-4: negative powers of an int still give a Fraction
    s = LaurentScalar({3: 2, 0: -1, -1: 5, -4: 1})
    for x, value in ((2, Fraction(281, 16)), (-3, Fraction(-4589, 81)),
                     (Fraction(-3, 2), Fraction(-3527, 324))):
        result = s.evaluate(x)
        assert type(result) is Fraction
        assert result == value


def test_rational_function_reduces_to_canonical_form():
    # (A^4 - A^-4) / (A^2 - A^-2) = A^2 + A^-2
    num = LaurentScalar({4: 1, -4: -1})
    den = LaurentScalar({2: 1, -2: -1})
    assert lowest_terms(num, den) == (LaurentScalar({2: 1, -2: 1}), 1)
    # integer content is cleared on both sides
    six, four = LaurentScalar.constant(6), LaurentScalar.constant(4)
    assert lowest_terms(six, four) == (3, 2)


def test_rational_function_canonical_invariants():
    rng = random.Random(113)
    checked = 0
    while checked < 40:
        num = random_laurent(rng)
        den = random_laurent(rng)
        if den.is_zero():
            continue
        rnum, rden = lowest_terms(num, den)
        # denominator: ordinary polynomial, nonzero constant term, positive lead
        assert rden.min_exp() == 0
        assert rden.terms[rden.max_exp()] > 0
        assert rnum * den == num * rden
        checked += 1


def test_rational_function_structural_equality_is_semantic():
    rng = random.Random(115)
    checked = 0
    while checked < 25:
        num = random_laurent(rng)
        den = random_laurent(rng)
        scale = random_laurent(rng)
        if den.is_zero() or scale.is_zero():
            continue
        assert lowest_terms(num * scale, den * scale) == lowest_terms(num, den)
        checked += 1


def test_rational_function_zero_and_errors():
    five = LaurentScalar.constant(5)
    assert lowest_terms(LaurentScalar.zero(), five) == (0, 1)
    assert quotient_text(LaurentScalar.zero(), five) == "0"
    with pytest.raises(ZeroDivisionError):
        lowest_terms(LaurentScalar.constant(1), LaurentScalar.zero())


def test_rational_function_text():
    one = LaurentScalar.constant(1)
    assert quotient_text(one, one) == "1*A^0"
    num, den = LaurentScalar.monomial(2), LaurentScalar({4: 1, 0: 1})
    assert quotient_text(num, den) == "(1*A^2) / (1*A^4 + 1*A^0)"
    assert quotient_text(num * den, den * den) == "(1*A^2) / (1*A^4 + 1*A^0)"


def test_chebyshev_values_at_an_int_pair_are_scaled_by_q_to_the_k():
    # with d = p and s = q^2 the one recurrence gives q^k T_k(p/q) in integers
    for p, q in ((3, 7), (5, 2), (-4, 9), (-7, 3), (1, 1), (0, 5), (6, -4)):
        values = _chebyshev_values(8, p, q * q)
        assert all(type(v) is int for v in values)
        for k in range(9):
            expected = q**k * chebyshev(k).evaluate(0, Fraction(p, q))
            assert values[k] == expected, (p, q, k)


def test_laurent_ratio_at_is_the_value_as_an_int_pair():
    rng = random.Random(113)
    for _ in range(100):
        s = random_laurent(rng)
        p = rng.choice((-1, 1)) * rng.randint(1, 20)
        q = rng.choice((-1, 1)) * rng.randint(1, 20)
        num, den = _laurent_ratio(s, p, q)
        assert type(num) is int and type(den) is int
        x = Fraction(p, q)
        value = sum((c * x**e for e, c in s.terms.items()), Fraction(0))
        assert Fraction(num, den) == s.evaluate(x) == value
    # the two values the skein route reads, at A = 3/2
    assert _laurent_ratio(LOOP_VALUE_A, 3, 2) == (-97, 36)
    eigenvalue = _laurent_ratio(LaurentScalar({4: -1, -4: -1}), 3, 2)
    assert Fraction(*eigenvalue) == Fraction(-6817, 1296)
