"""Gram matrix construction, determinant identity, specializations."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import pytest

from tlbgram.annular import (
    AnnularDiagram,
    PairingValue,
    enumerate_diagrams,
    pair,
    rotation_permutation,
)
from tlbgram.gram import (
    GramMatrix,
    _determinant,
    _nullity_at,
    _tabulate,
    crossing_signs,
    d_parity_check,
    degree_bound,
    determinant_product_form,
    determinant_product_value_mod,
    gram_matrix,
    nullity_with_resample,
    random_delta,
    sign_conjugation_check,
    specialized_nullity,
    verify_determinant,
)
from tlbgram.linalg import MODULAR_PRIMES, _integer_rank
from tlbgram.polynomials import BivariatePolynomial, chebyshev
from test_cli import assert_one_line_error
from test_linalg import det_by_cofactor

A = BivariatePolynomial.var_a()
D = BivariatePolynomial.var_d()


def test_smallest_gram_matrix_frozen():
    g = gram_matrix(1)
    assert g.size() == 2
    rows = [[g.entries[i, j] for j in range(2)] for i in range(2)]
    assert rows == [[D, A], [A, D]]


def test_gram_structure():
    for n in range(1, 5):
        g = gram_matrix(n)
        assert g.size() == comb(2 * n, n)
        m = g.entries.entries
        assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))
        for i in range(g.size()):
            assert g.pairings[i][i] == PairingValue(0, n)
            for j in range(g.size()):
                v = g.pairings[i][j]
                # single monomial with total loop budget n
                assert v.nontrivial + v.trivial <= n
                if i != j:
                    assert v.trivial <= n - 1


def test_gram_off_diagonal_multiset_includes_known_values():
    g = gram_matrix(2)
    off = {
        g.pairings[i][j]
        for i in range(6)
        for j in range(6)
        if i != j
    }
    assert PairingValue(1, 0) in off  # alpha
    assert PairingValue(1, 1) in off  # alpha*delta


def test_gram_guard():
    with pytest.raises(ValueError):
        gram_matrix(6)


def test_crossing_signs():
    g = gram_matrix(2)
    signs = crossing_signs(g.basis)
    assert set(signs) <= {1, -1}
    for s, d in zip(signs, g.basis):
        assert s == (-1) ** d.cut_crossings()


def test_sign_conjugation_small():
    for n in range(1, 4):
        assert sign_conjugation_check(n)


def test_sign_conjugation_matches_the_polynomial_statement():
    for n in range(1, 5):
        g = gram_matrix(n)
        signs = crossing_signs(g.basis)
        for i in range(g.size()):
            for j in range(g.size()):
                entry = g.entries[i, j]
                image = entry if signs[i] == signs[j] else -entry
                assert entry.substitute_negated_a() == image


def test_sign_conjugation_catches_one_wrong_parity(monkeypatch):
    g = gram_matrix(3)
    rows = [list(row) for row in g.pairings]
    v = rows[1][7]
    rows[1][7] = PairingValue(v.nontrivial + 1, v.trivial)
    broken = GramMatrix(3, g.basis, tuple(tuple(row) for row in rows))
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    assert not sign_conjugation_check(3)


# Rotation orbits.  gram_matrix pairs one row per orbit of the turn
# i -> i+1 and copies the rest, so the invariances it relies on are
# checked here against pair() itself, entry by entry.


@lru_cache(maxsize=None)
def dense_pairings(n):
    """The all-pairs oracle: pair(basis[i], basis[j]) for every i, j."""
    basis = enumerate_diagrams(n)
    return tuple(tuple(pair(x, y) for y in basis) for x in basis)


def turned(d):
    """d turned one step by hand; the constructor checks it is planar."""
    top = 2 * d.n
    return AnnularDiagram(
        d.n,
        tuple(
            (i + 1, 1, 1 - w) if j == top else (i + 1, j + 1, w)
            for i, j, w in d.chords
        ),
    )


def reflected(d):
    """d mirrored by i -> 2n+1-i with flags kept."""
    top = 2 * d.n + 1
    return AnnularDiagram(d.n, tuple((top - j, top - i, w) for i, j, w in d.chords))


def orbit_count(perm):
    seen = set()
    count = 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return count


@pytest.mark.parametrize("n", range(1, 6))
def test_rotation_permutation_turns_each_diagram(n):
    basis = enumerate_diagrams(n)
    turn = rotation_permutation(n)
    assert [basis[k] for k in turn] == [turned(d) for d in basis]


@pytest.mark.parametrize("n", range(1, 6))
def test_rotation_permutation_has_order_dividing_2n(n):
    turn = rotation_permutation(n)
    assert sorted(turn) == list(range(comb(2 * n, n)))
    power = list(range(len(turn)))
    for _ in range(2 * n):
        power = [turn[k] for k in power]
    assert power == list(range(len(turn)))


def test_rotation_orbit_counts():
    assert [orbit_count(rotation_permutation(n)) for n in range(1, 6)] == [1, 2, 4, 10, 26]


@pytest.mark.parametrize("n", range(1, 6))
def test_pairing_is_rotation_invariant(n):
    table = dense_pairings(n)
    turn = rotation_permutation(n)
    for i, row in enumerate(table):
        turned_row = table[turn[i]]
        assert all(turned_row[turn[j]] == v for j, v in enumerate(row))


@pytest.mark.parametrize("n", range(1, 6))
def test_pairing_is_reflection_invariant(n):
    basis = enumerate_diagrams(n)
    index = {d: k for k, d in enumerate(basis)}
    mirror = [index[reflected(d)] for d in basis]
    table = dense_pairings(n)
    for i, row in enumerate(table):
        mirrored_row = table[mirror[i]]
        assert all(mirrored_row[mirror[j]] == v for j, v in enumerate(row))


@pytest.mark.parametrize("n", range(1, 6))
def test_gram_from_orbits_matches_dense_pairings(n):
    assert gram_matrix(n).pairings == dense_pairings(n)


def test_evaluate_mod_matches_each_entry():
    rng = random.Random(77)
    p = MODULAR_PRIMES[1]
    for n in range(1, 5):
        g = gram_matrix(n)
        for av, dv in [(0, 0), (0, 3), (rng.randrange(p), rng.randrange(p))]:
            expected = [
                [pow(av, v.nontrivial, p) * pow(dv, v.trivial, p) % p for v in row]
                for row in g.pairings
            ]
            assert g.evaluate_mod(av, dv, p) == expected


def test_product_form_frozen():
    assert determinant_product_form(1) == D * D - A * A
    by_hand = (D * D - A * A) ** 4 * ((D * D - 2) ** 2 - A * A)
    assert determinant_product_form(2) == by_hand


def test_product_form_guard():
    with pytest.raises(ValueError):
        determinant_product_form(4)


def test_product_value_mod_matches_expansion():
    rng = random.Random(401)
    p = MODULAR_PRIMES[2]
    for n in (1, 2):
        expanded = determinant_product_form(n)
        for _ in range(10):
            av, dv = rng.randrange(p), rng.randrange(p)
            assert determinant_product_value_mod(n, av, dv, p) == expanded.evaluate_mod(av, dv, p)


def test_determinant_is_monic_in_loop_variable():
    for n in (1, 2, 3):
        det = _determinant(n)
        top = n * comb(2 * n, n)
        assert det.degree_d() == top
        assert {e: c for e, c in det.terms.items() if e[1] == top} == {(0, top): 1}


def test_interpolated_determinant_matches_the_cofactor_expansion():
    # The cofactor oracle needs neither parity fact.
    for n in (1, 2):
        g = gram_matrix(n)
        assert _determinant(n) == det_by_cofactor(g.entries.entries)


def test_symbolic_determinant_eliminates_once_per_staircase_point(monkeypatch):
    import tlbgram.linalg as linalg

    calls = []
    real = linalg._det_mod
    monkeypatch.setattr(linalg, "_det_mod", lambda m, p: calls.append(p) or real(m, p))
    assert _determinant(3) == determinant_product_form(3)
    # one prime; x^i y^j with i <= 22, j <= 30 and i + j <= 30
    assert calls == [MODULAR_PRIMES[0]] * 460


def perturbed(n, i, j, dm, dt):
    """gram_matrix(n) with the pairings (i, j) and (j, i) moved by a^dm d^dt."""
    g = gram_matrix(n)
    rows = [list(row) for row in g.pairings]
    v = rows[i][j]
    rows[i][j] = rows[j][i] = PairingValue(v.nontrivial + dm, v.trivial + dt)
    return GramMatrix(n, g.basis, tuple(tuple(row) for row in rows))


def test_symbolic_determinant_refuses_a_wrong_parity(monkeypatch):
    broken = perturbed(2, 0, 1, 1, 0)
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    with pytest.raises(RuntimeError):
        verify_determinant(2, mode="symbolic")


def test_d_parity_holds_entrywise():
    # G(a, -d) = (-1)^n S G S, with S read off row 0 of the all-pairs table
    for n in range(1, 6):
        assert d_parity_check(n)
        rows = dense_pairings(n)
        signs = [(-1) ** (n + v.trivial) for v in rows[0]]
        for s_i, row in zip(signs, rows):
            for v, s_j in zip(row, signs):
                assert (-1) ** v.trivial == (-1) ** n * s_i * s_j


def test_symbolic_determinant_refuses_a_wrong_d_parity(monkeypatch, capsys):
    broken = perturbed(2, 0, 1, 0, 1)
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    assert sign_conjugation_check(2)
    assert not d_parity_check(2)
    with pytest.raises(RuntimeError, match="not even in d"):
        verify_determinant(2, mode="symbolic")
    assert_one_line_error(capsys, "det-verify", "2")


def test_verify_symbolic_report():
    rep = verify_determinant(1, mode="symbolic")
    assert rep["pass"] is True
    assert rep["determinant"] == "-1*a^2*d^0 + 1*a^0*d^2"
    assert rep["mode"] == "symbolic"
    assert rep["bound"] == 0.0
    assert verify_determinant(2, mode="symbolic")["pass"] is True


def test_verify_modular_report():
    rep = verify_determinant(2, mode="modular", trials=8, seed=5)
    assert rep["pass"] is True
    assert rep["trials"] == 8
    assert rep["seed"] == 5
    assert rep["prime"] == MODULAR_PRIMES[0]
    assert rep["trial_results"] == [True] * 8
    assert 0 < rep["bound"] < 2**-30
    assert rep["bound"] == 8 * degree_bound(2) / MODULAR_PRIMES[0]


def test_verify_modular_is_deterministic_per_seed():
    a = verify_determinant(2, mode="modular", trials=4, seed=9)
    b = verify_determinant(2, mode="modular", trials=4, seed=9)
    assert a == b


def test_verify_rejects_bad_parameters():
    with pytest.raises(ValueError):
        verify_determinant(1, mode="something")
    with pytest.raises(ValueError):
        verify_determinant(1, mode="modular", trials=0)
    with pytest.raises(ValueError):
        verify_determinant(1, mode="modular", prime=10)
    with pytest.raises(ValueError):
        verify_determinant(2, mode="modular", prime=3)  # below degree bound
    with pytest.raises(ValueError):
        verify_determinant(4, mode="symbolic")
    with pytest.raises(ValueError):
        verify_determinant(2, mode="symbolic", prime=7)  # modular mode only


def test_degree_bound_value():
    assert degree_bound(2) == 2 * 2 * comb(4, 2)
    det = _determinant(2)
    assert det.degree_d() + det.degree_a() <= degree_bound(2)


def test_specialized_nullity_frozen_values():
    assert specialized_nullity(1, 1, Fraction(3)) == 1
    assert specialized_nullity(2, 1, Fraction(7, 3)) == 4
    assert specialized_nullity(2, 2, Fraction(7, 3)) == 1


def test_specialized_nullity_validation():
    with pytest.raises(ValueError):
        specialized_nullity(2, 0, Fraction(2))
    with pytest.raises(ValueError):
        specialized_nullity(2, 3, Fraction(2))


def test_nullity_agrees_across_specialization_sign():
    # the two sign choices for the a-image give conjugate matrices
    rng = random.Random(402)
    from tlbgram.linalg import rank_exact
    from test_linalg import gram_at

    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        d0 = random_delta(rng)
        t_k = chebyshev(k).evaluate(0, d0)
        r_plus = rank_exact(gram_at(n, t_k, d0))
        r_minus = rank_exact(gram_at(n, -t_k, d0))
        assert r_plus == r_minus


def rank_inputs(monkeypatch):
    """Record every integer matrix that rank_exact hands to _integer_rank."""
    seen = []

    def spy(rows):
        seen.append(rows)
        return _integer_rank(rows)

    monkeypatch.setattr("tlbgram.linalg._integer_rank", spy)
    return seen


def test_rank_rows_are_row_lcm_multiples_of_the_evaluated_rows(monkeypatch):
    seen = rank_inputs(monkeypatch)
    pairings = gram_matrix(2).pairings
    for a_value, d_value in (
        (Fraction(-7, 3), Fraction(5, 4)),
        (Fraction(2), Fraction(-9, 10)),
        (Fraction(3, 5), Fraction(1, 6)),
        (Fraction(-7, 9), Fraction(5, 3)),  # denominators share a factor
    ):
        seen.clear()
        _nullity_at(2, pairings, a_value, d_value)
        (rows,) = seen
        for row, pairing_row in zip(rows, pairings):
            evaluated = [a_value**v.nontrivial * d_value**v.trivial for v in pairing_row]
            # the smallest positive integer that clears the row
            scale = lcm(*(x.denominator for x in evaluated))
            assert all(isinstance(x, int) for x in row)
            assert row == [scale * x for x in evaluated]


def test_rank_rows_are_as_narrow_as_the_row_lcm(monkeypatch):
    # On the Gram route a = T_k(d0) has denominator yd^k, so one common
    # factor xd^M yd^T would carry yd^(k M + T) on every row.
    seen = rank_inputs(monkeypatch)
    specialized_nullity(4, 4, Fraction(-997, 991))
    (rows,) = seen
    assert max(abs(x).bit_length() for row in rows for x in row) == 160


def test_tabulate_computes_each_exponent_pair_once():
    for n in range(1, 6):
        calls = []

        def value(m, t):
            calls.append((m, t))
            return (m, t)

        pairings = gram_matrix(n).pairings
        table = _tabulate(n, pairings, value)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == (n + 1) ** 2
        assert table == [[(v.nontrivial, v.trivial) for v in row] for row in pairings]


def test_resample_protocol_returns_all_samples():
    value, samples = nullity_with_resample(2, 1, random.Random(0))
    assert value == 4
    assert 2 <= len(samples) <= 5
    assert all(isinstance(s, Fraction) for s in samples)


def test_resample_protocol_gives_up_after_max_attempts(monkeypatch):
    fake_values = iter((1, 2, 3, 4, 5))
    monkeypatch.setattr(
        "tlbgram.gram.specialized_nullity", lambda n, k, d: next(fake_values)
    )
    with pytest.raises(RuntimeError):
        nullity_with_resample(2, 1, random.Random(0))


def test_resample_protocol_accepts_second_agreement(monkeypatch):
    fake_values = iter((7, 3, 3))
    monkeypatch.setattr(
        "tlbgram.gram.specialized_nullity", lambda n, k, d: next(fake_values)
    )
    value, samples = nullity_with_resample(2, 1, random.Random(0))
    assert value == 3
    assert len(samples) == 3


def test_random_delta_stays_in_range():
    rng = random.Random(403)
    for _ in range(200):
        d0 = random_delta(rng)
        assert d0 != 0
        assert abs(d0.numerator) <= 1000
        assert 1 <= d0.denominator <= 1000
