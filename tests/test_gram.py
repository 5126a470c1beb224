"""Gram matrix construction, determinant identity, specializations."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, gcd, lcm, prod

import pytest

from tlbgram._sampling import _draw_delta
from tlbgram.annular import (
    AnnularDiagram,
    PairingRows,
    PairingValue,
    enumerate_diagrams,
    pair,
    rotation_cycles,
)
from tlbgram.cli import main
from tlbgram.determinant import (
    _agrees_at,
    _character_block,
    _character_det_mod,
    _root_powers,
    degree_bound,
    determinant_product_form,
    determinant_product_value_mod,
    verify_determinant,
)
from tlbgram.gram import (
    GramMatrix,
    _cyclotomic,
    _nullity_at,
    _pairing_table,
    _parities_hold,
    _rotation_block,
    crossing_signs,
    d_parity_check,
    gram_matrix,
    nullity_with_resample,
    random_delta,
    sign_conjugation_check,
    specialized_nullity,
)
from tlbgram.linalg import (
    _det_mod,
    _integer_rank,
    _primes,
    is_prime,
    rank_exact,
)
from tlbgram.polynomials import BivariatePolynomial, chebyshev
from tlbgram.tl import projector_pairing_value, random_bracket_sample, skein_nullity
from test_cli import assert_one_line_error
from test_linalg import MODULAR_PRIMES, det_by_cofactor, scaled_rows
from test_polynomials import negated_a, poly_mod

A = BivariatePolynomial.monomial(1, 0)
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
                assert g.entries[i, j] == BivariatePolynomial.monomial(
                    v.nontrivial, v.trivial
                )
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
                assert negated_a(entry) == image


def test_sign_conjugation_catches_one_wrong_parity(monkeypatch):
    # one wrong pairing in a stored orbit row: the turn carries it to every
    # row of that orbit, as a fault in pair() would
    g = gram_matrix(3)
    cycles = g.pairings.cycles
    firsts = {i: list(row) for i, row in g.pairings.firsts.items()}
    v = firsts[1][7]
    firsts[1][7] = PairingValue(v.nontrivial + 1, v.trivial)
    broken = GramMatrix(3, g.basis, PairingRows(cycles, firsts))
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    assert not sign_conjugation_check(3)


def parities_hold_everywhere(g, exponent, e):
    """The full walk: exponent(m, t) over every row i and column j of g.pairings."""
    return all(
        (exponent(v.nontrivial, v.trivial) - e_i - e_j) % 2 == 0
        for e_i, row in zip(e, g.pairings)
        for v, e_j in zip(row, e)
    )


def a_exponent(m, t):
    return m


@pytest.mark.parametrize("n", range(1, 5))
def test_parities_on_orbit_rows_agree_with_the_full_walk(n):
    g = gram_matrix(n)
    odd = [int(s < 0) for s in crossing_signs(g.basis)]
    d_odd = [(v.trivial - n) & 1 for v in g.pairings[0]]
    for exponent in (a_exponent, lambda m, t: t - n):
        parities = g.tabulate(lambda m, t: exponent(m, t) & 1)
        for e in (odd, d_odd):
            for flip in [None, *range(len(e))]:
                x = e if flip is None else [b ^ (i == flip) for i, b in enumerate(e)]
                assert _parities_hold(parities, x) == (
                    parities_hold_everywhere(g, exponent, x)
                )


def test_parities_refuse_an_e_that_the_turn_does_not_shift_evenly():
    # Orbit rows that hold for e, on a turn-invariant table, while the turn
    # moves e by 1 at one point and by 0 elsewhere: the full walk fails too.
    n = 3
    cycles = rotation_cycles(n)
    e = [0] * sum(map(len, cycles))
    e[cycles[1][1]] = 1
    firsts = {
        o[0]: tuple(PairingValue((e[o[0]] + e_j) & 1, n) for e_j in e)
        for o in cycles
    }
    g = GramMatrix(n, gram_matrix(n).basis, PairingRows(cycles, firsts))
    assert all(
        {(v.nontrivial + e_j) & 1 for v, e_j in zip(g.pairings[o[0]], e)} == {e[o[0]]}
        for o in cycles
    )
    assert not parities_hold_everywhere(g, a_exponent, e)
    assert not _parities_hold(g.tabulate(lambda m, t: m & 1), e)


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


def turn_from_cycles(n):
    """The turn R as a list, R[i] the basis index of diagram i turned.

    Read off rotation_cycles: R(o_r) = o_(r+1), and R(o_last) = o_0.
    """
    turn = {}
    for o in rotation_cycles(n):
        turn.update(zip(o, o[1:] + o[:1]))
    return [turn[i] for i in range(len(turn))]


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
    turn = turn_from_cycles(n)
    assert [basis[k] for k in turn] == [turned(d) for d in basis]


@pytest.mark.parametrize("n", range(1, 6))
def test_rotation_permutation_has_order_dividing_2n(n):
    turn = turn_from_cycles(n)
    assert sorted(turn) == list(range(comb(2 * n, n)))
    power = list(range(len(turn)))
    for _ in range(2 * n):
        power = [turn[k] for k in power]
    assert power == list(range(len(turn)))
    # each cycle is listed once, from its smallest index, and its size divides 2n
    cycles = rotation_cycles(n)
    assert sorted(i for o in cycles for i in o) == list(range(len(turn)))
    assert all(o[0] == min(o) and 2 * n % len(o) == 0 for o in cycles)


def test_rotation_orbit_counts():
    counts = [orbit_count(turn_from_cycles(n)) for n in range(1, 6)]
    assert counts == [len(rotation_cycles(n)) for n in range(1, 6)] == [1, 2, 4, 10, 26]


@pytest.mark.parametrize("n", range(1, 6))
def test_pairing_is_rotation_invariant(n):
    table = dense_pairings(n)
    turn = turn_from_cycles(n)
    for i, row in enumerate(table):
        turned_row = table[turn[i]]
        assert all(turned_row[turn[j]] == v for j, v in enumerate(row))


@pytest.mark.parametrize("n", [*range(1, 6), pytest.param(6, marks=pytest.mark.slow)])
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
    assert tuple(gram_matrix(n).pairings) == dense_pairings(n)


@pytest.mark.slow
def test_pairing_table_6_matches_dense_pairings():
    assert tuple(_pairing_table(6)[1]) == dense_pairings(6)


@pytest.mark.parametrize("n", range(1, 5))
def test_pairing_rows_read_in_any_order_match_pair(n):
    g = gram_matrix(n)
    size = g.size()
    rng = random.Random(2300 + n)
    rows = [*range(size), *(rng.randrange(size) for _ in range(size))]
    rng.shuffle(rows)
    for i in rows:
        for j in (rng.randrange(size) for _ in range(2 * size)):
            assert g.pairings[i][j] == pair(g.basis[i], g.basis[j]), (i, j)
    assert len(g.pairings) == size
    with pytest.raises(IndexError):
        g.pairings[size]


@pytest.mark.parametrize("n", range(1, 6))
def test_pairing_rows_keep_one_row_per_rotation_cycle(n):
    # the row of each cycle's first diagram is handed out as stored;
    # every other row is built from it and is a fresh tuple
    rows = gram_matrix(n).pairings
    cycles = rows.cycles
    assert cycles == rotation_cycles(n)
    assert list(rows.firsts) == [o[0] for o in cycles]
    stored = {id(rows[o[0]]) for o in cycles}
    assert len(stored) == len(cycles)
    assert all(rows[o[0]] is rows[o[0]] for o in cycles)
    assert not any(id(rows[i]) in stored for o in cycles for i in o[1:])
    values = {id(v) for o in cycles for v in rows[o[0]]}
    assert len(values) == len(set().union(*(rows[o[0]] for o in cycles)))


# In a fresh process nothing is cached, so the traced memory is what
# the n = 6 table holds with its basis: 80 stored rows of 924, and the
# turns that reading a row not stored builds.
PAIRING_TABLE_6_SCRIPT = """
import gc, tracemalloc
from tlbgram.gram import _pairing_table
tracemalloc.start()
basis, rows = _pairing_table(6)
rows[max(rows.cycles, key=len)[1]]
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_pairing_table_6_holds_under_2_mb():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", PAIRING_TABLE_6_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 2 * 10**6


def table_mod(g, a_value, d_value, p):
    """The PairingRows of g's monomials at a = a_value, d = d_value, mod p."""
    return g.tabulate(lambda m, t: pow(a_value, m, p) * pow(d_value, t, p) % p)


def gram_mod(g, a_value, d_value, p):
    """The monomials of g at a = a_value, d = d_value, reduced mod p, as lists."""
    return [list(row) for row in table_mod(g, a_value, d_value, p)]


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
            assert gram_mod(g, av, dv, p) == expected


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
    for n in (1, 2, 3):
        expanded = determinant_product_form(n)
        for _ in range(10):
            av, dv = rng.randrange(p), rng.randrange(p)
            assert determinant_product_value_mod(n, av, dv, p) == poly_mod(expanded, av, dv, p)
    # the recurrence mod p agrees with chebyshev(i), i <= 8, at d, at -d and
    # at d = 0, under the largest prime p = 1 (mod 2n) below 2^53
    for n in range(1, 9):
        p = next(_primes(2 * n))
        av, dv = rng.randrange(p), rng.randrange(p)
        for d in (dv, -dv, 0):
            expected = prod(
                pow(chebyshev(i).evaluate(0, d) ** 2 - av * av, comb(2 * n, n - i), p)
                for i in range(1, n + 1)
            )
            assert determinant_product_value_mod(n, av, d, p) == expected % p


def test_determinant_is_monic_in_loop_variable():
    for n in (1, 2, 3):
        det = determinant_product_form(n)
        top = n * comb(2 * n, n)
        assert max(ed for _, ed in det.terms) == top
        assert {e: c for e, c in det.terms.items() if e[1] == top} == {(0, top): 1}


def test_product_form_matches_the_cofactor_expansion():
    # The cofactor oracle needs neither parity fact nor the node proof.
    for n in (1, 2):
        g = gram_matrix(n)
        assert determinant_product_form(n) == det_by_cofactor(g.entries.entries)


def count_agreement_calls(monkeypatch):
    """Record the prime of every _agrees_at call that determinant makes."""
    calls = []
    monkeypatch.setattr(
        "tlbgram.determinant._agrees_at",
        lambda g, a, d, p: calls.append(p) or _agrees_at(g, a, d, p),
    )
    return calls


def test_symbolic_determinant_eliminates_once_per_staircase_point(monkeypatch):
    calls = count_agreement_calls(monkeypatch)
    assert verify_determinant(3, mode="symbolic")["pass"] is True
    # one prime, the largest below 2^53 that is 1 mod 6;
    # x^i y^j with i <= 22, j <= 30 and i + j <= 30
    assert calls == [MODULAR_PRIMES[1]] * 460


def small_primes(m):
    """The primes below 2^20 that are 1 mod m, in decreasing order."""
    return (q for q in range(2**20 - 1, 2, -1) if q % m == 1 and is_prime(q))


def test_symbolic_determinant_takes_primes_until_the_bound(monkeypatch):
    # At n = 3 twice the coefficient bound is about 2^45: three 20-bit
    # primes, each 1 mod 6 and at all 460 nodes.
    monkeypatch.setattr("tlbgram.determinant._primes", small_primes)
    calls = count_agreement_calls(monkeypatch)
    assert verify_determinant(3, mode="symbolic")["pass"] is True
    primes = list(dict.fromkeys(calls))
    # Hadamard's 20^10 on det G, plus (L_i^2 + 1)^C(6, 3-i) with L = 1, 3, 4
    # on the product
    bound = 20**10 + 2**15 * 10**6 * 17
    assert prod(primes[:-1]) <= 2 * bound < prod(primes)
    assert len(primes) == 3
    assert all(p % 6 == 1 for p in primes)
    assert calls == [p for p in primes for _ in range(460)]


# Character blocks.  _character_det_mod reads det G mod p off the
# blocks C_j of Z/2n; the dense elimination of every entry is the oracle.


def test_character_product_matches_dense_det_at_every_staircase_node(monkeypatch):
    nodes = []

    def spy(g, a, d, p):
        det = _character_det_mod(g, a, d, p)
        assert det == _det_mod(gram_mod(g, a, d, p), p), (g.n, a, d, p)
        nodes.append(p)
        return det == determinant_product_value_mod(g.n, a, d, p)

    monkeypatch.setattr("tlbgram.determinant._agrees_at", spy)
    for n in (1, 2, 3):
        nodes.clear()
        assert verify_determinant(n, mode="symbolic")["pass"] is True
        assert nodes == [next(_primes(2 * n))] * len(nodes)
    assert len(nodes) == 460


@pytest.mark.parametrize("n, points", [(4, 3), (5, 2)])
def test_character_product_matches_dense_det_at_random_points(n, points):
    rng = random.Random(720 + n)
    g = gram_matrix(n)
    for p in islice(_primes(2 * n), 2):
        d0 = rng.randrange(p)
        # a = T_1(d0) = d0 makes det G vanish: a singular point
        randoms = [(rng.randrange(p), rng.randrange(p)) for _ in range(points)]
        for a, d in [(d0, d0)] + randoms:
            dense = _det_mod(gram_mod(g, a, d, p), p)
            assert _character_det_mod(g, a, d, p) == dense
            assert (dense == 0) == (a == d)


@pytest.mark.parametrize("n", range(1, 6))
def test_character_block_2n_minus_j_is_the_rescaled_transpose(n):
    # |o'| C_(2n-j)(o', o) = |o| C_j(o, o'), and the 2n blocks multiply to det G
    m = 2 * n
    p = next(_primes(m))
    rng = random.Random(730 + n)
    g = gram_matrix(n)
    table = table_mod(g, rng.randrange(p), rng.randrange(p), p)
    rows = [list(row) for row in table]
    powers = _root_powers(m, p)
    assert len(set(powers)) == m and pow(powers[1], m, p) == 1  # zeta has order m
    product = 1
    for j in range(m):
        sizes = [len(o) for o in table.cycles if j * len(o) % m == 0]
        c_j = _character_block(table, j, powers, p)
        c_bar = _character_block(table, -j % m, powers, p)
        assert len(c_j) == len(c_bar) == len(sizes)
        for a, s in enumerate(sizes):
            for b, s2 in enumerate(sizes):
                assert s2 * c_bar[b][a] % p == s * c_j[a][b] % p
        product = product * _det_mod(c_j, p) % p
    assert product == _det_mod(rows, p)


def test_a_prime_not_1_mod_2n_is_refused():
    # MODULAR_PRIMES[0] is 5 mod 6: no primitive 6th root of unity mod it
    assert MODULAR_PRIMES[0] % 6 == 5
    with pytest.raises(ValueError, match=r"1 \(mod 6\)"):
        verify_determinant(3, mode="modular", prime=MODULAR_PRIMES[0])
    with pytest.raises(ValueError):
        _agrees_at(gram_matrix(3), 1, 1, MODULAR_PRIMES[0])
    assert verify_determinant(3, mode="modular", trials=2)["prime"] == MODULAR_PRIMES[1]


def perturbed(n, i, j, dm, dt):
    """gram_matrix(n) with the pairing of i and j moved by a^dm d^dt.

    The stored rows change, so the table stays symmetric and kept by the
    turn R, as a fault in pair() would leave it: for i = o_r and j = o'_s,
    entry (i, j) is entry o'_(s-r) of row o_0, and entry (j, i) is entry
    o_(r-s) of row o'_0.  Every (R^k i, R^k j) and (R^k j, R^k i) moves.
    """
    g = gram_matrix(n)
    cycles = g.pairings.cycles
    place = {k: (o, r) for o in cycles for r, k in enumerate(o)}
    firsts = {first: list(row) for first, row in g.pairings.firsts.items()}
    for (o, r), (o2, s) in ((place[i], place[j]), (place[j], place[i])):
        k = o2[(s - r) % len(o2)]
        v = g.pairings.firsts[o[0]][k]
        firsts[o[0]][k] = PairingValue(v.nontrivial + dm, v.trivial + dt)
    broken = GramMatrix(n, g.basis, PairingRows(cycles, firsts))
    assert broken.pairings[i][j] == broken.pairings[j][i] == PairingValue(
        g.pairings[i][j].nontrivial + dm, g.pairings[i][j].trivial + dt
    )
    return broken


# At n = 2 the cycles are (0, 4) and (1, 3, 2, 5): neither 2 nor 3 is
# first in its cycle, so the perturbed pairing a^1 d^0 of (2, 3) is
# caught only through the turn.
def test_perturbed_tables_stay_symmetric_and_kept_by_the_turn():
    assert rotation_cycles(2) == ((0, 4), (1, 3, 2, 5))
    assert gram_matrix(2).pairings[2][3] == PairingValue(1, 0)
    turn = turn_from_cycles(2)
    for dm, dt in ((1, 0), (0, 1), (0, 2)):
        rows = tuple(perturbed(2, 2, 3, dm, dt).pairings)
        moved = {
            (i, j) for i in range(6) for j in range(6)
            if rows[i][j] != gram_matrix(2).pairings[i][j]
        }
        orbit = {(2, 3), (3, 2)}
        for _ in range(4):
            orbit |= {(turn[i], turn[j]) for i, j in orbit}
        assert moved == orbit and len(orbit) == 8
        assert all(rows[i][j] == rows[j][i] for i in range(6) for j in range(6))
        assert all(
            rows[turn[i]][turn[j]] == rows[i][j] for i in range(6) for j in range(6)
        )


def test_symbolic_determinant_refuses_a_wrong_parity(monkeypatch):
    broken = perturbed(2, 2, 3, 1, 0)
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
    broken = perturbed(2, 2, 3, 0, 1)
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    assert sign_conjugation_check(2)
    assert not d_parity_check(2)
    with pytest.raises(RuntimeError, match="not even in d"):
        verify_determinant(2, mode="symbolic")
    assert_one_line_error(capsys, "det-verify", "2")


def test_symbolic_mode_fails_when_a_node_disagrees(monkeypatch, capsys):
    # d^2 on a^1 d^0 keeps both parities and the table range, not det G
    broken = perturbed(2, 2, 3, 0, 2)
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    assert sign_conjugation_check(2)
    assert d_parity_check(2)
    rep = verify_determinant(2, mode="symbolic")
    assert rep["pass"] is False
    assert rep["determinant"] is None
    assert main(["det-verify", "2", "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["pass"], out["determinant"]) == (False, None)


def test_symbolic_proof_refuses_a_table_below_the_product_degrees(monkeypatch):
    # a^2 -> a^0 at (3, 5), and so at every a^2 of n = 2, keeps both
    # parities; the row bound on the a-degree of det G drops from 10 to 6,
    # below the product's 10, so the proof fails before any node
    broken = perturbed(2, 3, 5, -2, 0)
    monkeypatch.setattr("tlbgram.gram.gram_matrix", lambda n: broken)
    calls = count_agreement_calls(monkeypatch)
    assert sign_conjugation_check(2)
    assert d_parity_check(2)
    assert verify_determinant(2, mode="symbolic")["pass"] is False
    assert calls == []


def test_product_coefficients_stay_below_the_lucas_bound():
    # the cap _product_is_determinant puts on the product's coefficients:
    # prod_i (L_i^2 + 1)^C(2n, n-i), L_i the sum of |coefficients| of T_i
    for n in (1, 2, 3):
        lucas = [sum(map(abs, chebyshev(i).terms.values())) for i in range(n + 1)]
        assert lucas == [2, 1, 3, 4][: n + 1]
        cap = prod((lucas[i] ** 2 + 1) ** comb(2 * n, n - i) for i in range(1, n + 1))
        assert max(map(abs, determinant_product_form(n).terms.values())) <= cap
    assert cap == 2**15 * 10**6 * 17 < 20**10


# Both modes' report keys, in order, before the mode's own; cli.main alone
# adds "version".
REPORT_KEYS = ["n", "mode", "trials", "prime", "seed", "pass", "bound"]


def test_verify_symbolic_report():
    rep = verify_determinant(1, mode="symbolic")
    assert list(rep) == [*REPORT_KEYS, "determinant"]
    assert rep["pass"] is True
    assert rep["determinant"] == "-1*a^2*d^0 + 1*a^0*d^2"
    assert rep["mode"] == "symbolic"
    assert rep["bound"] == 0.0
    assert verify_determinant(2, mode="symbolic")["pass"] is True


def test_verify_modular_report():
    rep = verify_determinant(2, mode="modular", trials=8, seed=5)
    assert list(rep) == [*REPORT_KEYS, "trial_results"]
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
    det = determinant_product_form(2)
    deg_a = max(ea for ea, _ in det.terms)
    deg_d = max(ed for _, ed in det.terms)
    assert deg_a + deg_d <= degree_bound(2)


def test_specialized_nullity_frozen_values():
    assert specialized_nullity(1, 1, Fraction(3)) == 1
    assert specialized_nullity(2, 1, Fraction(7, 3)) == 4
    assert specialized_nullity(2, 2, Fraction(7, 3)) == 1


# nullity for k = 1..n at d0 = +-2, +-1 and 0, each certified exact
EXCEPTIONAL_NULLITIES = {
    2: {2: [4, 4], 1: [5, 5], 0: [6, 1]},
    3: {2: [15, 15, 15], 1: [19, 19, 1], 0: [20, 6, 20]},
    4: {2: [56, 56, 56, 56], 1: [69, 69, 8, 69], 0: [70, 28, 70, 28]},
    5: {2: [210] * 5, 1: [251, 251, 45, 251, 251], 0: [252, 120, 252, 120, 252]},
}


@pytest.mark.parametrize("n", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_nullities_at_the_exceptional_points(n):
    # d0 = q + 1/q at roots of unity q, where the nullity leaves
    # C(2n, n-k); at d0 = 0 with k odd, a = 0 and G = 0.
    for d0 in (2, 1, 0, -1, -2):
        expected = EXCEPTIONAL_NULLITIES[n][abs(d0)]
        d0 = Fraction(d0)
        nullities = [specialized_nullity(n, k, d0) for k in range(1, n + 1)]
        assert nullities == expected, d0
        if n <= 3:
            for k, nullity in enumerate(nullities, 1):
                a0 = (-1) ** (k - 1) * chebyshev(k).evaluate(0, d0)
                assert dense_nullity(n, lambda m, t: a0**m * d0**t) == nullity, (d0, k)


def test_specialized_nullity_validation():
    with pytest.raises(ValueError):
        specialized_nullity(2, 0, Fraction(2))
    with pytest.raises(ValueError):
        specialized_nullity(2, 3, Fraction(2))


def test_nullity_agrees_across_specialization_sign():
    # the two sign choices for the a-image give conjugate matrices
    rng = random.Random(402)
    from test_linalg import gram_at

    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        d0 = random_delta(rng)
        t_k = chebyshev(k).evaluate(0, d0)
        plus, minus = (scaled_rows(gram_at(n, a, d0).entries) for a in (t_k, -t_k))
        r_plus = rank_exact(plus)
        r_minus = rank_exact(minus)
        assert r_plus == r_minus


def rank_inputs(monkeypatch):
    """Record every integer matrix that rank_exact hands to _integer_rank."""
    seen = []

    def spy(rows):
        seen.append(rows)
        return _integer_rank(rows)

    monkeypatch.setattr("tlbgram.linalg._integer_rank", spy)
    return seen


def rotation_blocks(rows, n):
    """Each non-empty _rotation_block of the table rows, keyed by e."""
    blocks = {e: _rotation_block(rows, e) for e in range(1, 2 * n + 1)}
    return {e: block for e, block in blocks.items() if block}


def width(row):
    return max(abs(x).bit_length() for x in row)


def test_rank_rows_are_positive_multiples_of_the_evaluated_block_rows(monkeypatch):
    seen = rank_inputs(monkeypatch)
    for n in (2, 3):
        for a_value, d_value in (
            (Fraction(-7, 3), Fraction(5, 4)),
            (Fraction(2), Fraction(-9, 10)),
            (Fraction(3, 5), Fraction(1, 6)),
            (Fraction(-7, 9), Fraction(5, 3)),  # denominators share a factor
        ):
            seen.clear()
            _nullity_at(gram_matrix(n), a_value, d_value)
            table = gram_matrix(n).tabulate(lambda m, t: a_value**m * d_value**t)
            blocks = list(rotation_blocks(table, n).values())
            assert len(seen) == len(blocks)
            for rows, block in zip(seen, blocks):
                assert len(rows) == len(block)
                for row, evaluated in zip(rows, block):
                    assert all(isinstance(x, int) for x in row)
                    pivot = next(j for j, x in enumerate(evaluated) if x)
                    ratio = row[pivot] / evaluated[pivot]
                    assert ratio > 0
                    assert list(row) == [ratio * x for x in evaluated]
                    # no wider than the row cleared by the lcm of its denominators
                    scale = lcm(*(x.denominator for x in evaluated))
                    assert width(row) <= width([int(scale * x) for x in evaluated])


def test_rank_rows_are_as_narrow_as_the_row_lcm(monkeypatch):
    # On the Gram route a = T_k(d0) has denominator yd^k, so one common
    # factor xd^M yd^T would carry yd^(k M + T) on every row.  The dense
    # 70 x 70 rows cleared by their lcm read 160 bits here; a block entry
    # is a signed sum of up to 8 entries of G, folded and reduced mod
    # Phi_e, and each block row is divided by its content.
    seen = rank_inputs(monkeypatch)
    specialized_nullity(4, 4, Fraction(-997, 991))
    assert [max(map(width, rows)) for rows in seen] == [162, 144, 142, 112]


def test_cyclotomic_polynomials():
    assert _cyclotomic(1) == [-1, 1]
    assert _cyclotomic(4) == [1, 0, 1]
    assert _cyclotomic(6) == [1, -1, 1]
    assert _cyclotomic(12) == [1, 0, -1, 0, 1]
    for e in range(1, 15):
        product = [1]
        for c in range(1, e + 1):
            if e % c == 0:
                phi = _cyclotomic(c)
                out = [0] * (len(product) + len(phi) - 1)
                for i, x in enumerate(product):
                    for j, y in enumerate(phi):
                        out[i + j] += x * y
                product = out
        assert product == [-1] + [0] * (e - 1) + [1]


def test_rotation_block_sizes():
    sizes = {}
    for n in range(1, 6):
        blocks = rotation_blocks(gram_matrix(n).tabulate(lambda m, t: m + t), n)
        assert all(len(row) == len(block) for block in blocks.values() for row in block)
        sizes[n] = [len(block) for block in blocks.values()]
    assert sizes[3] == [4, 4, 6, 6]
    assert sizes[4] == [10, 10, 18, 32]
    assert sizes[5] == [26, 26, 100, 100]
    for n, block_sizes in sizes.items():
        assert sum(block_sizes) == comb(2 * n, n)


def blocks_mod(n, a_value, d_value, p):
    """Each rotation block of G at a = a_value, d = d_value, reduced mod p."""
    rows = table_mod(gram_matrix(n), a_value, d_value, p)
    return {
        e: [[x % p for x in row] for row in block]
        for e, block in rotation_blocks(rows, n).items()
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blocks_factor_the_determinant_mod_p(n):
    # G is similar over Q to the sum of its rotation blocks, so their
    # determinants multiply to det G with no change-of-basis factor.
    p = MODULAR_PRIMES[1]
    rng = random.Random(610 + n)
    for _ in range(3):
        a, d = rng.randrange(p), rng.randrange(p)
        product = prod(_det_mod(block, p) for block in blocks_mod(n, a, d, p).values())
        assert product % p == _det_mod(gram_mod(gram_matrix(n), a, d, p), p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rotation_block_det_is_the_product_of_its_character_dets(n):
    # The two routes read one block formula: block e is C_j with zeta^j
    # replaced by x, and its determinant is the norm of det C_j from
    # Q(zeta_e), the product over the characters j of order e.
    m = 2 * n
    p = next(_primes(m))
    powers = _root_powers(m, p)
    rng = random.Random(640 + n)
    for _ in range(3):
        a, d = rng.randrange(p), rng.randrange(p)
        rows = table_mod(gram_matrix(n), a, d, p)
        for e, block in blocks_mod(n, a, d, p).items():
            characters = [j for j in range(m) if m // gcd(j, m) == e]
            expected = prod(
                _det_mod(_character_block(rows, j, powers, p), p) for j in characters
            )
            assert _det_mod(block, p) == expected % p, (n, e)


def dense_nullity(n, value):
    """N minus the rank of the dense matrix of value(m, t), the oracle."""
    rows = scaled_rows(gram_matrix(n).tabulate(value))
    return comb(2 * n, n) - rank_exact(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_nullity_matches_the_dense_rank_on_the_gram_route(n):
    rng = random.Random(620 + n)
    g = gram_matrix(n)
    for k in range(1, n + 1):
        for sign in (1, -1):
            for _ in range(3):
                d0 = random_delta(rng)
                a_value = sign * chebyshev(k).evaluate(0, d0)
                expected = dense_nullity(n, lambda m, t: a_value**m * d0**t)
                assert _nullity_at(g, a_value, d0) == expected, (n, k, sign, d0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_nullity_matches_the_dense_rank_on_the_skein_route(n):
    rng = random.Random(630 + n)
    for k in range(1, n + 1):
        for sign in (1, -1):
            for _ in range(3):
                a0 = sign * abs(random_bracket_sample(rng))
                expected = dense_nullity(
                    n, lambda m, t: projector_pairing_value(k - 1, m, t).evaluate(a0)
                )
                assert skein_nullity(n, k, a0) == expected, (n, k, a0)


def test_tabulate_computes_each_exponent_pair_once():
    # and evaluates only the stored rows, on the cycles of the pairing table
    for n in range(1, 6):
        calls = []

        def value(m, t):
            calls.append((m, t))
            return (m, t)

        pairings = gram_matrix(n).pairings
        table = gram_matrix(n).tabulate(value)
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == (n + 1) ** 2
        assert [list(row) for row in table] == [
            [(v.nontrivial, v.trivial) for v in row] for row in pairings
        ]
        assert isinstance(table, PairingRows)
        assert table.cycles is pairings.cycles
        assert list(table.firsts) == list(pairings.firsts)
        for i, row in table.firsts.items():
            assert row == [(v.nontrivial, v.trivial) for v in pairings.firsts[i]]
            assert table[i] is row


def test_gram_matrix_takes_only_a_pairing_table():
    g = gram_matrix(2)
    with pytest.raises(ValueError, match="PairingRows"):
        GramMatrix(2, g.basis, tuple(g.pairings))
    with pytest.raises(ValueError, match="PairingRows"):
        GramMatrix(2, g.basis, [list(row) for row in g.pairings])


def test_resample_protocol_returns_all_samples():
    # each sample is the d0 that random_delta draws, as a reduced int pair
    value, samples = nullity_with_resample(2, 1, random.Random(0))
    assert value == 4
    assert 2 <= len(samples) <= 5
    assert all(
        type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1
        for p, q in samples
    )
    rng = random.Random(0)
    assert [Fraction(p, q) for p, q in samples] == [random_delta(rng) for _ in samples]


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
        assert d0 not in (0, 1, -1, 2, -2)
        assert abs(d0.numerator) <= 1000
        assert 1 <= d0.denominator <= 1000


def fraction_delta(rng):
    """The Fraction draw that _draw_delta carries as an int pair."""
    while True:
        d0 = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if d0 not in (0, 1, -1, 2, -2):
            return d0


def test_integer_delta_draw_replays_the_fraction_draw():
    # 1,000 seeds, five draws each.  Seed 656217 first draws -454/227 and
    # 620/310, which reduce to -2 and 2 and are drawn again.
    for seed in [*range(1000), 656217]:
        ints, fractions, wrapped = (random.Random(seed) for _ in range(3))
        for _ in range(5):
            d0 = fraction_delta(fractions)
            assert _draw_delta(ints) == d0.as_integer_ratio()
            assert random_delta(wrapped) == d0
        assert ints.getstate() == fractions.getstate() == wrapped.getstate()
    assert _draw_delta(random.Random(656217)) == (44, 53)


@pytest.mark.parametrize("n", [2, 3])
def test_nullity_at_reads_unreduced_pairs_as_their_ratios(n):
    # a common factor, negative too, scales every entry alike; the last
    # point is a = 1, d = 1, where the nullity is not the generic one
    g = gram_matrix(n)
    for a_value, d_value in (((-7, 3), (5, 4)), ((2, 1), (-9, 10)), ((1, 1), (1, 1))):
        reduced = _nullity_at(g, a_value, d_value)
        assert reduced == _nullity_at(g, Fraction(*a_value), Fraction(*d_value))
        for c, e in ((2, 3), (-5, 1), (6, -4)):
            scaled_a = (c * a_value[0], c * a_value[1])
            scaled_d = (e * d_value[0], e * d_value[1])
            assert _nullity_at(g, scaled_a, scaled_d) == reduced, (c, e)
    assert _nullity_at(g, (3, 3), (-2, -2)) == EXCEPTIONAL_NULLITIES[n][1][0]


def test_non_rational_samples_are_refused_under_python_O():
    script = """
from tlbgram.gram import _nullity_at, gram_matrix, specialized_nullity
from tlbgram._sampling import _laurent_ratio
from tlbgram.polynomials import LaurentScalar
from tlbgram.tl import skein_nullity
bad = [
    lambda: specialized_nullity(2, 1, "3/7"),
    lambda: specialized_nullity(2, 1, None),
    lambda: specialized_nullity(2, 1, 1j),
    lambda: specialized_nullity(2, 1, float("nan")),
    lambda: specialized_nullity(2, 1, [3, 7]),
    lambda: specialized_nullity(2, 1, (3, 0)),
    lambda: specialized_nullity(2, 1, (3, 7, 1)),
    lambda: specialized_nullity(2, 1, (1.5, 2)),
    lambda: specialized_nullity(2, 1, (True, 2)),
    lambda: skein_nullity(2, 1, "3/2"),
    lambda: skein_nullity(2, 1, (3, 0)),
    lambda: skein_nullity(2, 1, (0, 5)),
    lambda: skein_nullity(2, 1, (2, -2)),
    lambda: _nullity_at(gram_matrix(2), (1, 2), None),
    lambda: _laurent_ratio(LaurentScalar.monomial(2), 0, 3),
    lambda: _laurent_ratio(LaurentScalar.monomial(2), 3, 0),
    lambda: LaurentScalar.monomial(2).evaluate(0),
]
for call in bad:
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
