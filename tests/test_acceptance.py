"""Acceptance suite: one check per shipped guarantee, one verdict line each.

Each test prints `ACCEPTANCE <k>: <what> (<elapsed>): PASS|FAIL` before
asserting, so a full run leaves a readable scoreboard.  Budgets are part
of the contract and are asserted alongside the mathematical checks.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from tlbgram.annular import PairingValue, enumerate_diagrams
from tlbgram.disk import (
    count_atmost,
    count_tilde,
    diagram_to_subset,
    subset_to_diagram,
    telescoping_identity,
    tilde_count_formula,
)
from tlbgram.gram import (
    gram_matrix,
    random_delta,
    sign_conjugation_check,
    specialized_nullity,
    verify_determinant,
)
from tlbgram.polynomials import substitute_loop_values
from tlbgram.tl import (
    TLElement,
    encircle,
    encircle_eigenvalue,
    jones_wenzl,
    quantum_dimension,
    random_bracket_sample,
    skein_matrix,
    skein_nullity,
)


def verdict(num, what, ok, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num}: {what} ({elapsed:.1f}s): {'PASS' if ok else 'FAIL'}")
    assert ok, what
    assert elapsed < budget, f"budget {budget}s exceeded: {elapsed:.1f}s"


def test_criterion_01_basis_counts():
    t0 = time.monotonic()
    counts = tuple(len(enumerate_diagrams(n)) for n in range(1, 8))
    ok = counts == (2, 6, 20, 70, 252, 924, 3432) and all(
        counts[n - 1] == comb(2 * n, n) for n in range(1, 8)
    )
    verdict(1, "basis sizes 2,6,20,70,252,924,3432 for n=1..7", ok, t0, 10)


def test_criterion_02_gram_structure():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 6):
        g = gram_matrix(n)
        m = g.entries.entries
        ok = ok and all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))
        cuts = [d.cut_crossings() for d in g.basis]
        for i in range(g.size()):
            ok = ok and g.pairings[i][i] == PairingValue(0, n)
            for j in range(g.size()):
                v = g.pairings[i][j]
                ok = ok and len(g.entries[i, j].terms) == 1
                ok = ok and (v.nontrivial - cuts[i] - cuts[j]) % 2 == 0
        if not ok:
            break
    verdict(2, "Gram matrices symmetric, monomial, parity-constrained, n<=5", ok, t0, 60)


def test_criterion_03_determinant_symbolic():
    t0 = time.monotonic()
    ok = all(
        verify_determinant(n, mode="symbolic")["pass"] for n in (1, 2, 3)
    )
    verdict(3, "determinant equals Chebyshev product symbolically, n<=3", ok, t0, 300)


def test_criterion_04_determinant_modular():
    t0 = time.monotonic()
    rep = verify_determinant(4, mode="modular", trials=32, seed=0)
    ok = (
        rep["pass"]
        and rep["trials"] >= 32
        and len(rep["trial_results"]) >= 32
        and rep["bound"] < 2**-30
    )
    verdict(4, "determinant matches product at 32 modular points, n=4", ok, t0, 600)


@pytest.mark.slow
def test_criterion_04_determinant_modular_larger():
    t0 = time.monotonic()
    rep = verify_determinant(5, mode="modular", trials=32, seed=0)
    ok = rep["pass"] and rep["bound"] < 2**-30
    verdict(4, "determinant matches product at 32 modular points, n=5", ok, t0, 1800)


def test_criterion_05_sign_conjugation():
    t0 = time.monotonic()
    ok = all(sign_conjugation_check(n) for n in range(1, 6))
    verdict(5, "negating the wrapping variable conjugates by signs, n<=5", ok, t0, 60)


def test_criterion_06_specialization_nullity_bounds():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for n in range(1, 5):
        for k in range(1, n + 1):
            for _ in range(3):
                nullity = specialized_nullity(n, k, random_delta(rng))
                ok = ok and nullity >= comb(2 * n, n - k)
    verdict(6, "specialized Gram nullity >= binomial bound, n<=4, 3 samples", ok, t0, 600)


def test_criterion_07_skein_nullity_route():
    t0 = time.monotonic()
    rng = random.Random(2025)
    ok = True
    for n in range(1, 5):
        for k in range(1, n + 1):
            for _ in range(2):
                a0 = random_bracket_sample(rng)
                nullity = skein_nullity(n, k, a0)
                ok = ok and nullity >= comb(2 * n, n - k)
                # matched parameters: same loop values through either route
                d0 = -(a0**2) - 1 / Fraction(a0) ** 2
                ok = ok and specialized_nullity(n, k, d0) == nullity
    verdict(7, "skein nullity >= bound and agrees with Gram route, n<=4", ok, t0, 600)


def test_criterion_08_projector_machinery():
    t0 = time.monotonic()
    ok = True
    for k in range(1, 7):
        f = jones_wenzl(k)
        ok = ok and f * f == f
        for i in range(1, k):
            e = TLElement.generator(i, k)
            ok = ok and (e * f).is_zero() and (f * e).is_zero()
        num, den = f.markov_closure()
        ok = ok and num == quantum_dimension(k) * den
    for k in range(1, 5):
        f = jones_wenzl(k)
        scaled = f.scale(encircle_eigenvalue(k))
        ok = ok and encircle(k) * f == scaled
    verdict(8, "projectors idempotent, cup-killed, closed, encircled, k<=6", ok, t0, 300)


def test_criterion_09_projector_scaled_entry_identity():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 4):
        g = gram_matrix(n)
        for k in range(1, 4):
            f = skein_matrix(n, k)
            dim = quantum_dimension(k - 1)
            a_image = encircle_eigenvalue(k - 1)
            for i in range(g.size()):
                for j in range(g.size()):
                    lhs = dim * substitute_loop_values(g.entries[i, j], a_image)
                    ok = ok and lhs == f.entries[i, j]
    verdict(9, "dimension-scaled specialization equals skein matrix, n,k<=3", ok, t0, 60)


def test_criterion_10_admissible_disk_counts():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 8):
        for k in range(0, 9 - n):
            ok = ok and count_tilde(n, k) == tilde_count_formula(n, k)
    for n in range(1, 7):
        for k in range(0, n + 1):
            ok = ok and count_atmost(n, k) == tilde_count_formula(n, k)
            if n + k <= 8:
                ok = ok and count_atmost(n, k) == count_tilde(n, k)
    verdict(10, "admissible counts match closed form and cut counts", ok, t0, 60)


def test_criterion_11_mark_set_bijection():
    t0 = time.monotonic()
    from itertools import combinations

    ok = True
    for n in range(1, 6):
        basis = enumerate_diagrams(n)
        for j in range(1, n + 1):
            stratum = [d for d in basis if d.cut_crossings() >= j]
            ok = ok and len(stratum) == comb(2 * n, n - j)
            for marks in combinations(range(1, 2 * n + 1), n - j):
                d = subset_to_diagram(n, marks, j)
                ok = ok and diagram_to_subset(d, j) == frozenset(marks)
            for d in stratum:
                ok = ok and subset_to_diagram(n, diagram_to_subset(d, j), j) == d
    verdict(11, "mark-set bijection round-trips both ways, n<=5", ok, t0, 60)


def test_criterion_12_telescoping():
    t0 = time.monotonic()
    ok = all(telescoping_identity(n) for n in range(1, 51))
    verdict(12, "weighted stratum sums telescope, n<=50", ok, t0, 1)
