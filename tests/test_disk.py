"""Disk diagram counting and the mark-set bijection."""

import os
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest

from tlbgram.annular import (
    AnnularDiagram,
    PlanarMatching,
    _cut_open,
    enumerate_diagrams,
)
from tlbgram.disk import (
    count_atmost,
    count_tilde,
    diagram_to_subset,
    enumerate_disk,
    is_admissible,
    noncrossing_matchings,
    subset_to_diagram,
    telescoping_identity,
    telescoping_sides,
    tilde_count_formula,
)


def catalan(m):
    return comb(2 * m, m) // (m + 1)


def test_noncrossing_matching_counts_are_catalan():
    for m in range(7):
        assert sum(1 for _ in noncrossing_matchings(2 * m)) == catalan(m)


def test_noncrossing_matchings_never_interleave():
    seen = set()
    for match in noncrossing_matchings(8):
        assert all(q != p and match[q] == p for p, q in enumerate(match))
        pairs = [(p, q) for p, q in enumerate(match) if p < q]
        for (a, b), (c, d) in combinations(pairs, 2):
            assert ((a < c < b) + (a < d < b)) % 2 == 0
        seen.add(match)
    assert len(seen) == catalan(4)


def test_disk_diagram_validation():
    # a disk diagram on (n, k) is a planar matching on n + k strands
    with pytest.raises(ValueError):
        PlanarMatching(2, (1, 2, 1, 0))  # point 1 reused
    with pytest.raises(ValueError):
        PlanarMatching(2, (2, 3, 0, 1))  # crossing
    assert all(m.k == 4 for m in enumerate_disk(1, 3))


def test_enumerate_disk_frozen_counts():
    assert len(enumerate_disk(1, 0)) == 1
    assert len(enumerate_disk(2, 0)) == 2
    assert len(enumerate_disk(1, 1)) == 2
    for n, k in ((1, 2), (2, 2), (3, 1)):
        assert len(enumerate_disk(n, k)) == catalan(n + k)


def test_enumerate_disk_guard():
    with pytest.raises(ValueError):
        enumerate_disk(5, 4)


def test_guard_override_env_var(monkeypatch):
    monkeypatch.setenv("TLBGRAM_ALLOW_LARGE", "1")
    assert len(enumerate_disk(5, 4)) == catalan(9)


def test_admissibility_filter():
    # an l-l or a u-u chord is filtered out, an a-a chord is kept
    l_to_l = PlanarMatching(3, (1, 0, 3, 2, 5, 4))  # (2,3) joins l1,l2
    assert not is_admissible(1, l_to_l)
    u_to_u = PlanarMatching(3, (3, 2, 1, 0, 5, 4))  # (4,5) joins u2,u1
    assert not is_admissible(1, u_to_u)
    good = PlanarMatching(3, (1, 0, 5, 4, 3, 2))
    assert is_admissible(1, good)


def test_count_tilde_frozen_values():
    assert count_tilde(2, 1) == 5
    assert count_tilde(1, 1) == 2
    for n in range(1, 6):
        assert count_tilde(n, 0) == catalan(n)


def test_count_tilde_matches_formula_everywhere():
    for n in range(1, 8):
        for k in range(0, 9 - n):
            assert count_tilde(n, k) == tilde_count_formula(n, k), (n, k)


def test_count_atmost_frozen_values():
    assert count_atmost(1, 0) == 1
    assert count_atmost(2, 1) == 5
    for n in range(1, 6):
        assert count_atmost(n, n) == comb(2 * n, n)


def test_count_atmost_equals_admissible_count():
    for n in range(1, 7):
        for k in range(0, n + 1):
            assert count_atmost(n, k) == tilde_count_formula(n, k)
            if n + k <= 8:
                assert count_atmost(n, k) == count_tilde(n, k)


def test_strata_counts():
    for n in range(1, 7):
        crossings = [d.cut_crossings() for d in enumerate_diagrams(n)]
        for j in range(0, n + 1):
            assert sum(1 for c in crossings if c >= j) == comb(2 * n, n - j)


def test_dimension_bound_equality():
    # admissible count at k-1 fills the whole complement of the k-th stratum
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert tilde_count_formula(n, k - 1) == comb(2 * n, n) - comb(2 * n, n - k)


def test_count_guards():
    with pytest.raises(ValueError):
        count_atmost(7, 1)


def padded_cut_open(d, k):
    """Annular diagram d with c <= k crossings as a disk diagram on (d.n, k).

    Turned back by c nodes, the cut-open layout L_c..L_1, 1..2n,
    R_1..R_c reads a_1..a_2n, l_1..l_c, u_c..u_1, so R_h becomes l_h and
    L_h becomes u_h; the k - c innermost pairs l_m, u_m (m > c) are then
    joined by chords.
    """
    n, c = d.n, d.cut_crossings()
    size = 2 * (n + k)
    match = [0] * size
    for x, y in enumerate(_cut_open(n, d.chords)):
        match[(x - c) % size] = (y - c) % size
    for m in range(c + 1, k + 1):
        low, up = 2 * n + m - 1, size - m
        match[low], match[up] = up, low
    return PlanarMatching(n + k, tuple(match))


def test_cut_open_diagrams_padded_to_k_are_the_admissible_disk_diagrams():
    # why criterion 10's count_atmost(n, k) == count_tilde(n, k) holds:
    # the padding maps the one set one to one onto the other
    for n in range(1, 7):
        basis = enumerate_diagrams(n)
        for k in range(0, 9 - n):
            padded = [padded_cut_open(d, k) for d in basis if d.cut_crossings() <= k]
            admissible = {m for m in enumerate_disk(n, k) if is_admissible(n, m)}
            assert len(set(padded)) == len(padded)
            assert set(padded) == admissible


def test_bijection_worked_examples():
    assert subset_to_diagram(2, {4}, 1) == AnnularDiagram(2, ((1, 4, 1), (2, 3, 1)))
    assert subset_to_diagram(1, set(), 1) == AnnularDiagram(1, ((1, 2, 1),))
    assert diagram_to_subset(AnnularDiagram(2, ((1, 4, 1), (2, 3, 1))), 1) == {4}
    assert diagram_to_subset(AnnularDiagram(1, ((1, 2, 1),)), 1) == frozenset()


def test_bijection_input_validation():
    with pytest.raises(ValueError):
        subset_to_diagram(2, {1}, 0)
    with pytest.raises(ValueError):
        subset_to_diagram(2, {1}, 3)
    with pytest.raises(ValueError):
        subset_to_diagram(2, {1, 2}, 1)  # wrong mark count
    with pytest.raises(ValueError):
        subset_to_diagram(2, {9}, 1)
    with pytest.raises(ValueError):
        diagram_to_subset(AnnularDiagram(1, ((1, 2, 0),)), 1)  # too few crossings


def test_bijection_forward_roundtrip_and_injectivity():
    for n in range(1, 5):
        for j in range(1, n + 1):
            images = set()
            for marks in combinations(range(1, 2 * n + 1), n - j):
                d = subset_to_diagram(n, marks, j)
                assert d.cut_crossings() >= j
                assert diagram_to_subset(d, j) == frozenset(marks)
                images.add(d)
            assert len(images) == comb(2 * n, n - j)


def test_bijection_reverse_roundtrip_covers_stratum():
    for n in range(1, 5):
        basis = enumerate_diagrams(n)
        for j in range(1, n + 1):
            stratum = [d for d in basis if d.cut_crossings() >= j]
            assert len(stratum) == comb(2 * n, n - j)
            for d in stratum:
                marks = diagram_to_subset(d, j)
                assert subset_to_diagram(n, marks, j) == d


def test_telescoping():
    for n in range(1, 51):
        assert telescoping_identity(n)
    lhs, rhs = telescoping_sides(3)
    assert lhs == rhs == 3 * comb(6, 3)


TRACED_COUNT_SCRIPT = """
import tracemalloc
from tlbgram.disk import count_tilde
tracemalloc.start()
assert count_tilde(6, 2) == 704
print(tracemalloc.get_traced_memory()[1])
"""


def test_count_tilde_keeps_one_disk_diagram_at_a_time():
    # all 1,430 matchings of 16 points held at once peak near 320 kB
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_COUNT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 64 * 2**10
