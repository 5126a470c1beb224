"""Annular diagrams: enumeration, non-crossing test, loop pairing.

Two independent oracles guard the core here.  Planarity and enumeration
are re-derived by brute force over all flagged matchings with a pairwise
test of the chords' lifts to the universal cover, which the package
decides by cutting the annulus open instead.  Pairing values are
re-derived by counting connected components of the lifted (periodic)
chord graph, which never looks at a winding sign.  The one stack pass
of diagram_from_marks is checked against the greedy rounds it replaced.
"""

import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest

from tlbgram.annular import (
    AnnularDiagram,
    PairingValue,
    diagram_from_marks,
    enumerate_diagrams,
    pair,
    rotation_cycles,
)


def all_perfect_matchings(points):
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for idx, second in enumerate(rest):
        for tail in all_perfect_matchings(rest[:idx] + rest[idx + 1 :]):
            yield ((first, second),) + tail


def lifts_cross(c1, c2, n):
    """Independent planarity oracle in the universal cover.

    The cover is a strip with the points repeated with period 2n.  A
    chord (i, j, w=0) lifts to (i + 2nt, j + 2nt); a chord (i, j, w=1)
    begins at its larger endpoint and passes through the gap, so it
    lifts to (j + 2nt, i + 2n(t+1)).  Two chords cross iff some pair of
    lifts interleaves, and since every lift spans less than one period
    it is enough to test translates t in -2..2 of c2 against c1 at t=0.
    """
    per = 2 * n

    def lifted(i, j, w, t):
        if w == 0:
            return (i + per * t, j + per * t)
        return (j + per * t, i + per * (t + 1))

    a, b = lifted(*c1, 0)
    for t in range(-2, 3):
        c, d = lifted(*c2, t)
        if (a < c < b) + (a < d < b) == 1:
            return True
    return False


def flagged_matchings(n):
    """Every perfect matching of 1..2n under every flag assignment."""
    for pairs in all_perfect_matchings(tuple(range(1, 2 * n + 1))):
        for flagbits in range(2**n):
            yield tuple(
                (i, j, (flagbits >> idx) & 1) for idx, (i, j) in enumerate(pairs)
            )


def oracle_planar(n, chords):
    return not any(lifts_cross(c1, c2, n) for c1, c2 in combinations(chords, 2))


def brute_force_diagrams(n):
    """Every flagged matching that the universal-cover oracle calls planar."""
    return {
        AnnularDiagram(n, chords)
        for chords in flagged_matchings(n)
        if oracle_planar(n, chords)
    }


def constructor_accepts(n, chords):
    try:
        AnnularDiagram(n, chords)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", range(1, 6))
def test_constructor_accepts_exactly_the_oracle_planar_matchings(n):
    # (2n-1)!! * 2**n: 2, 12, 120, 1,680 and 30,240 flagged matchings
    for chords in flagged_matchings(n):
        assert constructor_accepts(n, chords) == oracle_planar(n, chords), chords


def test_noncrossing_frozen_examples():
    AnnularDiagram(2, [(1, 2, 0), (3, 4, 0)])
    with pytest.raises(ValueError, match="cross"):
        AnnularDiagram(2, [(1, 3, 0), (2, 4, 0)])
    # cut open, the piece from L_2 to 3 crosses the piece from 2 to R_1
    with pytest.raises(ValueError, match="cross"):
        AnnularDiagram(2, [(1, 2, 1), (3, 4, 1)])


def test_noncrossing_interleaved_matching_fails_under_every_flag():
    for w1 in (0, 1):
        for w2 in (0, 1):
            with pytest.raises(ValueError, match="cross"):
                AnnularDiagram(2, [(1, 3, w1), (2, 4, w2)])


def test_noncrossing_rejects_malformed_input():
    with pytest.raises(ValueError):
        AnnularDiagram(2, [(1, 2, 0)])  # not a partition of 1..4
    with pytest.raises(ValueError):
        AnnularDiagram(1, [(1, 1, 0)])
    with pytest.raises(ValueError):
        AnnularDiagram(1, [(1, 2, 2)])
    with pytest.raises(ValueError):
        AnnularDiagram(1, [(0, 2, 0)])


def test_diagram_validation_and_normalization():
    d = AnnularDiagram(2, ((3, 4, 0), (2, 1, 0)))
    assert d.chords == ((1, 2, 0), (3, 4, 0))  # i<j, sorted
    with pytest.raises(ValueError):
        AnnularDiagram(2, ((1, 3, 0), (2, 4, 0)))


def test_cut_crossings_frozen_examples():
    assert AnnularDiagram(1, ((1, 2, 0),)).cut_crossings() == 0
    assert AnnularDiagram(1, ((1, 2, 1),)).cut_crossings() == 1
    assert AnnularDiagram(2, ((1, 4, 1), (2, 3, 1))).cut_crossings() == 2


def test_enumerate_smallest_basis():
    basis = enumerate_diagrams(1)
    assert set(basis) == {
        AnnularDiagram(1, ((1, 2, 0),)),
        AnnularDiagram(1, ((1, 2, 1),)),
    }


def test_enumerate_counts():
    for n, expected in ((1, 2), (2, 6), (3, 20), (4, 70)):
        assert len(enumerate_diagrams(n)) == expected == comb(2 * n, n)


def test_enumerate_matches_brute_force():
    for n in range(1, 5):
        assert set(enumerate_diagrams(n)) == brute_force_diagrams(n)


def test_enumerate_is_canonically_sorted_and_duplicate_free():
    # the documented order: (partner, flag) of each chord's smaller
    # endpoint in turn
    for n in range(1, 5):
        basis = enumerate_diagrams(n)
        keys = [tuple((j, w) for _, j, w in d.chords) for d in basis]
        assert keys == sorted(keys)
        assert len(set(basis)) == len(basis)


# The module is imported before tracing starts, so the peak is that of
# the enumeration: the 924 diagrams and the sort, which builds no keys.
TRACED_ENUMERATE_SCRIPT = """
import tracemalloc
from tlbgram.annular import enumerate_diagrams
tracemalloc.start()
enumerate_diagrams(6)
print(tracemalloc.get_traced_memory()[1])
"""


def test_enumerate_6_peaks_below_350_kb():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_ENUMERATE_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 350 * 2**10


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_diagrams(0)
    with pytest.raises(ValueError):
        enumerate_diagrams(8)


def test_max_cut_crossings_is_n():
    for n in range(1, 5):
        assert max(d.cut_crossings() for d in enumerate_diagrams(n)) == n


def test_pair_frozen_examples():
    d0 = AnnularDiagram(1, ((1, 2, 0),))
    d1 = AnnularDiagram(1, ((1, 2, 1),))
    assert pair(d0, d0) == PairingValue(0, 1)
    assert pair(d1, d1) == PairingValue(0, 1)
    assert pair(d0, d1) == PairingValue(1, 0)
    # every loop wraps the core, so each lifts to one loop of the cover
    for n in (2, 3):
        nested = [(i, 2 * n + 1 - i) for i in range(1, n + 1)]
        wrapped = AnnularDiagram(n, tuple((i, j, 1) for i, j in nested))
        plain = AnnularDiagram(n, tuple((i, j, 0) for i, j in nested))
        assert pair(wrapped, plain) == PairingValue(n, 0)


def test_pair_returns_one_object_per_value():
    # a table of pairings holds one PairingValue per (m, t), not one per pair
    for n in range(1, 5):
        basis = enumerate_diagrams(n)
        first: dict = {}
        for d1 in basis:
            for d2 in basis:
                v = pair(d1, d2)
                assert first.setdefault(v, v) is v
        assert len(first) <= (n + 1) ** 2


def test_basis_shares_one_tuple_per_distinct_chord():
    basis = enumerate_diagrams(6)
    slots = [c for d in basis for c in d.chords]
    assert (len(basis), len(slots)) == (924, 5544)
    assert len({id(c) for c in slots}) == len(set(slots)) == 72
    # a diagram built from fresh tuples is still equal to its basis twin
    twin = basis[417]
    fresh = AnnularDiagram(6, [tuple(list(c)) for c in reversed(twin.chords)])
    assert fresh == twin and hash(fresh) == hash(twin)
    assert all(a is b for a, b in zip(fresh.chords, twin.chords))
    assert basis.index(fresh) == 417
    # a bool flag is shared with no int flag, so each diagram prints its own
    texts = [AnnularDiagram(1, [(1, 2, w)]).to_text() for w in (True, 1)]
    assert texts == ["n=1;(1,2,w=True)", "n=1;(1,2,w=1)"]


def test_pair_rejects_size_mismatch():
    with pytest.raises(ValueError):
        pair(AnnularDiagram(1, ((1, 2, 0),)), enumerate_diagrams(2)[0])


def test_pair_symmetry_and_loop_budget():
    for n in range(1, 5):
        basis = enumerate_diagrams(n)
        for d1, d2 in combinations(basis, 2):
            v = pair(d1, d2)
            assert v == pair(d2, d1)
            assert v.nontrivial + v.trivial <= n


def test_pair_diagonal_is_all_trivial():
    for n in range(1, 5):
        for d in enumerate_diagrams(n):
            assert pair(d, d) == PairingValue(0, n)


def test_pair_parity_law():
    # nontrivial count is congruent to the two crossing numbers mod 2
    for n in range(1, 5):
        basis = enumerate_diagrams(n)
        for d1 in basis:
            for d2 in basis:
                m = pair(d1, d2).nontrivial
                assert (m - d1.cut_crossings() - d2.cut_crossings()) % 2 == 0


def lifted_edges(d, level, window):
    """Edges of one diagram copy at a given cover level.

    A flagged chord (i,j,w=1) connects j at this level to i one level
    up; a plain chord stays inside the level.
    """
    out = []
    for i, j, w in d.chords:
        if w == 0:
            out.append(((i, level), (j, level)))
        elif level + 1 < window:
            out.append(((j, level), (i, level + 1)))
    return out


def pairing_by_cover_components(d1, d2):
    """Winding-free oracle for pair().

    Glue the two diagrams and lift to a finite window of the periodic
    cover.  A trivial glued loop of level-span s appears as window - s
    cycle components, so the cycle count grows by the number of trivial
    loops when the window widens by one.  Loops that wrap the core lift
    to paths, never cycles, and the total loop count comes from a plain
    union-find on the un-lifted points.
    """
    n = d1.n

    def count_cycles(window):
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        degree = {}
        edge_count = {}
        edges = []
        for level in range(window):
            edges += lifted_edges(d1, level, window)
            edges += lifted_edges(d2, level, window)
        for x, y in edges:
            degree[x] = degree.get(x, 0) + 1
            degree[y] = degree.get(y, 0) + 1
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
        for x, y in edges:
            r = find(x)
            edge_count[r] = edge_count.get(r, 0) + 1
        roots = {find(x) for x in degree}
        nodes_in = {}
        for x in degree:
            nodes_in[find(x)] = nodes_in.get(find(x), 0) + 1
        # a component is a closed loop iff #edges == #nodes
        return sum(1 for r in roots if edge_count[r] == nodes_in[r])

    # total glued loops, flags ignored entirely
    parent = list(range(2 * n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in (d1, d2):
        for i, j, _ in d.chords:
            parent[find(i)] = find(j)
    loops_total = len({find(p) for p in range(1, 2 * n + 1)})

    window = 2 * n + 3
    trivial = count_cycles(window + 1) - count_cycles(window)
    return PairingValue(loops_total - trivial, trivial)


def test_pair_matches_cover_component_oracle_exhaustive():
    for n in range(1, 4):
        basis = enumerate_diagrams(n)
        for d1 in basis:
            for d2 in basis:
                assert pair(d1, d2) == pairing_by_cover_components(d1, d2), (d1, d2)


def test_pair_matches_cover_component_oracle_sampled():
    rng = random.Random(301)
    basis = enumerate_diagrams(4)
    for _ in range(150):
        d1, d2 = rng.choice(basis), rng.choice(basis)
        assert pair(d1, d2) == pairing_by_cover_components(d1, d2)


@pytest.mark.parametrize("n", [4, pytest.param(5, marks=pytest.mark.slow)])
def test_pair_matches_cover_component_oracle_on_rotation_orbit_rows(n):
    # one row per rotation orbit (26 of 252 at n = 5, about 7 s); with the
    # rotation invariance of pair (tests/test_gram.py) this covers every
    # pair, at n = 5 the table that the largest guarded Gram jobs build
    basis = enumerate_diagrams(n)
    for o in rotation_cycles(n):
        d1 = basis[o[0]]
        for d2 in basis:
            assert pair(d1, d2) == pairing_by_cover_components(d1, d2), (d1, d2)


def test_diagram_from_marks_worked_example():
    # two marks -> both chords drawn in the first round, no wrap
    assert diagram_from_marks(2, {1, 3}) == AnnularDiagram(2, ((1, 2, 0), (3, 4, 0)))
    # wrapping draw picks up the cut flag
    assert diagram_from_marks(1, {2}) == AnnularDiagram(1, ((1, 2, 1),))
    assert diagram_from_marks(1, {1}) == AnnularDiagram(1, ((1, 2, 0),))


def chords_from_marks_in_rounds(n, marks, phase2_chords):
    """Reference for diagram_from_marks: the greedy pairing in rounds.

    Each round draws, from every marked surviving point, a chord to its
    unmarked cyclic successor among the survivors (w=1 if the draw wraps
    past the gap), and removes the drawn endpoints.  The points left are
    then joined outermost pair first with w=1 chords.
    """
    marks = set(marks)
    surviving = list(range(1, 2 * n + 1))
    chords = []
    while marks:
        m = len(surviving)
        drawn = []
        for idx, p in enumerate(surviving):
            q = surviving[(idx + 1) % m]
            if p in marks and q not in marks:
                drawn.append((p, q, int(idx + 1 == m)))
        assert drawn, "greedy pairing stalled"
        used = {x for p, q, _ in drawn for x in (p, q)}
        chords += drawn
        surviving = [x for x in surviving if x not in used]
        marks -= used
    assert len(surviving) == 2 * phase2_chords
    while surviving:
        chords.append((surviving[0], surviving[-1], 1))
        surviving = surviving[1:-1]
    return chords


def test_diagram_from_marks_matches_the_rounds_on_every_input():
    # every mark set of every size with the phase-2 chords it leaves room
    # for, n <= 6: 3,367 inputs
    inputs = 0
    for n in range(1, 7):
        for phase2 in range(n + 1):
            for marks in combinations(range(1, 2 * n + 1), n - phase2):
                expected = chords_from_marks_in_rounds(n, marks, phase2)
                got = diagram_from_marks(n, marks, phase2)
                assert got == AnnularDiagram(n, expected), (n, marks, phase2)
                inputs += 1
    assert inputs == 3367


def test_text_form():
    d = AnnularDiagram(2, ((1, 2, 0), (3, 4, 1)))
    assert d.to_text() == "n=2;(1,2,w=0),(3,4,w=1)"
