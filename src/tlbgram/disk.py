"""Disk-diagram combinatorics and the counting bijection.

A disk diagram on parameters (n, k) is a non-crossing perfect matching
of 2(n+k) boundary points read counter-clockwise: first the 2n outer
points a_1..a_{2n}, then l_1..l_k, then u_k..u_1.  It is kept as an
`annular.PlanarMatching` on n + k strands, the type that also indexes
TL_(n+k).  The admissible ones (no chord joining two l-points, none
joining two u-points) are counted by C(2n, n) - C(2n, n-k-1), which also
counts annular diagrams whose reference-segment crossing number is at
most k; both counts and the mark-set bijection behind them are
implemented here.
"""

from __future__ import annotations

from math import comb

from ._limits import guard, require
from .annular import (
    AnnularDiagram,
    PlanarMatching,
    diagram_from_marks,
    enumerate_diagrams,
)


def noncrossing_matchings(num_points: int):
    """Iterate every non-crossing matching of 0..num_points-1 as an involution.

    The argument is checked at the call, before the first matching.
    """
    require(
        num_points >= 0 and num_points % 2 == 0,
        f"need an even number of points >= 0, got {num_points}",
    )
    match = [0] * num_points

    def rec(lo: int, hi: int):
        # every matching of lo..hi-1, written into match before each yield
        if lo == hi:
            yield
            return
        for q in range(lo + 1, hi, 2):
            match[lo], match[q] = q, lo
            for _ in rec(lo + 1, q):
                yield from rec(q + 1, hi)

    return (tuple(match) for _ in rec(0, num_points))


def _disk_diagrams(n: int, k: int):
    """Iterate the disk diagrams for (n, k), checked at the call."""
    require(n >= 1 and k >= 0, f"need n >= 1 and k >= 0, got n={n}, k={k}")
    guard(n + k <= 8, f"enumerate_disk tested for n + k <= 8, got n+k={n + k}")
    return (
        PlanarMatching(n + k, match)
        for match in noncrossing_matchings(2 * (n + k))
    )


def enumerate_disk(n: int, k: int) -> tuple[PlanarMatching, ...]:
    """All disk diagrams for (n, k); there are Catalan(n + k) of them."""
    return tuple(_disk_diagrams(n, k))


def is_admissible(n: int, m: PlanarMatching) -> bool:
    """No chord inside the l-block and none inside the u-block of m on (n, m.k - n)."""
    lo_l, lo_u = 2 * n, n + m.k
    return not any(
        lo_l <= p < q < lo_u or lo_u <= p < q for p, q in enumerate(m.match)
    )


def count_tilde(n: int, k: int) -> int:
    """Number of admissible disk diagrams, by direct enumeration.

    The diagrams are counted one at a time: at n + k = 8 none of the
    1,430 is kept.
    """
    return sum(1 for m in _disk_diagrams(n, k) if is_admissible(n, m))


def tilde_count_formula(n: int, k: int) -> int:
    """Closed form C(2n, n) - C(2n, n-k-1) for the admissible count."""
    require(n >= 1 and k >= 0, f"need n >= 1 and k >= 0, got n={n}, k={k}")
    drop = comb(2 * n, n - k - 1) if n - k - 1 >= 0 else 0
    return comb(2 * n, n) - drop


def count_atmost(n: int, k: int) -> int:
    """Annular diagrams whose crossing number with the segment is <= k."""
    guard(n <= 6, f"count_atmost tested for n <= 6, got n={n}")
    return sum(1 for d in enumerate_diagrams(n) if d.cut_crossings() <= k)


def subset_to_diagram(n: int, marks, j: int) -> AnnularDiagram:
    """Diagram for an (n-j)-subset of marked points, 1 <= j <= n.

    Marked points seed the greedy chord pairing; the 2j survivors are
    then joined outside-in by j segment-crossing chords.  The resulting
    diagram always has crossing number at least j.
    """
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    marks = frozenset(marks)
    if len(marks) != n - j:
        raise ValueError(f"need exactly n-j={n - j} marks, got {len(marks)}")
    if not all(1 <= p <= 2 * n for p in marks):
        raise ValueError("marks must lie in 1..2n")
    d = diagram_from_marks(n, marks, phase2_chords=j)
    assert d.cut_crossings() >= j
    return d


def diagram_to_subset(d: AnnularDiagram, j: int) -> frozenset:
    """Inverse of subset_to_diagram on diagrams with crossing number >= j.

    Every w=0 chord is marked at its smaller endpoint.  The crossing
    chords of a planar diagram nest, and the stored order (by smaller
    endpoint) lists them from the outer gap inward; the first c-j are
    marked at their larger endpoint, the j innermost are left unmarked.
    """
    c = d.cut_crossings()
    if not 1 <= j <= d.n:
        raise ValueError(f"need 1 <= j <= n, got j={j}")
    if c < j:
        raise ValueError(f"diagram has crossing number {c} < j={j}")
    marks = {i for i, _, w in d.chords if w == 0}
    cutting = [jj for _, jj, w in d.chords if w]
    marks.update(cutting[: c - j])
    return frozenset(marks)


def telescoping_sides(n: int) -> tuple[int, int]:
    """Both sides of 2 * sum_i i*C(2n, n-i) = n * C(2n, n)."""
    require(n >= 1, f"need n >= 1, got n={n}")
    lhs = 2 * sum(i * comb(2 * n, n - i) for i in range(1, n + 1))
    rhs = n * comb(2 * n, n)
    return lhs, rhs


def telescoping_identity(n: int) -> bool:
    lhs, rhs = telescoping_sides(n)
    return lhs == rhs
