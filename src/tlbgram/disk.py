"""Disk-diagram combinatorics and the counting bijection.

A disk diagram on parameters (n, k) is a non-crossing perfect matching
of 2(n+k) boundary points read counter-clockwise: first the 2n outer
points a_1..a_{2n}, then l_1..l_k, then u_k..u_1.  The admissible ones
(no chord joining two l-points, none joining two u-points) are counted
by C(2n, n) - C(2n, n-k-1), which also counts annular diagrams whose
reference-segment crossing number is at most k; both counts and the
mark-set bijection behind them are implemented here.
"""

from __future__ import annotations

from math import comb

from ._limits import guard, require
from .annular import AnnularDiagram, diagram_from_marks

__all__ = [
    "DiskDiagram",
    "noncrossing_matchings",
    "enumerate_disk",
    "count_tilde",
    "tilde_count_formula",
    "count_atmost",
    "count_atleast",
    "subset_to_diagram",
    "diagram_to_subset",
    "telescoping_sides",
    "telescoping_identity",
]


def noncrossing_matchings(num_points: int):
    """Iterate every non-crossing matching of 0..num_points-1 as sorted pairs.

    The argument is checked at the call, before the first matching.
    """
    require(
        num_points >= 0 and num_points % 2 == 0,
        f"need an even number of points >= 0, got {num_points}",
    )

    def rec(points):
        if not points:
            yield ()
            return
        first = points[0]
        for idx in range(1, len(points), 2):
            for inside in rec(points[1:idx]):
                for outside in rec(points[idx + 1 :]):
                    yield ((first, points[idx]),) + inside + outside

    return rec(tuple(range(num_points)))


class DiskDiagram:
    """Non-crossing matching of the 2(n+k) disk boundary points."""

    __slots__ = ("n", "k", "pairs")

    def __init__(self, n: int, k: int, pairs: tuple[tuple[int, int], ...]):
        self.n = n
        self.k = k
        self.pairs = pairs
        flat = [p for pair in pairs for p in pair]
        require(sorted(flat) == list(range(2 * (n + k))), "not a perfect matching")
        spans = [(min(a, b), max(a, b)) for a, b in pairs]
        crossed = any(
            (lo < c < hi) != (lo < d < hi)
            for (lo, hi), (c, d) in _pairs_of_pairs(spans)
        )
        require(not crossed, "chords cross")

    def label(self, position: int) -> str:
        """Boundary labels: a_1..a_{2n}, l_1..l_k, then u_k down to u_1."""
        if position < 2 * self.n:
            return f"a{position + 1}"
        if position < 2 * self.n + self.k:
            return f"l{position - 2 * self.n + 1}"
        return f"u{2 * (self.n + self.k) - position}"

    def is_admissible(self) -> bool:
        """No chord inside the l-block and none inside the u-block."""
        lo_l = 2 * self.n
        lo_u = 2 * self.n + self.k
        for a, b in self.pairs:
            if lo_l <= a < lo_u and lo_l <= b < lo_u:
                return False
            if a >= lo_u and b >= lo_u:
                return False
        return True


def _pairs_of_pairs(pairs):
    for idx, p in enumerate(pairs):
        for q in pairs[idx + 1 :]:
            yield p, q


def enumerate_disk(n: int, k: int) -> tuple[DiskDiagram, ...]:
    """All disk diagrams for (n, k); there are Catalan(n + k) of them."""
    require(n >= 1 and k >= 0, f"need n >= 1 and k >= 0, got n={n}, k={k}")
    guard(n + k <= 8, f"enumerate_disk tested for n + k <= 8, got n+k={n + k}")
    return tuple(
        DiskDiagram(n, k, pairs)
        for pairs in noncrossing_matchings(2 * (n + k))
    )


def count_tilde(n: int, k: int) -> int:
    """Number of admissible disk diagrams, by direct enumeration."""
    return sum(1 for d in enumerate_disk(n, k) if d.is_admissible())


def tilde_count_formula(n: int, k: int) -> int:
    """Closed form C(2n, n) - C(2n, n-k-1) for the admissible count."""
    require(n >= 1 and k >= 0, f"need n >= 1 and k >= 0, got n={n}, k={k}")
    drop = comb(2 * n, n - k - 1) if n - k - 1 >= 0 else 0
    return comb(2 * n, n) - drop


def count_atmost(n: int, k: int) -> int:
    """Annular diagrams whose crossing number with the segment is <= k."""
    from .annular import enumerate_diagrams

    guard(n <= 6, f"count_atmost tested for n <= 6, got n={n}")
    return sum(1 for d in enumerate_diagrams(n) if d.cut_crossings() <= k)


def count_atleast(n: int, j: int) -> int:
    """Annular diagrams whose crossing number is >= j; equals C(2n, n-j)."""
    from .annular import enumerate_diagrams

    guard(n <= 6, f"count_atleast tested for n <= 6, got n={n}")
    return sum(1 for d in enumerate_diagrams(n) if d.cut_crossings() >= j)


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

    Every w=0 chord is marked at its smaller endpoint.  Crossing chords
    are totally ordered by the span of their lifted interval; the c-j
    with smallest span (nearest the outer gap) are marked at their
    larger endpoint, the j largest are left unmarked.
    """
    c = d.cut_crossings()
    if not 1 <= j <= d.n:
        raise ValueError(f"need 1 <= j <= n, got j={j}")
    if c < j:
        raise ValueError(f"diagram has crossing number {c} < j={j}")
    marks = set()
    cutting = []
    for i, jj, w in d.chords:
        if w == 0:
            marks.add(i)
        else:
            cutting.append((i + 2 * d.n - jj, jj))
    cutting.sort()
    spans = [s for s, _ in cutting]
    assert len(set(spans)) == len(spans), "cutting chords not totally ordered"
    marks.update(endpoint for _, endpoint in cutting[: c - j])
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
