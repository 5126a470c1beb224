"""Non-crossing chord diagrams in the annulus.

The annulus carries 2n marked points a_1..a_{2n} on the outer boundary,
numbered counter-clockwise.  A reference segment runs from the gap
between a_{2n} and a_1 to the inner boundary; each chord either avoids
it (flag w=0) or crosses it exactly once (w=1).  Chords wrapping the
core more than once are not diagrams here.

Planarity is decided in the universal cover (an infinite strip with the
points repeated with period 2n).  A chord (i, j, w=0) with i < j lifts
to the segments (i + 2nt, j + 2nt); a chord (i, j, w=1) begins at its
larger endpoint and passes through the gap, so it lifts to
(j + 2nt, i + 2n(t+1)).  Two chords cross iff some pair of lifts
interleaves, and since every lift spans less than one period it is
enough to test translates t in {-2..2} of one chord against the other
fixed at t=0.

The pairing of two diagrams glues them along the outer boundary into
one annulus.  Each glued loop is a simple closed curve there, so it
winds around the core 0 or +-1 times: it is trivial (variable d) or
wraps the core once (variable a) as it crosses the reference segment an
even or an odd number of times.  In the double cover where a w=1 chord
switches sheets, a wrapping loop lifts to one loop and a trivial loop to
two, so the loop counts below and in the cover give both numbers.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

from ._limits import guard, require
from .polynomials import BivariatePolynomial

_LIFT_RANGE = range(-2, 3)


def _lifted(i: int, j: int, w: int, n: int, t: int) -> tuple[int, int]:
    # lift of chord (i, j, w) shifted t periods; always returned with lo < hi
    per = 2 * n
    if w == 0:
        return (i + per * t, j + per * t)
    return (j + per * t, i + per * (t + 1))


def _chords_cross(c1, c2, n: int) -> bool:
    a, b = _lifted(*c1, n, 0)
    for t in _LIFT_RANGE:
        c, d = _lifted(*c2, n, t)
        inside = (a < c < b) + (a < d < b)
        if inside == 1:
            return True
    return False


def _validate_matching(n: int, chords) -> list[tuple[int, int, int]]:
    if n < 1:
        raise ValueError("need n >= 1")
    norm = []
    seen: set[int] = set()
    for chord in chords:
        i, j, w = chord
        if w not in (0, 1):
            raise ValueError(f"flag must be 0 or 1, got {w!r}")
        if not (1 <= i <= 2 * n and 1 <= j <= 2 * n) or i == j:
            raise ValueError(f"bad chord endpoints ({i}, {j}) for n={n}")
        if i > j:
            i, j = j, i
        if i in seen or j in seen:
            raise ValueError(f"point reused in chord ({i}, {j})")
        seen.update((i, j))
        norm.append((i, j, w))
    if len(seen) != 2 * n:
        raise ValueError("chords must match all 2n points")
    norm.sort()
    return norm


def is_noncrossing(n: int, chords) -> bool:
    """Whether a flagged matching is planar in the annulus.

    ``chords`` is any iterable of (i, j, w) triples forming a perfect
    matching of 1..2n; malformed input raises ValueError.
    """
    norm = _validate_matching(n, chords)
    return not any(
        _chords_cross(c1, c2, n) for c1, c2 in combinations(norm, 2)
    )


class AnnularDiagram:
    """A planar flagged matching; chords normalized to i < j, sorted by i."""

    def __init__(self, n: int, chords: tuple[tuple[int, int, int], ...]):
        self.n = n
        self.chords = tuple(_validate_matching(n, chords))
        for c1, c2 in combinations(self.chords, 2):
            if _chords_cross(c1, c2, n):
                raise ValueError(f"chords {c1} and {c2} cross")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnularDiagram):
            return NotImplemented
        return self.chords == other.chords

    def __hash__(self) -> int:
        return hash(self.chords)

    def cut_crossings(self) -> int:
        """How many chords cross the reference segment."""
        return sum(w for _, _, w in self.chords)

    @cached_property
    def involutions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The chords as involutions of the points and of the double cover.

        Point p is node p-1 of 0..2n-1.  In the cover, node p-1 + 2n*s
        on sheet s goes to q-1 + 2n*(s xor w) for the chord (p, q, w).
        """
        per = 2 * self.n
        points = [0] * per
        cover = [0] * (2 * per)
        for i, j, w in self.chords:
            points[i - 1], points[j - 1] = j - 1, i - 1
            for s in (0, 1):
                u, v = i - 1 + per * s, j - 1 + per * (s ^ w)
                cover[u], cover[v] = v, u
        return tuple(points), tuple(cover)

    def canonical_key(self) -> tuple:
        """Sort key: (partner, flag) of each chord's smaller endpoint in turn."""
        return tuple((j, w) for _, j, w in self.chords)

    def to_text(self) -> str:
        body = ",".join(f"({i},{j},w={w})" for i, j, w in self.chords)
        return f"n={self.n};{body}"

    @classmethod
    def from_text(cls, text: str) -> "AnnularDiagram":
        head, _, body = text.strip().partition(";")
        if not head.startswith("n="):
            raise ValueError(f"bad diagram header: {head!r}")
        n = int(head[2:])
        chords = []
        if body:
            for piece in body.split("),("):
                piece = piece.strip().lstrip("(").rstrip(")")
                i_s, j_s, w_s = piece.split(",")
                if not w_s.startswith("w="):
                    raise ValueError(f"bad chord: {piece!r}")
                chords.append((int(i_s), int(j_s), int(w_s[2:])))
        return cls(n, tuple(chords))

    def to_json_obj(self) -> list[dict]:
        return [{"i": i, "j": j, "w": w} for i, j, w in self.chords]


def diagram_from_marks(n: int, marks, phase2_chords: int = 0) -> AnnularDiagram:
    """Build a diagram from a set of marked points.

    Phase 1 repeatedly draws, in rounds, a w=0 chord from each marked
    surviving point to its unmarked cyclic successor among the survivors
    (a draw that wraps past the gap gets w=1 instead); drawn endpoints
    are removed.  Phase 2 then joins the outermost surviving pair with a
    w=1 chord, ``phase2_chords`` times, consuming everything left.
    """
    marks = set(marks)
    require(all(1 <= p <= 2 * n for p in marks), f"marks must lie in 1..{2 * n}")
    require(
        len(marks) + phase2_chords == n,
        f"need {n} chords, got {len(marks)} marks and {phase2_chords} phase-2 chords",
    )
    surviving = list(range(1, 2 * n + 1))
    chords: list[tuple[int, int, int]] = []
    while marks:
        m = len(surviving)
        drawn = []
        for idx, p in enumerate(surviving):
            if p in marks:
                q = surviving[(idx + 1) % m]
                if q not in marks:
                    drawn.append((p, q, idx + 1 == m))
        assert drawn, "greedy pairing stalled"
        used = set()
        for p, q, wraps in drawn:
            used.update((p, q))
            if wraps:
                # begins at the larger endpoint and crosses the gap
                chords.append((q, p, 1))
            else:
                chords.append((p, q, 0))
        surviving = [x for x in surviving if x not in used]
        marks -= used
    assert len(surviving) == 2 * phase2_chords
    while surviving:
        chords.append((surviving[0], surviving[-1], 1))
        surviving = surviving[1:-1]
    return AnnularDiagram(n, tuple(chords))


@lru_cache(maxsize=None)
def enumerate_diagrams(n: int) -> tuple[AnnularDiagram, ...]:
    """All diagrams on 2n points, canonically ordered; there are C(2n, n)."""
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 7, f"enumerate_diagrams tested for 1 <= n <= 7, got n={n}")
    out = [
        diagram_from_marks(n, marks)
        for marks in combinations(range(1, 2 * n + 1), n)
    ]
    out.sort(key=AnnularDiagram.canonical_key)
    assert len(set(out)) == comb(2 * n, n)
    return tuple(out)


def rotation_permutation(n: int) -> tuple[int, ...]:
    """Basis index of each diagram turned one step, i -> i+1 (mod 2n).

    The chord at 2n becomes (1, i+1) with its flag toggled: its end
    moves past the reference segment.  Turning moves the segment, not
    the loops, and a closed loop's winding does not depend on where it
    is cut, so pair(R x, R y) == pair(x, y) for the turn R.
    """
    basis = enumerate_diagrams(n)
    index = {d.chords: k for k, d in enumerate(basis)}
    top = 2 * n
    turned = (
        tuple(sorted(
            (1, i + 1, 1 - w) if j == top else (i + 1, j + 1, w)
            for i, j, w in d.chords
        ))
        for d in basis
    )
    return tuple(index[chords] for chords in turned)


class PairingValue:
    """Evaluation of the bilinear form on two diagrams: a^m * d^t."""

    __slots__ = ("nontrivial", "trivial")

    def __init__(self, nontrivial: int, trivial: int):
        self.nontrivial = nontrivial
        self.trivial = trivial

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairingValue):
            return NotImplemented
        return (self.nontrivial, self.trivial) == (other.nontrivial, other.trivial)

    def __hash__(self) -> int:
        return hash((self.nontrivial, self.trivial))

    def as_polynomial(self) -> BivariatePolynomial:
        return BivariatePolynomial.monomial(self.nontrivial, self.trivial)


def _trace(total, partial, ends: int) -> tuple[tuple[int, ...], int]:
    """Follow two involutions of the nodes 0..N-1 in turn.

    ``total`` is defined on every node, ``partial`` on every node but the
    ends 0..ends-1.  A path leaves an end along ``total`` and alternates
    until it reaches another end; the nodes no path visits form closed
    loops.  Returns the matching of the ends and the number of loops.
    """
    seen = [False] * len(total)
    ends_match = [0] * ends
    for start in range(ends):
        if seen[start]:
            continue
        v = total[start]
        while v >= ends:
            w = partial[v]
            seen[v] = seen[w] = True
            v = total[w]
        seen[start] = seen[v] = True
        ends_match[start], ends_match[v] = v, start
    loops = 0
    for start in range(ends, len(total)):
        if seen[start]:
            continue
        loops += 1
        v = start
        while not seen[v]:
            w = partial[v]
            seen[v] = seen[w] = True
            v = total[w]
    return tuple(ends_match), loops


def pair(d1: AnnularDiagram, d2: AnnularDiagram) -> PairingValue:
    """Glue two diagrams along the outer boundary and sort the loops.

    A trivial loop lifts to two loops of the double cover and a wrapping
    loop to one, so L loops below and L2 in the cover make L2 - L trivial
    loops and 2L - L2 wrapping ones.  Both diagrams share the points and
    the sheets, since regluing keeps each point's angular position.
    """
    if d1.n != d2.n:
        raise ValueError("diagrams live on different numbers of points")
    points1, cover1 = d1.involutions
    points2, cover2 = d2.involutions
    loops = _trace(points1, points2, 0)[1]
    lifted = _trace(cover1, cover2, 0)[1]
    return PairingValue(2 * loops - lifted, lifted - loops)
