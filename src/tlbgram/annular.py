"""Non-crossing chord diagrams in the annulus.

The annulus carries 2n marked points a_1..a_{2n} on the outer boundary,
numbered counter-clockwise.  A reference segment runs from the gap
between a_{2n} and a_1 to the inner boundary; each chord either avoids
it (flag w=0) or crosses it exactly once (w=1).  Chords wrapping the
core more than once are not diagrams here.

Planarity is decided by cutting the annulus open along the reference
segment into a disk.  Its boundary reads L_c..L_1, the points 1..2n,
then R_1..R_c, where c is the number of w=1 chords and L_h, R_h are the
two sides of the h-th crossing, counted inward from the outer boundary.
A chord (i, j, w=0) stays a chord; the h-th chord (i, j, w=1) in order
of i begins at j, leaves through R_h and comes back through L_h to i.
The diagram is planar iff this disk matching on 2n + 2c points is: the
crossings beside point 1 nest, so the smallest i must take L_1.

The pairing of two diagrams glues them along the outer boundary into
one annulus.  Each glued loop is a simple closed curve there, so it
winds around the core 0 or +-1 times: it is trivial (variable d) or
wraps the core once (variable a).  Its winding number is its signed
count of crossings of the reference segment, so it wraps iff it crosses
the segment an odd number of times, that is, iff the flags of the
chords it runs along have an odd sum.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import attrgetter, itemgetter

from ._limits import guard, require

# One shared tuple per distinct normalized chord: the 924 diagrams at
# n = 6 hold 5,544 chords, and only 72 differ.  Typed, so a bool flag
# is kept apart from its int.
_chord = lru_cache(maxsize=None, typed=True)(lambda *chord: chord)


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
        norm.append(_chord(i, j, w))
    if len(seen) != 2 * n:
        raise ValueError("chords must match all 2n points")
    norm.sort()
    return norm


def _cut_open(n: int, chords) -> tuple[int, ...]:
    """The disk matching of normalized chords cut along the segment.

    Node c-h is L_h, node c+p-1 is point p, and node c+2n+h-1 is R_h.
    """
    c = sum(w for _, _, w in chords)
    match = [0] * (2 * (n + c))
    h = 0
    for i, j, w in chords:
        p, q = c + i - 1, c + j - 1
        if w:
            h += 1
            left, right = c - h, c + 2 * n + h - 1
            match[p], match[left] = left, p
            match[q], match[right] = right, q
        else:
            match[p], match[q] = q, p
    return tuple(match)


class AnnularDiagram:
    """A planar flagged matching; chords normalized to i < j, sorted by i."""

    def __init__(self, n: int, chords: tuple[tuple[int, int, int], ...]):
        self.n = n
        self.chords = tuple(_validate_matching(n, chords))
        PlanarMatching(n + self.cut_crossings(), _cut_open(n, self.chords))

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
        """Each point's partner, and the flag of the chord at each point.

        Point p is node p-1 of 0..2n-1.
        """
        per = 2 * self.n
        points = [0] * per
        flags = [0] * per
        for i, j, w in self.chords:
            points[i - 1], points[j - 1] = j - 1, i - 1
            flags[i - 1] = flags[j - 1] = w
        return tuple(points), tuple(flags)

    def to_text(self) -> str:
        body = ",".join(f"({i},{j},w={w})" for i, j, w in self.chords)
        return f"n={self.n};{body}"


def diagram_from_marks(n: int, marks, phase2_chords: int = 0) -> AnnularDiagram:
    """Build a diagram from a set of marked points.

    Phase 1 joins each mark to the unmarked point that closes it, read
    as brackets counter-clockwise round the circle: a mark opens, an
    unmarked point closes the innermost open mark.  A chord that passes
    the gap gets w=1, the others w=0.  Phase 2 then joins the outermost
    pair of the points left with a w=1 chord, ``phase2_chords`` times,
    consuming everything left.
    """
    marks = set(marks)
    require(all(1 <= p <= 2 * n for p in marks), f"marks must lie in 1..{2 * n}")
    require(
        len(marks) + phase2_chords == n,
        f"need {n} chords, got {len(marks)} marks and {phase2_chords} phase-2 chords",
    )
    chords: list[tuple[int, int, int]] = []
    opened: list[int] = []
    free: list[int] = []  # unmarked points that no earlier mark takes
    for p in range(1, 2 * n + 1):
        if p in marks:
            opened.append(p)
        elif opened:
            chords.append((opened.pop(), p, 0))
        else:
            free.append(p)
    # Every free point precedes every mark still open, so these close
    # past the gap, the last one on the first free point.
    wraps = len(opened)
    chords += [(q, opened.pop(), 1) for q in free[:wraps]]
    left = free[wraps:]
    chords += [(left[h], left[-1 - h], 1) for h in range(phase2_chords)]
    return AnnularDiagram(n, tuple(chords))


@lru_cache(maxsize=None)
def enumerate_diagrams(n: int) -> tuple[AnnularDiagram, ...]:
    """All diagrams on 2n points, canonically ordered; there are C(2n, n).

    The canonical order compares the (partner, flag) of each chord's
    smaller endpoint in turn.  Chord 1 starts at point 1 and each later
    chord at the least point not yet used, so the stored chords compare
    the same way, and the sort reads them instead of building keys.
    """
    require(n >= 1, f"need n >= 1, got n={n}")
    guard(n <= 7, f"enumerate_diagrams tested for 1 <= n <= 7, got n={n}")
    out = [
        diagram_from_marks(n, marks)
        for marks in combinations(range(1, 2 * n + 1), n)
    ]
    out.sort(key=attrgetter("chords"))
    assert len(set(out)) == comb(2 * n, n)
    return tuple(out)


def rotation_cycles(n: int) -> tuple[tuple[int, ...], ...]:
    """The cycles of the turn R, i -> i+1 (mod 2n), on the basis.

    A cycle o lists o_0, o_1 = R(o_0), ..., o_(s-1) from its smallest
    basis index, and its size s divides 2n.  R takes a chord (i, 2n) to
    (1, i+1) with its flag toggled: its end moves past the reference
    segment.  Turning moves the segment, not the loops, and a closed
    loop's winding does not depend on where it is cut, so
    pair(R x, R y) == pair(x, y).
    """
    basis = enumerate_diagrams(n)
    index = {d.chords: k for k, d in enumerate(basis)}
    top = 2 * n
    cycles = []
    seen = set()
    for start in range(len(basis)):
        cycle, i = [], start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = index[tuple(sorted(
                (1, p + 1, 1 - w) if q == top else (p + 1, q + 1, w)
                for p, q, w in basis[i].chords
            ))]
        if cycle:
            cycles.append(tuple(cycle))
    return tuple(cycles)


class PlanarMatching:
    """Crossingless matching of 2k points on a circle: match[p] is p's partner.

    It indexes both TL_k (see tl) and the disk diagrams of disk.
    """

    __slots__ = ("k", "match")

    def __init__(self, k: int, match: tuple[int, ...]):
        self.k = k
        self.match = match
        if len(match) != 2 * k:
            raise ValueError("matching length must be 2k")
        stack: list[int] = []
        for p, q in enumerate(match):
            if q == p or not 0 <= q < 2 * k or match[q] != p:
                raise ValueError("not a fixed-point-free involution")
            if q > p:
                stack.append(p)
            elif not stack or stack[-1] != q:
                raise ValueError("matching has crossing chords")
            else:
                stack.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanarMatching):
            return NotImplemented
        return self.match == other.match

    def __hash__(self) -> int:
        return hash(self.match)

    def to_paren(self) -> str:
        """Balanced-parenthesis notation: '(' opens a chord, ')' closes it."""
        return "".join("(" if q > p else ")" for p, q in enumerate(self.match))


PairingValue = namedtuple("PairingValue", "nontrivial trivial")
PairingValue.__doc__ = "Evaluation of the bilinear form on two diagrams: a^m * d^t."


_pairing_value = lru_cache(maxsize=None)(PairingValue)


def pair(d1: AnnularDiagram, d2: AnnularDiagram) -> PairingValue:
    """Glue two diagrams along the outer boundary and sort the loops.

    One walk over the 2n points follows d1's chord, then d2's, until the
    loop closes, and XORs the flags of the chords it uses: a loop wraps
    the core iff that parity is odd.  Both diagrams share the points,
    since regluing keeps each point's angular position.  Equal values
    are one object, so a table of them holds one per (m, t).
    """
    if d1.n != d2.n:
        raise ValueError("diagrams live on different numbers of points")
    points1, flags1 = d1.involutions
    points2, flags2 = d2.involutions
    seen = [False] * len(points1)
    loops = wrapping = 0
    for start in range(len(points1)):
        if seen[start]:
            continue
        loops += 1
        v, odd = start, 0
        while not seen[v]:
            u = points1[v]
            seen[v] = seen[u] = True
            odd ^= flags1[v] ^ flags2[u]
            v = points2[u]
        wrapping += odd
    return _pairing_value(wrapping, loops - wrapping)


class PairingRows(Sequence):
    """A table of pairings, one row stored for each cycle of the turn R.

    cycles lists each cycle o of R on the basis as o_0, o_1 = R(o_0),
    ... (see rotation_cycles), and firsts maps each o_0 to its row; both
    are kept as given.  The turn keeps every pairing, so row o_r is row
    o_0 read through R^r: its entry k is firsts[o_0][R^-r(k)].  Row o_0
    is returned as stored, any other row is built when it is read, and
    the column permutations R^-r are built once, when a row is first
    read, so a reader of cycles and firsts alone never builds them.
    The rows may hold any values laid out that way, such as the
    evaluations of gram.GramMatrix.tabulate.
    """

    def __init__(self, cycles, firsts):
        self.cycles, self.firsts = cycles, firsts

    @cached_property
    def _places(self):
        """(i, o, r) for each i = o_r, in order of i."""
        return sorted((i, o, r) for o in self.cycles for r, i in enumerate(o))

    @cached_property
    def _turns(self):
        """_turns[s] picks the columns R^-s(k) = o_(r-s), k = o_r, for s > 0."""
        return [None] + [
            itemgetter(*(o[(r - s) % len(o)] for _, o, r in self._places))
            for s in range(1, max(map(len, self.cycles)))
        ]

    def __len__(self) -> int:
        return len(self._places)

    def __getitem__(self, i: int) -> Sequence:
        _, o, r = self._places[i]
        row = self.firsts[o[0]]
        return self._turns[r](row) if r else row
