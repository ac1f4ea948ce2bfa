"""Convex permutominoes: validation, boundary statistics, and the bijection
with colored co-indecomposable square permutations.

A permutomino of size n is a self-avoiding lattice polygon carrying
exactly one side on each of the n vertical and n horizontal lines it
meets; it is convex when every turnpoint is a record of the turnpoint
set.  Note the size convention: the unit square has two vertical lines
and therefore size 2, so size always equals half the number of
turnpoints.

Turnpoint cycles are kept in canonical form: translated so the lowest
occupied lines are x = 0 and y = 0, oriented clockwise, starting from
the highest point of the leftmost line.  Such a cycle alternates white
and black turnpoints, white first, and each move from a white turnpoint
to the next black one is horizontal, so the n black turnpoints alone fix
it: white k is (x of black k - 1, y of black k), and white 0 sits on the
column of the last black turnpoint, x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, islice
from math import inf
from operator import eq
from typing import Iterable, Sequence

from .perm import (
    ColoredPermutation,
    Permutation,
    _read_int,
    _square_flags,
    _unchecked,
    free_fixed_points,
    is_co_decomposable,
    require_square,
)

Point = tuple[int, int]


class NotClosed(ValueError):
    """The boundary revisits a turnpoint or is too short to close."""


class NotAlternating(ValueError):
    """Consecutive turnpoints do not alternate horizontal/vertical moves."""


class SelfIntersecting(ValueError):
    """Two boundary sides cross or touch away from a shared turnpoint."""


class DuplicateSideOnLine(ValueError):
    def __init__(self, axis: str, line: int):
        super().__init__(f"more than one side on line {axis}={line}")
        self.axis = axis
        self.line = line


class MissingSideOnLine(ValueError):
    def __init__(self, axis: str, line: int):
        super().__init__(f"no side on line {axis}={line}")
        self.axis = axis
        self.line = line


class NotConvex(ValueError):
    def __init__(self, point: Point):
        super().__init__(f"turnpoint {point} is not a record of the boundary")
        self.point = point


class NotCoIndecomposable(ValueError):
    """The permutation splits as a skew sum, so no permutomino maps to it."""


@dataclass(frozen=True)
class BoundaryReport:
    size: int
    directed: bool
    parallelogram: bool


def cyclic_edges(points: Sequence[Point]) -> list[tuple[Point, Point]]:
    """Consecutive turnpoint pairs, the last one closing the cycle."""
    pts = list(points)
    return list(zip(pts, pts[1:] + pts[:1]))


def _check_no_gap(lines: Sequence[int], axis: str) -> None:
    """Raise MissingSideOnLine at the first skipped line of a sorted list."""
    for a, b in zip(lines, lines[1:]):
        if b != a + 1:
            raise MissingSideOnLine(axis, a + 1)


def _fenwick_add(tree: list[int], r: int, delta: int) -> None:
    while r < len(tree):
        tree[r] += delta
        r += r & -r


def _fenwick_range(tree: list[int], a: int, b: int) -> int:
    """Sum of the entries ranked in (a, b], for a <= b.

    The prefix walks down from b and from a meet at a common index, so
    only the steps before they meet are read.
    """
    total = 0
    while b > a:
        total += tree[b]
        b -= b & -b
    while a > b:
        total -= tree[a]
        a -= a & -a
    return total


def _extrema_before(
    lows: Sequence[int], highs: Sequence[int]
) -> tuple[list[float], list[float]]:
    """Max of ``highs`` and min of ``lows`` over the entries before each index."""
    tops = []
    bottoms = []
    top = -inf
    bottom = inf
    for lo, hi in zip(lows, highs):
        tops.append(top)
        bottoms.append(bottom)
        if hi > top:
            top = hi
        if lo < bottom:
            bottom = lo
    return tops, bottoms


def check_boundary(points: Sequence[Point], reduced: bool = True) -> BoundaryReport:
    """Validate a cyclic turnpoint sequence; return size and shape flags.

    With ``reduced`` every lattice line inside the bounding box must carry
    exactly one side (the permutomino condition); without it, lines may be
    skipped but no line may carry two sides (generic polygons on a grid).

    Faults are checked in a fixed order (NotClosed, NotAlternating,
    DuplicateSideOnLine, MissingSideOnLine, SelfIntersecting, NotConvex)
    and NotConvex names the first failing turnpoint in cycle order.  The
    cost is O(n log n) for n turnpoints: sorting the sides dominates, the
    crossing test is one sweep over x with a Fenwick tree over the
    horizontal lines, and the record test reads prefix and suffix extrema
    of the columns.
    """
    pts = [tuple(p) for p in points]
    if len(pts) < 4:
        raise NotClosed("need at least four turnpoints")
    if len(pts) % 2:
        raise NotAlternating("a rectilinear cycle has an even number of turnpoints")
    if len(set(pts)) != len(pts):
        raise NotClosed("boundary revisits a turnpoint")

    edges = cyclic_edges(pts)
    vertical = []
    for (x1, y1), (x2, y2) in edges:
        if (x1 == x2) == (y1 == y2):
            raise NotAlternating(f"step {(x1, y1)} -> {(x2, y2)} is not axis-aligned")
        vertical.append(x1 == x2)
    for i, (a, b) in enumerate(zip(vertical, vertical[1:] + vertical[:1])):
        if a == b:
            raise NotAlternating(f"two consecutive {'v' if a else 'h'} steps at turnpoint {i}")

    # line -> (low end, high end) of the one side on it
    v_lines: dict[int, tuple[int, int]] = {}
    h_lines: dict[int, tuple[int, int]] = {}
    start = 0 if vertical[0] else 1
    for (x, y1), (_, y2) in edges[start::2]:
        if x in v_lines:
            raise DuplicateSideOnLine("x", x)
        v_lines[x] = (y1, y2) if y1 < y2 else (y2, y1)
    for (x1, y), (x2, _) in edges[1 - start :: 2]:
        if y in h_lines:
            raise DuplicateSideOnLine("y", y)
        h_lines[y] = (x1, x2) if x1 < x2 else (x2, x1)
    xs = sorted(v_lines)
    ys = sorted(h_lines)
    if reduced:
        _check_no_gap(xs, "x")
        _check_no_gap(ys, "y")
    lows = [v_lines[x][0] for x in xs]
    highs = [v_lines[x][1] for x in xs]

    # Crossing sweep.  With one side per line, the only sides meeting a
    # vertical side at an end are its two neighbours, so a fault is exactly
    # a horizontal side whose closed x-span holds the vertical side's x and
    # whose y lies strictly between its ends.  Horizontal sides are counted
    # by the rank of their y in a Fenwick tree while their span is open.
    m = len(ys)
    rank = {y: r for r, y in enumerate(ys, 1)}
    opens = sorted((lo, rank[y]) for y, (lo, _) in h_lines.items())
    closes = sorted((hi, rank[y]) for y, (_, hi) in h_lines.items())
    tree = [0] * (m + 1)
    i = j = 0
    for x, lo, hi in zip(xs, lows, highs):
        while i < m and opens[i][0] <= x:
            _fenwick_add(tree, opens[i][1], 1)
            i += 1
        while j < m and closes[j][0] < x:
            _fenwick_add(tree, closes[j][1], -1)
            j += 1
        if _fenwick_range(tree, rank[lo], rank[hi] - 1):
            raise SelfIntersecting(
                f"a horizontal side crosses x={x} strictly between y={lo} and y={hi}"
            )

    # Record test.  The turnpoints on line x are the two ends of its side
    # and never block each other, so a turnpoint is a record when the
    # extrema over the columns strictly left or strictly right allow it.
    top_left, bottom_left = _extrema_before(lows, highs)
    top_right, bottom_right = _extrema_before(lows[::-1], highs[::-1])
    top_right.reverse()
    bottom_right.reverse()
    column = {x: c for c, x in enumerate(xs)}
    directed = True
    parallelogram = True
    for p in pts:
        x, y = p
        c = column[x]
        ul = top_left[c] <= y
        ur = top_right[c] <= y
        bl = bottom_left[c] >= y
        br = bottom_right[c] >= y
        if not (ul or ur or bl or br):
            raise NotConvex(p)
        if not (ul or ur or br):
            directed = False
        if not (ul or br):
            parallelogram = False

    return BoundaryReport(len(pts) // 2, directed, parallelogram)


def canonical_cycle(points: Iterable[Point]) -> tuple[Point, ...]:
    """Translate to the origin, orient clockwise, start at the canonical
    turnpoint (highest point of the leftmost line)."""
    pts = [tuple(p) for p in points]
    area2 = sum(
        x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in cyclic_edges(pts)
    )
    if area2 > 0:  # positive shoelace means counterclockwise
        pts.reverse()
    minx = min(x for x, _ in pts)
    miny = min(y for _, y in pts)
    pts = [(x - minx, y - miny) for x, y in pts]
    start = pts.index((0, max(y for x, y in pts if x == 0)))
    return tuple(pts[start:] + pts[:start])


def _cycle(xs: Sequence[int], ys: Sequence[int]) -> tuple[Point, ...]:
    """The clockwise cycle through the black turnpoints (xs[k], ys[k]),
    each entered from the white turnpoint (xs[k - 1], ys[k])."""
    cycle = [None] * (2 * len(xs))
    cycle[0::2] = zip(chain(xs[-1:], xs), ys)
    cycle[1::2] = zip(xs, ys)
    return tuple(cycle)


def _points(turnpoints: Iterable[Point]) -> list[Point]:
    """The turnpoints as tuples; a ValueError names the first one that is
    not a pair of ints (``bool`` is no int here, as in ``Permutation``)."""
    pts = []
    for p in turnpoints:
        try:
            p = tuple(p)
        except TypeError:
            raise ValueError(f"turnpoint {p!r} is not a pair of integers") from None
        if len(p) != 2 or type(p[0]) is not int or type(p[1]) is not int:
            raise ValueError(f"turnpoint {p!r} is not a pair of integers")
        pts.append(p)
    return pts


@dataclass(frozen=True)
class Permutomino:
    """A convex permutomino held as the black turnpoints of its canonical
    cycle, in cycle order: columns ``xs`` and rows ``ys``.

    It is built from and shown as its turnpoint cycle: the constructor
    takes the canonical cycle, and ``turnpoints``, ``repr`` and ``hash``
    read the cycle rebuilt from the two fields.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __init__(self, turnpoints: Iterable[Point]) -> None:
        pts = tuple(_points(turnpoints))
        check_boundary(pts)
        if pts != canonical_cycle(pts):
            raise ValueError(
                "turnpoints are not in canonical form; use Permutomino.from_turnpoints"
            )
        xs, ys = zip(*pts[1::2])
        self.__dict__.update(xs=xs, ys=ys)

    @classmethod
    def from_turnpoints(cls, points: Iterable[Point]) -> "Permutomino":
        pts = _points(points)
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts.pop()
        cycle = canonical_cycle(pts)
        check_boundary(cycle)
        xs, ys = zip(*cycle[1::2])
        return _unchecked(cls, xs=xs, ys=ys)

    @property
    def turnpoints(self) -> tuple[Point, ...]:
        return _cycle(self.xs, self.ys)

    @property
    def size(self) -> int:
        return len(self.xs)

    def __repr__(self) -> str:
        return f"Permutomino(turnpoints={self.turnpoints!r})"

    def __hash__(self) -> int:
        return hash((self.turnpoints,))


def parse_permutomino_text(text: str) -> Permutomino:
    """Parse ``x,y;x,y;...`` turnpoints."""
    pts = []
    for chunk in text.strip().split(";"):
        x_text, _, y_text = chunk.partition(",")
        x, y = _read_int(x_text.strip()), _read_int(y_text.strip())
        if x is None or y is None:
            raise ValueError(f"bad turnpoint {chunk!r}")
        pts.append((x, y))
    return Permutomino.from_turnpoints(pts)


#: the largest size whose column indices and numerals are kept between
#: calls: at 2^14 the two tables hold 1.58 MiB (tracemalloc, Python 3.11.7),
#: at 2^16 they would hold 6.36 MiB
_TABLE_CAP = 1 << 14

#: the ints 0, 1, ... and their decimal numerals, each grown to the largest
#: size up to ``_TABLE_CAP`` used so far.  A table grows only by binding a
#: new whole tuple, so a racing thread reads either table whole; threads
#: that race may build a table twice, or bind a shorter one over a longer
#: one that the next larger size builds again, nothing worse.
_INTS: tuple[int, ...] = ()
_NUMERALS: tuple[str, ...] = ()


def _ints(n: int) -> Sequence[int]:
    """The ints 0..n-1, maybe followed by more: the shared table, or a
    range of this call's own above ``_TABLE_CAP``."""
    global _INTS
    ints = _INTS
    if len(ints) < n:
        ints = range(n)
        if n <= _TABLE_CAP:
            ints = _INTS = tuple(ints)
    return ints


def _numerals(n: int) -> Sequence[str]:
    """The decimal numerals of 0..n-1, maybe followed by more: the shared
    table, or a list of this call's own above ``_TABLE_CAP``."""
    global _NUMERALS
    numerals = _NUMERALS
    if len(numerals) < n:
        numerals = [str(i) for i in range(n)]
        if n <= _TABLE_CAP:
            numerals = _NUMERALS = tuple(numerals)
    return numerals


def format_permutomino_text(p: Permutomino) -> str:
    """The turnpoint cycle as ``x,y;x,y;...``, written from the two fields:
    each coordinate is looked up in the numerals of 0..n-1, shared between
    calls up to size ``_TABLE_CAP`` and built per call above it."""
    n = len(p.xs)
    numerals = _numerals(n)
    xs = [numerals[x] for x in p.xs]
    ys = [numerals[y] for y in p.ys]
    # white k reads xs[k - 1],ys[k]; black k reads xs[k],ys[k]
    pieces = [None, ",", None, ";"] * (2 * n)
    pieces[0::8] = xs[-1:] + xs[:-1]
    pieces[2::8] = ys
    pieces[4::8] = xs
    pieces[6::8] = ys
    pieces.pop()
    return "".join(pieces)


def side_profile(p: Permutomino) -> tuple[int, int]:
    """(upper sides, left sides) of the boundary.

    Upper sides are the horizontal sides visible from above (traversed
    rightward on the clockwise cycle); left sides are the vertical sides
    traversed downward.
    """
    upper = 0
    left = 0
    for (x1, y1), (x2, y2) in cyclic_edges(p.turnpoints):
        if y1 == y2 and x2 > x1:
            upper += 1
        elif x1 == x2 and y2 < y1:
            left += 1
    return upper, left


def to_colored_permutation(p: Permutomino) -> ColoredPermutation:
    """The colored square permutation carried by the black turnpoints.

    Walking the canonical cycle, turnpoints alternate white/black with the
    bottom of the leftmost side black; the black points form a permutation
    matrix.  A free fixed point whose black turnpoint lies strictly inside
    the upper walk is colored (fixed points that are records have no walk
    choice and stay uncolored).
    """
    xs = p.xs
    values = [0] * len(xs)
    for x, y in zip(xs, p.ys):
        values[x] = y + 1
    perm = _unchecked(Permutation, values=tuple(values))
    free = free_fixed_points(perm)
    # the upper walk runs through the black turnpoints before column n - 1
    top_right = xs.index(len(xs) - 1)
    colored = frozenset(x + 1 for x in xs[:top_right] if x + 1 in free)
    return _unchecked(ColoredPermutation, perm=perm, colored=colored)


def from_colored_permutation(cp: ColoredPermutation) -> Permutomino:
    """The unique convex permutomino whose black turnpoints draw ``cp``.

    The input is checked in this order: size at least 2, square
    (NotSquare), co-indecomposable (NotCoIndecomposable).  The upper
    flags of the squareness sweep then give each point's walk, and the
    black turnpoints come out in canonical cycle order without a boundary
    check; O(n).
    """
    values = cp.perm.values
    if len(values) < 2:
        raise ValueError("permutominoes start at size 2")
    flags = _square_flags(values)
    if flags is None:
        require_square(values)  # raises NotSquare naming the first interior point
    if is_co_decomposable(values):
        raise NotCoIndecomposable(f"{values!r} splits as a skew sum")
    return _from_walks(cp, flags[0])


#: a column's walk, 1 (upper) or 0, by its letter U
_UPPER_LETTER = bytes.maketrans(b"UDX", b"\x01\x00\x00")
_OTHER_WALK = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _from_decoded(cp: ColoredPermutation, letters: Sequence[str]) -> Permutomino:
    """The permutomino of a colored co-indecomposable square ``cp``, given
    the letter pairs of its marked word (the word PERMUTOMINO-mode
    ``decode`` turned into ``cp``).  Nothing is checked; O(n).
    """
    upper = bytearray("".join(letters)[::2].encode().translate(_UPPER_LETTER))
    return _from_walks(cp, upper)


def _from_walks(cp: ColoredPermutation, upper: bytearray) -> Permutomino:
    """The permutomino of a colored co-indecomposable square ``cp``, given
    ``upper``, one byte per point: 1 for an upper point, else 0.  The
    bytes of the first, the last and the colored points do not matter,
    and ``upper`` is overwritten.

    The points become black turnpoints.  A point goes on the upper walk
    when it is flagged, unless it is a fixed point whose prefix fills the
    bottom-left block (an uncolored free fixed point); colored points and
    the last point go there too.  Clockwise, the cycle runs along the
    upper walk left to right, then back along the lower walk to point 0,
    and the permutomino holds the black points in that order.  Each black
    point is entered through the white corner on the previous black
    point's column, so the cycle starts at the top of the leftmost line,
    as canonical form wants.

    Column indices come from ``_ints``, so up to size ``_TABLE_CAP`` the
    walks read one shared table and make no int of their own.
    """
    values = cp.perm.values
    n = len(values)
    ints = _ints(n)
    upper[0] = 0
    start = high = 0  # high = max(values[:start])
    # the last point goes on the upper walk whatever its flag, so the
    # fixed-point scan stops before it
    for c in compress(ints, map(eq, values, islice(ints, 1, n))):
        if not upper[c]:
            continue
        high = max(high, *values[start:c])
        start = c
        if high == c:
            upper[c] = 0
    for c in cp.colored:
        upper[c - 1] = 1
    upper[n - 1] = 1
    # column 0 is on no walk, but it ends the lower walk read backwards
    xs = list(compress(ints, upper))
    xs += reversed(list(compress(ints, upper.translate(_OTHER_WALK))))
    ys = [values[c] - 1 for c in xs]
    return _unchecked(Permutomino, xs=tuple(xs), ys=tuple(ys))
