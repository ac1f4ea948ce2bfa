"""Permutations as plane point sets: records and subclasses.

A permutation s of {1..n} is identified with its plot, the point set
{(i, s(i))}.  Every point carries a record mask, one bit per diagonal
direction; a point with no bit at all is interior.  Squareness is decided
once, by one sweep along the record chains (``_square_flags``), which
also gives the marked-word letters of a square without the masks.  The
triangular and parallel shapes, the free fixed points, the upper and
left counts and the NotSquare message of ``require_square`` are read
from the masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union


class NotSquare(ValueError):
    """The operation needs a permutation whose plot has no interior point."""


#: Record bits of a point, one per diagonal direction: UL when no point
#: lies above and to its left, and so on.  A point with none is interior.
UL, UR, BL, BR = 1, 2, 4, 8
#: an upper point reads U in its marked word, a left point reads L
UPPER = UL | UR
LEFT = UL | BL
#: a point's flag by its record mask, 1 or 0, for ``bytearray.translate``:
#: whether it is an upper point, whether it is a left point
_UPPER_FLAG = bytes(1 if m & UPPER else 0 for m in range(256))
_LEFT_FLAG = bytes(1 if m & LEFT else 0 for m in range(256))


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, with
    its checks skipped: only for values the package has just derived and
    proven well formed, each in the normal form the checked constructor
    stores (tuples, frozensets), so that it compares and hashes the same.
    Every field is passed by name: ``_unchecked(Permutation, values=t)``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def record_masks(values: Sequence[int]) -> bytearray:
    """Record bits of every point, leftmost first; two O(n) sweeps.

    The left-to-right sweep finds the running maxima (UL) and minima (BL),
    the right-to-left sweep the UR and BR records.
    """
    n = len(values)
    masks = bytearray(n)
    hi, lo = 0, n + 1
    for i, v in enumerate(values):
        if v > hi:
            hi = v
            masks[i] = UL
        if v < lo:
            lo = v
            masks[i] |= BL
    hi, lo = 0, n + 1
    for i in range(n - 1, -1, -1):
        v = values[i]
        if v > hi:
            hi = v
            masks[i] |= UR
        if v < lo:
            lo = v
            masks[i] |= BR
    return masks


def require_square(values: Sequence[int]) -> bytearray:
    """Record masks of a square ``values``; NotSquare names the first
    interior point otherwise."""
    masks = record_masks(values)
    interior = masks.find(0)
    if interior >= 0:
        raise NotSquare(f"point {interior + 1} of {values!r} is interior")
    return masks


def _square_flags(values: Sequence[int]) -> Optional[tuple[bytearray, bytearray]]:
    """(upper flags by column, left flags by row) of ``values``, or None
    when some point is interior; one left-to-right sweep, O(n).

    Byte c - 1 of the first is 1 when the point in column c is an upper
    point (UL or UR), byte j of the second when the point in row j is a
    left point (UL or BL): what ``_UPPER_FLAG`` and ``_LEFT_FLAG`` read off
    the record masks, without the masks.  A point left of both n and 1 can
    only be a left-to-right record, one right of both only a right-to-left
    one, so with t the last value, each point must lie on the chain its
    stretch and value give it:

    - before n and 1, a left-to-right maximum (U, L) or minimum (row L);
    - between them with n first, a left-to-right minimum (row L) or a
      right-to-left maximum (U).  The minimum in column c with value
      n - c + 1 is both, since its prefix fills the top-left block, so it
      reads U and L;
    - between them with 1 first, a left-to-right maximum (U, L) or a
      right-to-left minimum;
    - after both, a right-to-left maximum above t, a minimum below it.

    A left-to-right record is one by its own test.  The right-to-left
    maxima must fall and end above t, and the minima rise and end below t.
    Then each maximum lies above every later point: the later maxima by
    the fall, the later left-to-right minima because they are under the
    running minimum, which it is not, and the points under t by the end
    check.  The minima are records by the mirror argument.  So a point that
    fits neither chain of its stretch, or a chain that breaks, means an
    interior point, and every point of a square fits.
    """
    n = len(values)
    a = values.index(n)
    b = values.index(1)
    upper = bytearray(n)
    left = bytearray(n + 1)
    upper[a] = upper[-1] = left[1] = left[n] = 1
    hi = lo = values[0]
    upper[0] = left[hi] = 1
    for i in range(1, min(a, b)):  # before n and 1
        v = values[i]
        left[v] = 1
        if v > hi:
            hi = v
            upper[i] = 1
        elif v < lo:
            lo = v
        else:
            return None
    high, low = n, 1  # the last points of the falling and the rising chain
    if a < b:
        for i in range(a + 1, b):  # between, n first
            v = values[i]
            if v < lo:
                lo = v
                left[v] = 1
                if v == n - i:
                    upper[i] = 1
            elif v < high:
                high = v
                upper[i] = 1
            else:
                return None
    else:
        for i in range(b + 1, a):  # between, 1 first
            v = values[i]
            if v > hi:
                hi = v
                upper[i] = 1
                left[v] = 1
            elif v > low:
                low = v
            else:
                return None
    t = values[-1]
    last = max(a, b)
    for i in range(last + 1, n - 1):  # after both, up to t
        v = values[i]
        if v > t:
            if v > high:
                return None
            high = v
            upper[i] = 1
        elif v < low:
            return None
        else:
            low = v
    if last < n - 1 and not low < t < high:
        return None
    return upper, left


def free_fixed_positions(values: Sequence[int], masks: bytearray) -> list[int]:
    """Ascending 1-based fixed points that are neither bottom-left nor
    upper-right records; ``masks`` are the record masks of ``values``."""
    return [
        i + 1
        for i, v in enumerate(values)
        if v == i + 1 and not masks[i] & (BL | UR)
    ]


@dataclass(frozen=True)
class Permutation:
    """One-line notation; ``values`` is a bijection on {1..n}."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        if n == 0:
            raise ValueError("a permutation has at least one value")
        seen = bytearray(n + 1)
        for v in values:
            if type(v) is not int or not 1 <= v <= n or seen[v]:
                raise ValueError(f"{values!r} is not a permutation of 1..{n}")
            seen[v] = 1

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ColoredPermutation:
    """A permutation with a subset of its free fixed points marked.

    Only free fixed points may be colored; the constructor enforces it.
    A plain permutation is the colored permutation with an empty set.
    """

    perm: Permutation
    colored: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "colored", frozenset(self.colored))
        if self.colored:
            bad = self.colored - free_fixed_points(self.perm)
            if bad:
                raise ValueError(
                    f"positions {sorted(bad)} are not free fixed points of "
                    f"{self.perm.values!r}"
                )

    @property
    def size(self) -> int:
        return self.perm.size


PermLike = Union[Permutation, ColoredPermutation]

#: the predicates below also take a bare one-line sequence, which they
#: trust to be a permutation (the brute-force scans pass raw tuples)
PermOrValues = Union[Permutation, ColoredPermutation, Sequence[int]]


def as_colored(obj: PermLike) -> ColoredPermutation:
    if isinstance(obj, ColoredPermutation):
        return obj
    return ColoredPermutation(obj, frozenset())


def _values(perm: PermOrValues) -> Sequence[int]:
    if isinstance(perm, Permutation):
        return perm.values
    if isinstance(perm, ColoredPermutation):
        return perm.perm.values
    return perm


def is_square(perm: PermOrValues) -> bool:
    """True when every point is a record in some direction: the one
    sweep of ``_square_flags`` decides it.  The empty plot is square."""
    values = _values(perm)
    return not values or _square_flags(values) is not None


def free_fixed_points(perm: PermLike) -> frozenset[int]:
    """Fixed points that are neither bottom-left nor upper-right records."""
    values = _values(perm)
    return frozenset(free_fixed_positions(values, record_masks(values)))


class Corner(enum.Enum):
    """A diagonal direction; also names which record path may be empty."""

    UPPER_LEFT = "upper-left"
    UPPER_RIGHT = "upper-right"
    LOWER_LEFT = "lower-left"
    LOWER_RIGHT = "lower-right"

    __hash__ = object.__hash__  # members are singletons, equal only to themselves


#: the record bit of the path each corner names
_CORNER_BIT = dict(zip(Corner, (UL, UR, BL, BR)))


class Slope(enum.Enum):
    """The two parallel shapes: two chains hugging one diagonal."""

    RISING = "rising"
    FALLING = "falling"

    __hash__ = object.__hash__  # members are singletons, equal only to themselves


#: the two record paths the points of each parallel shape lie on
_SLOPE_BITS = {Slope.RISING: UL | BR, Slope.FALLING: UR | BL}


#: The triangular orientation whose members the TRIANGULAR family counts
#: (every point on the upper-left, upper-right or lower-right path).
TRIANGULAR_COUNTED = Corner.LOWER_LEFT

#: The parallel orientation counted by the PARALLEL family (avoids 321).
PARALLEL_COUNTED = Slope.RISING


def is_triangular(perm: PermOrValues, missing: Corner = TRIANGULAR_COUNTED) -> bool:
    """True when every point is a record away from the ``missing`` corner.

    ``missing`` names the one record path points are not required to lie
    on; the four orientations are the rotations of one another.
    """
    return all(m & ~_CORNER_BIT[missing] for m in record_masks(_values(perm)))


def is_parallel(perm: PermOrValues, slope: Slope = PARALLEL_COUNTED) -> bool:
    """True when every point lies on UL or BR (RISING), UR or BL (FALLING)."""
    return all(m & _SLOPE_BITS[slope] for m in record_masks(_values(perm)))


def is_decomposable(values: Sequence[int]) -> bool:
    """True when some proper prefix occupies exactly the lowest values.

    Such a prefix holds 1 and not n, so it ends at or after the column of 1
    and before the column of n: only those prefixes are tested."""
    n = len(values)
    if n < 2:
        return False
    a, b = values.index(1), values.index(n)
    if b < a:
        return False
    hi = max(values[: a + 1])
    for k in range(a, b):
        if values[k] > hi:
            hi = values[k]
        if hi == k + 1:
            return True
    return False


def is_co_decomposable(values: Sequence[int]) -> bool:
    """True when some proper prefix occupies exactly the highest values.

    Such a prefix holds n and not 1, so it ends at or after the column of n
    and before the column of 1: only those prefixes are tested."""
    n = len(values)
    if n < 2:
        return False
    a, b = values.index(n), values.index(1)
    if b < a:
        return False
    lo = min(values[: a + 1])
    for k in range(a, b):
        if values[k] < lo:
            lo = values[k]
        if lo == n - k:
            return True
    return False


@dataclass(frozen=True)
class SubclassReport:
    square: bool
    triangular: Mapping[Corner, bool]
    parallel: Mapping[Slope, bool]
    decomposable: bool
    co_decomposable: bool
    upper_count: int
    left_count: int


def upper_left_counts(perm: PermLike) -> tuple[int, int]:
    """Number of upper points and of left points, colored points excluded."""
    cp = as_colored(perm)
    masks = record_masks(cp.perm.values)
    for c in cp.colored:
        masks[c - 1] = 0
    return masks.translate(_UPPER_FLAG).count(1), masks.translate(_LEFT_FLAG).count(1)


def subclass_report(perm: PermLike) -> SubclassReport:
    cp = as_colored(perm)
    values = cp.perm.values
    upper, left = upper_left_counts(cp)
    return SubclassReport(
        square=is_square(values),
        triangular={c: is_triangular(values, c) for c in Corner},
        parallel={s: is_parallel(values, s) for s in Slope},
        decomposable=is_decomposable(values),
        co_decomposable=is_co_decomposable(values),
        upper_count=upper,
        left_count=left,
    )


def standardize_tuple(values: Sequence[int]) -> tuple[int, ...]:
    """Rank replacement of distinct integers onto 1..k."""
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    if len(rank) != len(values):
        raise ValueError("values must be distinct")
    return tuple(rank[v] for v in values)


def _read_int(token: str) -> Optional[int]:
    """The integer that ``token`` writes in ASCII decimal: the digits 0-9,
    at least one, after one optional ``-``; None for any other text, such
    as ``+1``, ``2_0``, a full-width or superscript digit, or white space,
    and for more digits than the interpreter's int-from-str limit admits.
    The one integer reader of the text parsers."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return None


def parse_permutation_text(text: str) -> ColoredPermutation:
    """Parse comma-separated one-line notation; ``*`` marks a colored entry.

    >>> parse_permutation_text("3,5,4,1,2").perm.values
    (3, 5, 4, 1, 2)
    >>> sorted(parse_permutation_text("1,2*,3").colored)
    [2]
    """
    values = []
    colored = set()
    for pos, token in enumerate(text.strip().split(","), start=1):
        token = token.strip()
        if token.endswith("*"):
            colored.add(pos)
            token = token[:-1]
        value = _read_int(token)
        if value is None:
            raise ValueError(f"bad permutation entry {token!r}")
        values.append(value)
    return ColoredPermutation(Permutation(tuple(values)), frozenset(colored))


def format_permutation_text(perm: PermLike) -> str:
    """Comma-separated one-line notation, ``*`` after each colored entry.

    One ``%``-format writes every numeral in C, with no str per value;
    it needs ``values`` to be a tuple of exact ints, which every
    ``Permutation`` holds.

    >>> format_permutation_text(parse_permutation_text("1,2*,3"))
    '1,2*,3'
    """
    cp = as_colored(perm)
    values = cp.perm.values
    fields = ["%d"] * len(values)
    for c in cp.colored:
        fields[c - 1] = "%d*"
    return ",".join(fields) % values
