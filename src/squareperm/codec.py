"""Marked-word encoding of colored square permutations and its decoders.

A marked word of length n is a sequence of letter pairs, framed by
``XY`` at both ends, whose interior pairs come from {U,D} x {L,R},
together with a mark m pointing at a position whose second letter is L
or Y.  ``encode`` turns a colored square permutation into the pair of
its horizontal and vertical profiles plus the mark s(1); ``decode``
rebuilds the permutation left to right and, on the words that encode
nothing, stops with a classified failure instead.

Three decoding modes share the insertion rules and differ only in two
stops at the head of each column, on a prefix that fills the top-left
block (FULLY_INDEC, PERMUTOMINO) or the bottom-left one (FULLY_INDEC).
SQUARE accepts all square permutations, FULLY_INDEC rejects decomposable
and co-decomposable ones, PERMUTOMINO co-decomposable ones but accepts
colored fixed points: its successes are the images of convex permutominoes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .perm import (
    _LEFT_FLAG,
    _UPPER_FLAG,
    ColoredPermutation,
    Permutation,
    _unchecked,
    as_colored,
    require_square,
)

INTERIOR_PAIRS = ("UL", "UR", "DL", "DR")
FRAME = "XY"


class WordSyntaxError(ValueError):
    """Malformed marked-word text or letter sequence."""


class BadFrame(ValueError):
    """The first or last letter pair is not XY."""


class InvalidMark(ValueError):
    """Mark out of range or pointing at a row labeled R."""


@dataclass(frozen=True)
class MarkedWord:
    """Letter pairs plus a mark; the mark is 1-based and must sit on L or Y."""

    letters: tuple[str, ...]
    mark: int

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        n = len(letters)
        if n < 2:
            raise WordSyntaxError("a marked word has at least two letters")
        if letters[0] != FRAME or letters[-1] != FRAME:
            raise BadFrame(f"endpoints must be {FRAME!r}")
        for i in range(1, n - 1):
            if letters[i] not in INTERIOR_PAIRS:
                raise WordSyntaxError(f"bad interior letter {letters[i]!r} at {i + 1}")
        if not 1 <= self.mark <= n:
            raise InvalidMark(f"mark {self.mark} out of range 1..{n}")
        if letters[self.mark - 1][1] not in "LY":
            raise InvalidMark(
                f"mark {self.mark} sits on {letters[self.mark - 1]!r}; needs L or Y"
            )

    @property
    def size(self) -> int:
        return len(self.letters)


def parse_marked_word(text: str) -> MarkedWord:
    """Parse ``pair(,pair)*@INT`` text, e.g. ``XY,UR,UL,DR,XY@3``."""
    body, sep, mark_text = text.strip().rpartition("@")
    if not sep:
        raise WordSyntaxError("missing @mark")
    try:
        mark = int(mark_text)
    except ValueError:
        raise WordSyntaxError(f"bad mark {mark_text!r}") from None
    return MarkedWord(tuple(token.strip() for token in body.split(",")), mark)


def format_marked_word(word: MarkedWord) -> str:
    return ",".join(word.letters) + f"@{word.mark}"


def marked_word_to_json(word: MarkedWord) -> dict:
    return {"letters": list(word.letters), "mark": word.mark}


class DecodeMode(enum.Enum):
    SQUARE = "square"
    FULLY_INDEC = "fully-indec"
    PERMUTOMINO = "permutomino"

    __hash__ = object.__hash__  # members are singletons, equal only to themselves


class FailureKind(enum.Enum):
    #: the partial permutation got confined to the bottom-left corner
    SW = "SW"
    #: the partial permutation got confined to the top-left corner
    NW = "NW"

    __hash__ = object.__hash__  # members are singletons, equal only to themselves


@dataclass(frozen=True)
class Success:
    result: ColoredPermutation


@dataclass(frozen=True)
class Failure:
    """A classified stop; the suffixes are read off ``word`` on demand."""

    stop_index: int
    kind: FailureKind
    prefix: Permutation
    pair: tuple[str, str]
    word: MarkedWord

    @property
    def suffix_u(self) -> str:
        return "".join(pair[0] for pair in self.word.letters[self.stop_index :])

    @property
    def suffix_v(self) -> str:
        # rows i+1..n after an SW stop; Y, then rows 2..n-i, after an NW one
        letters, i = self.word.letters, self.stop_index
        if self.kind is FailureKind.SW:
            return "".join(pair[1] for pair in letters[i:])
        n = len(letters)
        if i == n:
            return ""
        return "Y" + "".join(pair[1] for pair in letters[1 : n - i])


@dataclass(frozen=True)
class InternalContradiction:
    diagnostic: str


DecodeOutcome = Union[Success, Failure, InternalContradiction]


@dataclass
class DecodeStats:
    """Counters that ``decode`` (row advances) and ``sample_object``
    (attempts) add to, so one record can gather many calls."""

    attempts: int = 0
    row_advances: int = 0


def encode(perm: ColoredPermutation | Permutation) -> MarkedWord:
    """Profiles plus mark of a colored square permutation.  O(n).

    Column i contributes U when its point is an upper point and not
    colored, else D; row j contributes L when its point is a left point
    and not colored, else R; the extremal columns and rows are the XY
    frame and the mark is s(1).

    The record masks give each column's upper flag through the byte
    table ``_UPPER_FLAG``; scattered to the rows they sit in, they give
    each row's left flag through ``_LEFT_FLAG``.  A colored point is a
    fixed point, so it clears both column c and row c.  One big-integer
    OR packs the flags of column and row j into the 2-bit code
    2 * upper + left, and every interior letter is the shared pair
    string of its code.
    """
    cp = as_colored(perm)
    values = cp.perm.values
    n = len(values)
    if n < 2:
        raise ValueError("marked words start at length 2")
    masks = require_square(values)
    upper = masks.translate(_UPPER_FLAG)  # byte c - 1: column c
    by_row = bytearray(n + 1)
    for v, m in zip(values, masks):
        by_row[v] = m
    left = by_row.translate(_LEFT_FLAG)  # byte j: row j
    for c in cp.colored:
        upper[c - 1] = left[c] = 0
    code = int.from_bytes(upper, "little") << 1 | int.from_bytes(left, "little") >> 8
    letters = map(_PAIRS.__getitem__, code.to_bytes(n, "little")[1:-1])
    return _unchecked(MarkedWord, letters=(FRAME, *letters, FRAME), mark=values[0])


#: the interior letter of each 2-bit code 2 * upper + left: INTERIOR_PAIRS
#: lists UL, UR, DL, DR, which are codes 3, 2, 1, 0
_PAIRS = INTERIOR_PAIRS[::-1]


#: enum members as module names: on CPython 3.11 each read through its
#: class costs about 0.1 us, once per name in every decode
_SQUARE, _FULLY_INDEC, _PERMUTOMINO = (
    DecodeMode.SQUARE,
    DecodeMode.FULLY_INDEC,
    DecodeMode.PERMUTOMINO,
)
_SW, _NW = FailureKind.SW, FailureKind.NW

#: the colored set of every result that colors no point
_NO_COLORS: frozenset[int] = frozenset()


def _failure(word: MarkedWord, i: int, kind: FailureKind, sigma: list[int]) -> Failure:
    """The stop of ``decode`` at column i; its pair is (u_i, v_i) for SW and
    (u_i, v_(n-i+1)) for NW."""
    if kind is _SW:  # the prefix fills rows 1..i-1
        row = i
        values = tuple(sigma[1:i])
    else:  # the prefix fills rows n-i+2..n
        row = len(word.letters) - i + 1
        values = tuple([v - row for v in sigma[1:i]])
    return _unchecked(
        Failure,
        stop_index=i,
        kind=kind,
        prefix=_unchecked(Permutation, values=values),
        pair=(word.letters[i - 1][0], word.letters[row - 1][1]),
        word=word,
    )


def decode(
    word: MarkedWord,
    mode: DecodeMode = DecodeMode.SQUARE,
    stats: Optional[DecodeStats] = None,
) -> DecodeOutcome:
    """Left-to-right reconstruction of the permutation encoded by ``word``.

    Rows 1..n are labeled bottom to top by the second letters, columns
    left to right by the first.  The first point goes to row mark.  Each
    later column i first meets the modes' stops, before any row pointer
    moves: FULLY_INDEC and PERMUTOMINO stop NW when the prefix fills the
    top-left block (rows n-i+2..n), FULLY_INDEC stops SW when it fills
    the bottom-left block (rows 1..i-1).  Otherwise the first applicable
    rule below places the column, where LU, LL, RU, RL are the rows of
    the most recent point on each of the four record paths:

    * last column: take the row left over.
    * U before row n is used: the lowest L/Y row above LU.
    * U after: if the prefix fills the top-left block, the only legal row
      is the one just below the block and it must read L; otherwise the
      highest R/Y row below RU.
    * D before row 1 is used: the highest L/Y row below LL, refused when
      the prefix fills the top-left block and that row reads L (the word
      encodes nothing in that case).
    * D after: refused if the prefix fills the bottom-left block (except
      that PERMUTOMINO mode inserts a colored fixed point when row i
      reads R); otherwise the lowest R/Y row above RL.

    No set of used rows is kept.  Each path walks its own row list in
    order, LU and LL the L/Y rows up from the bottom and down from the
    top, RL and RU the R/Y rows likewise, and on a well-formed word the
    row after its last point is never used.  LL is the lowest row used:
    only LL and the forced row of the U-after rule lower it, and only LL
    reaches row 1.  ``top`` is the highest: only LU, the one rule that
    reaches row n, and the colored insertion raise it.  The stops and
    the before/after choices read these two rows.

    Each of the four pointers moves one row per advance, so the number
    of row-pointer advances is their total displacement, O(n); pass
    ``stats`` to add it to ``stats.row_advances``.  A Failure costs
    O(stop index): it builds its suffixes from ``word`` only when they
    are read.  A well-formed marked word never yields
    InternalContradiction (the exhaustive audits check this).
    """
    letters = word.letters
    n = len(letters)
    rows_ly = []
    rows_ry = []
    for j, pair in enumerate(letters, start=1):
        v = pair[1]
        if v != "R":
            rows_ly.append(j)
        if v != "L":
            rows_ry.append(j)
    sigma = [0] * (n + 1)
    colored: list[int] = []

    m = word.mark
    sigma[1] = m
    lu = ll = top = m
    # RU is read only after row n is used, RL only after row 1; each
    # starts at that row
    ru = n
    rl = 1

    n_ly = len(rows_ly)
    n_ry = len(rows_ry)
    up_ly = 0
    dn_ly = n_ly - 1
    up_ry = 0
    dn_ry = n_ry - 1

    square = mode is _SQUARE
    permutomino = mode is _PERMUTOMINO
    fully_indec = mode is _FULLY_INDEC
    top_left = n + 2  # ll + i == top_left: the prefix fills that block
    kind = None

    for i in range(2, n + 1):
        if not square and ll + i == top_left:
            kind = _NW
            break
        if fully_indec and top == i - 1:
            kind = _SW
            break
        if i == n:
            break
        ui = letters[i - 1][0]
        if ui == "U" and top != n:
            while up_ly < n_ly and rows_ly[up_ly] <= lu:
                up_ly += 1
            if up_ly == n_ly:
                return InternalContradiction(
                    f"no free L/Y row above {lu} at column {i}"
                )
            j = lu = top = rows_ly[up_ly]
        elif ui == "U":
            if ll + i == top_left:
                j = n - i + 1
                if letters[j - 1][1] != "L":
                    kind = _NW
                    break
                ru = ll = j
            else:
                while dn_ry >= 0 and rows_ry[dn_ry] >= ru:
                    dn_ry -= 1
                if dn_ry < 0:
                    return InternalContradiction(
                        f"no free R/Y row below {ru} at column {i}"
                    )
                j = ru = rows_ry[dn_ry]
        elif ll != 1:  # ui == "D", row 1 still free
            while dn_ly >= 0 and rows_ly[dn_ly] >= ll:
                dn_ly -= 1
            if dn_ly < 0:
                return InternalContradiction(
                    f"no free L/Y row below {ll} at column {i}"
                )
            j = rows_ly[dn_ly]
            if j == n - i + 1 and ll + i == top_left:
                kind = _NW
                break
            ll = j
        else:  # ui == "D", row 1 used
            if top == i - 1:
                if not permutomino or letters[i - 1][1] != "R":
                    kind = _SW
                    break
                j = rl = top = i
                colored.append(i)
            else:
                while up_ry < n_ry and rows_ry[up_ry] <= rl:
                    up_ry += 1
                if up_ry == n_ry:
                    return InternalContradiction(
                        f"no free R/Y row above {rl} at column {i}"
                    )
                j = rl = rows_ry[up_ry]
        sigma[i] = j

    if stats is not None:
        stats.row_advances += up_ly + (n_ly - 1 - dn_ly) + up_ry + (n_ry - 1 - dn_ry)
    if kind is not None:
        return _failure(word, i, kind, sigma)
    sigma[n] = n * (n + 1) // 2 - sum(sigma)
    result = _unchecked(
        ColoredPermutation,
        perm=_unchecked(Permutation, values=tuple(sigma[1:])),
        colored=frozenset(colored) if colored else _NO_COLORS,
    )
    return _unchecked(Success, result=result)
