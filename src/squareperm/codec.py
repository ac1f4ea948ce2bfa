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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Union

from .perm import (
    ColoredPermutation,
    Permutation,
    _read_int,
    _square_flags,
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
    mark = _read_int(mark_text.strip())
    if mark is None:
        raise WordSyntaxError(f"bad mark {mark_text!r}")
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

    One left-to-right sweep reads each column's upper flag and each
    row's left flag off the four record chains, and proves on the way that
    the input is square (``perm._square_flags``).  The columns of n and 1
    cut the plot into three stretches, and in each a point can lie on only
    two chains: before both, the left-to-right maxima (U, L) and minima
    (row L); between them, the left-to-right minima (row L) and the falling
    right-to-left maxima (U) when n comes first, the left-to-right maxima
    and the rising right-to-left minima when 1 does; after both, the
    maxima above the last value t and the minima below it, both chains
    ending at t.  A point that fits neither chain of its stretch, or a
    chain that breaks, is an interior point, and the masks of
    ``require_square`` then name the first one in the NotSquare message.
    Between n and 1 with n first, the minimum in column c with value
    n - c + 1 is on both chains, since its prefix fills the top-left
    block: it reads U and L.

    A colored point is a fixed point, so it clears both column c and row
    c.  One big-integer OR packs the flags of column and row j into the
    2-bit code 2 * upper + left, and every interior letter is the shared
    pair string of its code.
    """
    cp = as_colored(perm)
    values = cp.perm.values
    n = len(values)
    if n < 2:
        raise ValueError("marked words start at length 2")
    flags = _square_flags(values)
    if flags is None:
        require_square(values)  # raises NotSquare naming the first interior point
    upper, left = flags  # byte c - 1: column c; byte j: row j
    for c in cp.colored:
        upper[c - 1] = left[c] = 0
    code = int.from_bytes(upper, "little") << 1 | int.from_bytes(left, "little") >> 8
    # a subscript in a comprehension, about 3x faster than a map over the
    # tuple's __getitem__ on CPython 3.11
    letters = [_PAIRS[c] for c in code.to_bytes(n, "little")]
    letters[0] = letters[-1] = FRAME
    return _unchecked(MarkedWord, letters=tuple(letters), mark=values[0])


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

#: the fewest columns that ``decode`` places as one run, and the columns it
#: places one at a time before it tries a run (again).  Of 8, 16, 24, 32
#: and 48, 32 was within 3% of the fastest at each n from 40 to 10^5 in
#: process; 8 and 16 lose 5-28% at n = 40..100 to failed tries
_RUN = 32

#: the colored set of every result that colors no point
_NO_COLORS: frozenset[int] = frozenset()


def _stop(
    letters: tuple[str, ...], i: int, kind: FailureKind, rows: list[int], prefix: bool = True
):
    """The pair and the prefix values of a stop of ``_decode`` at column i,
    whose rows[1..i-1] are the rows of columns 1..i-1.  The pair is
    (u_i, v_i) for SW and (u_i, v_(n-i+1)) for NW; the prefix, standardized,
    is None unless asked for."""
    if kind is _SW:  # the prefix fills rows 1..i-1
        row = i
        values = tuple(rows[1:i]) if prefix else None
    else:  # the prefix fills rows n-i+2..n
        row = len(letters) - i + 1
        values = tuple([v - row for v in rows[1:i]]) if prefix else None
    return (letters[i - 1][0], letters[row - 1][1]), values


def _failure(word: MarkedWord, i: int, kind: FailureKind, rows: list[int]) -> Failure:
    """The Failure of a stop of ``_decode`` at column i."""
    pair, values = _stop(word.letters, i, kind, rows)
    return _unchecked(
        Failure,
        stop_index=i,
        kind=kind,
        prefix=_unchecked(Permutation, values=values),
        pair=pair,
        word=word,
    )


def _colored(rows: list[int], colored: list[int]) -> ColoredPermutation:
    """The trusted result of a success of ``_decode``: rows[1..n] are its
    values and ``colored`` its colored points.  Takes rows over, O(n)."""
    del rows[0]
    return _unchecked(
        ColoredPermutation,
        perm=_unchecked(Permutation, values=tuple(rows)),
        colored=frozenset(colored) if colored else _NO_COLORS,
    )


def decode(
    word: MarkedWord,
    mode: DecodeMode = DecodeMode.SQUARE,
    stats: Optional[DecodeStats] = None,
) -> DecodeOutcome:
    """Left-to-right reconstruction of the permutation encoded by ``word``:
    a Success, a classified Failure, or InternalContradiction, which a
    well-formed marked word never yields (the exhaustive audits check
    this).  The rules and their cost are ``_decode``'s, and this wrapper
    only builds the outcome object from its compact outcome: a Success in
    O(n), a Failure in O(stop index) for its prefix, with the suffixes
    built from ``word`` only when they are read.  Pass ``stats`` to add
    the row-pointer advances to ``stats.row_advances``.
    """
    outcome = _decode(word, mode, stats)
    if isinstance(outcome, InternalContradiction):
        return outcome
    kind, i, rows, colored = outcome
    if kind is not None:
        return _failure(word, i, kind, rows)
    return _unchecked(Success, result=_colored(rows, colored))


def _letter_rows(letters: tuple[str, ...]) -> tuple[str, list[int], list[int]]:
    """What ``_decode`` reads off the letters alone, whatever the mark and
    the mode: the first letter of every column as one string (column i
    reads [i - 1]), and the rows that read L or Y and those that read R
    or Y, each ascending.  O(n); every word of one letter sequence can
    share it, and ``_decode`` only reads it."""
    n = len(letters)
    us = "".join(letters)  # u_1 v_1 u_2 v_2 ...
    # rows 1 and n read Y, every other row L or R
    rows_ly = [1]
    rows_ry = [1]
    for j, v in enumerate(us[3:-2:2], start=2):
        if v == "L":
            rows_ly.append(j)
        else:
            rows_ry.append(j)
    rows_ly.append(n)
    rows_ry.append(n)
    return us[::2], rows_ly, rows_ry


def _decode(
    word: MarkedWord,
    mode: DecodeMode,
    stats: Optional[DecodeStats],
    letter_rows: Optional[tuple[str, list[int], list[int]]] = None,
):
    """Left-to-right reconstruction of the permutation encoded by ``word``,
    with a compact outcome: (None, n, rows, colored) on success and
    (kind, stop index i, rows, None) on a stop, where rows[c] is the row
    of column c for each column placed (1..n on success, 1..i-1 on a stop;
    rows[0] is 0) and ``colored`` lists the colored points; otherwise
    InternalContradiction.  ``_colored`` and ``_stop`` read the outcome.
    ``decode`` wraps this core in its outcome objects; the sampler and the
    audits call it directly and build no Success or Failure.
    ``letter_rows`` is ``_letter_rows(word.letters)`` when the caller
    has it already, as the audits do for the words of one letter sequence.

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
    order: LU up and LL down the L/Y rows from the mark's row, RU down and
    RL up the R/Y rows from rows n and 1.  On a well-formed word the row
    after a path's last point is never used.  LL is the lowest row used:
    only LL and the forced row of the U-after rule lower it, and only LL
    reaches row 1.  ``top`` is the highest: only LU, the one rule that
    reaches row n, and the colored insertion raise it.  The stops and
    the before/after choices read these two rows.

    Whether rows 1 and n are used splits the columns into four phases.
    Within one phase, away from a filled block, every column takes the
    next row of the path its letter picks: LU or RU for U, LL or RL for
    D.  So a stretch of such columns is placed as one run, which merges
    slices of the two picked row lists by the letters.  A run of c
    columns from column i holds at most

    * n - i columns, so the last column keeps its rule;
    * while row n is free, as many U columns as LU has L/Y rows left
      below row n, and while row 1 is free, as many D columns as LL has
      L/Y rows left above row 1, because using either row changes the
      phase;
    * once row n is used, g - 1 U columns, where g = n + 2 - LL - i.
      Every L/Y row above LL is used then, so the g free rows above LL
      are R rows, the next ones on RU's path, and the top-left block is
      filled exactly when g = 0.  While row 1 is free only a U column
      lowers g, by one; once it is used every column does, and
      c <= n - i < g;
    * once row 1 is used, h - 1 D columns, where h = top - i + 1 counts
      the free rows below top, the next ones on RL's path; the same
      holds for the bottom-left block with U and D swapped.

    So no column of a run starts in a filled block, no path runs out
    of free rows, no forced row, colored insertion or phase change
    falls inside a run, and a run gives the outcome of the rules applied
    one column at a time.  Each bound is O(1) to read; one
    ``str.count`` over twice the smaller letter bound (about half the
    letters are U) finds the run, or a second one over the smaller
    bound itself when the first breaks a bound.  The first ``_RUN``
    columns take the rules one at a time; then a run is tried when the
    first window holds at least ``_RUN`` columns, and where none does,
    the next ``_RUN`` columns again go one at a time.  So a word shorter
    than 2 * ``_RUN`` + 2 never reaches a run.

    Each of the four pointers moves one row per advance, so the number
    of row-pointer advances is the total displacement of the paths that
    moved, O(n); pass ``stats`` to add it to ``stats.row_advances``.
    A stop costs O(stop index) columns and builds nothing.
    """
    letters = word.letters
    n = len(letters)
    if letter_rows is None:
        letter_rows = _letter_rows(letters)
    us, rows_ly, rows_ry = letter_rows  # column i reads us[i - 1]
    sigma = [0] * (n + 1)
    colored: list[int] = []

    m = word.mark
    sigma[1] = m
    lu = ll = top = m
    # RU is read only after row n is used, RL only after row 1; each
    # starts at that row, and LU and LL at the mark's
    ru = n
    rl = 1

    n_ly = len(rows_ly)
    n_ry = len(rows_ry)
    up_ly = dn_ly = home = bisect_left(rows_ly, m)
    up_ry = 0
    dn_ry = n_ry - 1

    square = mode is _SQUARE
    permutomino = mode is _PERMUTOMINO
    fully_indec = mode is _FULLY_INDEC
    top_left = n + 2  # ll + i == top_left: the prefix fills that block
    kind = None

    i = 2
    end = n if n < _RUN + 2 else _RUN + 2  # columns i..end-1 go one at a time
    while True:
        for i in range(i, end):
            if not square and ll + i == top_left:
                kind = _NW
                break
            if fully_indec and top == i - 1:
                kind = _SW
                break
            ui = us[i - 1]
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
        else:
            i = end
            while n - i >= _RUN:
                # where the path of each letter goes next, and how many U
                # and D columns a run may hold
                if top != n:  # U: LU, until it reaches row n
                    next_u = bisect_right(rows_ly, lu)
                    most_u = n_ly - 1 - next_u
                else:  # U: RU, while g = n + 2 - ll - i stays positive
                    next_u = bisect_left(rows_ry, ru) - 1
                    most_u = n + 1 - ll - i
                if ll != 1:  # D: LL, until it reaches row 1
                    next_d = bisect_left(rows_ly, ll) - 1
                    most_d = next_d
                else:  # D: RL, while h = top - i + 1 stays positive
                    next_d = bisect_right(rows_ry, rl)
                    most_d = top - i
                # about half the letters are U
                c = min(n - i, 2 * min(most_u, most_d))
                if c < _RUN:
                    break
                a = i - 1
                k_u = us.count("U", a, a + c)
                if k_u > most_u or c - k_u > most_d:
                    c = min(most_u, most_d)
                    k_u = us.count("U", a, a + c)
                k_d = c - k_u
                if top != n:
                    ups = rows_ly[next_u : next_u + k_u]
                    if k_u:
                        up_ly = next_u + k_u - 1
                        lu = top = ups[-1]
                else:
                    ups = rows_ry[next_u : next_u - k_u : -1]
                    if k_u:
                        dn_ry = next_u - k_u + 1
                        ru = ups[-1]
                if ll != 1:
                    downs = rows_ly[next_d : next_d - k_d : -1]
                    if k_d:
                        dn_ly = next_d - k_d + 1
                        ll = downs[-1]
                else:
                    downs = rows_ry[next_d : next_d + k_d]
                    if k_d:
                        up_ry = next_d + k_d - 1
                        rl = downs[-1]
                pick = {"U": iter(ups), "D": iter(downs)}
                sigma[i : i + c] = map(next, map(pick.__getitem__, us[a : a + c]))
                i += c
            if i < n:
                end = i + _RUN if n - i > _RUN else n
                continue
            if not square and ll + i == top_left:
                kind = _NW
            elif fully_indec and top == i - 1:
                kind = _SW
        break

    if stats is not None:
        # a path that never moved counts no advance
        stats.row_advances += (
            (up_ly if up_ly != home else 0)
            + (n_ly - 1 - dn_ly if dn_ly != home else 0)
            + up_ry
            + (n_ry - 1 - dn_ry)
        )
    if kind is not None:
        return kind, i, sigma, None
    sigma[n] = n * (n + 1) // 2 - sum(sigma)
    return None, n, sigma, colored
