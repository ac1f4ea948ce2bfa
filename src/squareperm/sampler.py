"""Seeded exact-uniform random generation.

The generator contract is bit-exact so that runs reproduce across
platforms and reimplementations:

* state update: ``state = (state + 0x9E3779B97F4A7C15) mod 2^64``;
  output: the SplitMix64 finalizer
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
* initial state for (seed, stream): ``mix(mix(seed ^ 0x7C15D2E3A9B96F01)
  + stream * 0xD2B74407B1CE6E93)`` where ``mix`` is the finalizer.
* ``getrandbits(k)``: draw ceil(k/64) outputs, assemble little-endian
  (first output = least significant 64 bits), keep the low k bits.
* ``randbelow(b)``: draw ``getrandbits(b.bit_length())`` until the value
  is below b (exact uniformity, expected under two draws); ``randbelow(1)``
  draws nothing.

Uniform objects come from drawing one exact big integer below the family
count and decoding: a marked word is uniform by direct unranking, and a
uniform square permutation / fully indecomposable square / convex
permutomino is the first decodable word in a rejection loop.  Letters of
an unranked word use base-4 digits, least significant first, mapped
through ``codec.INTERIOR_PAIRS`` = ("UL", "UR", "DL", "DR").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from .codec import (
    FRAME,
    INTERIOR_PAIRS,
    DecodeMode,
    DecodeStats,
    InternalContradiction,
    MarkedWord,
    _colored,
    _decode,
)
from .perm import ColoredPermutation, Permutation, _unchecked
from .permutomino import _cycle, _from_decoded
from .series import FIRST_SIZE, CountFamily, DomainError, count

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_STEP = 0xD2B74407B1CE6E93
_SEED_TWEAK = 0x7C15D2E3A9B96F01
#: the first marked-word length; smaller sizes are sampled without a word
_FIRST_LENGTH = FIRST_SIZE[CountFamily.MARKED_WORDS]

# four letters per byte, least significant digit first
_BYTE_PAIRS = tuple(
    tuple(INTERIOR_PAIRS[(b >> (2 * k)) & 3] for k in range(4)) for b in range(256)
)


def _mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


#: one 128-bit lane with its low 64 bits set, as little-endian bytes
_LANE_LOW = _MASK64.to_bytes(16, "little")


def _mix_lanes(z: int, low: int) -> int:
    """``_mix`` of the value below 2^64 in each 128-bit lane of z; ``low``
    sets the low 64 bits of every lane.  Each ``z >> s`` pulls the next
    lane's low bits into bits 64-127 of this one, so every lane is cut back
    to 64 bits before a multiply, whose product then fits its lane and
    carries into no other, and cut again after it and at the end."""
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return (z ^ (z >> 31)) & low


class RngStream:
    """Counter-based deterministic generator; see the module docstring."""

    def __init__(self, seed: int, stream: int = 0):
        self._state = _mix(_mix((seed ^ _SEED_TWEAK) & _MASK64) + stream * _STREAM_STEP)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def getrandbits(self, k: int) -> int:
        """The low k bits of the next m = ceil(k/64) outputs, the first
        output least significant.  Output j finalizes state + (j+1) * GAMMA,
        so all m are computed at once in the 128-bit lanes of two integers:
        lane i of the even one holds output 2i, and of the odd one output
        2i + 1, both starting from their first state plus 2i * GAMMA.  The
        ramp sum of i << 128i over the lanes is built by doubling, in O(m)."""
        if k <= 0:
            return 0
        m = (k + 63) >> 6
        h = (m + 1) >> 1
        low = int.from_bytes(_LANE_LOW * h, "little")
        ramp, ones, width = 0, 1, 1  # over the first `width` lanes
        while width < h:
            ramp |= (ramp + width * ones) << (128 * width)
            ones |= ones << (128 * width)
            width <<= 1
        ones &= low
        step = 2 * _GAMMA * ramp
        state = self._state
        even = _mix_lanes(((state + _GAMMA) * ones + step) & low, low)
        odd = _mix_lanes(((state + 2 * _GAMMA) * ones + step) & low, low)
        self._state = (state + m * _GAMMA) & _MASK64
        return (even | odd << 64) & ((1 << k) - 1)

    def randbelow(self, bound: int) -> int:
        """Uniform below ``bound``: ``getrandbits(bound.bit_length())`` until
        the value is below it; ``randbelow(1)`` draws nothing.  Below 2^64
        each try advances the state and computes the documented finalizer
        in this body, and the state is stored once, when a value is
        accepted: one Python call per draw, the same bits as ``_mix``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        k = bound.bit_length()
        if k > 64:
            while True:
                value = self.getrandbits(k)
                if value < bound:
                    return value
        low = (1 << k) - 1
        state = self._state
        while True:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            value = (z ^ (z >> 31)) & low
            if value < bound:
                self._state = state
                return value


def substream(seed: int, index: int) -> RngStream:
    """Independent stream number ``index`` for a seed; used for batches."""
    return RngStream(seed, stream=index)


def _letters_from_digits(value: int, n_digits: int) -> list[str]:
    if n_digits == 0:
        return []
    raw = value.to_bytes((n_digits + 3) // 4, "little")
    out: list[str] = []
    for b in raw:
        out.extend(_BYTE_PAIRS[b])
    return out[:n_digits]


def _marked_words(n: int) -> int:
    """M_n, the number of marked words of length n >= 2."""
    return 2 if n == _FIRST_LENGTH else (2 * n + 4) << (2 * (n - 3))


def _word_at(n: int, idx: int) -> MarkedWord:
    """Marked word number idx < M_n of length n >= 2.

    At n = 2 the word is marked 1 + idx.  Above, M_n = (2n + 4) * 4^(n-3)
    and idx splits as ``block = idx >> 2(n-3)`` above n-3 free letters.
    Blocks 0-3 mark 1 and blocks 4-7 mark n, the block's low two bits
    giving the last interior letter; block 8 + 2(p-2) + d marks interior
    position p, which reads UL when d = 0 and DL when d = 1.
    """
    if n == _FIRST_LENGTH:
        return _unchecked(MarkedWord, letters=(FRAME, FRAME), mark=1 + idx)
    shift = 2 * (n - 3)
    block = idx >> shift
    interior = _letters_from_digits(idx & ((1 << shift) - 1), n - 3)
    if block < 8:
        mark = 1 if block < 4 else n
        interior.append(INTERIOR_PAIRS[block & 3])
    else:
        mark = 2 + ((block - 8) >> 1)
        interior.insert(mark - 2, "DL" if block & 1 else "UL")
    return _unchecked(MarkedWord, letters=(FRAME, *interior, FRAME), mark=mark)


def sample_marked_word(n: int, rng: RngStream) -> MarkedWord:
    """Exactly uniform marked word of length n: one draw idx below M_n,
    read as marked word number idx (see ``_word_at``)."""
    if n < _FIRST_LENGTH:
        raise DomainError(f"marked words start at length {_FIRST_LENGTH}")
    return _word_at(n, rng.randbelow(_marked_words(n)))


#: the decode mode whose successes are exactly the family
FAMILY_MODES = {
    CountFamily.SQUARE: DecodeMode.SQUARE,
    CountFamily.FULLY_INDEC: DecodeMode.FULLY_INDEC,
    CountFamily.CONVEX_PERMUTOMINO: DecodeMode.PERMUTOMINO,
}

#: (decode mode, first size) of each sampled family
_SAMPLED = {family: (mode, FIRST_SIZE[family]) for family, mode in FAMILY_MODES.items()}


#: the largest size sampled from a table of decode outcomes, the largest
#: whose table builds in about 10 ms in every mode: at size 6 a table
#: takes 6-16 ms to build and holds 68-221 KiB (tracemalloc), at size 7
#: 33-72 ms and 0.5-1.2 MiB (three runs per mode, 2 cores, Python 3.11.7)
_TABLE_MAX_N = 6

#: (decode mode, n) -> the outcome table of that size, once it is used
_TABLES: dict[tuple[DecodeMode, int], tuple[tuple[object, int], ...]] = {}


def _attempt(word: MarkedWord, mode: DecodeMode, stats: Optional[DecodeStats]):
    """The object that ``sample_object`` accepts for ``word``, or None when
    the word is rejected.  Reads ``codec._decode``'s compact outcome, so a
    rejection builds nothing and a success only the accepted object."""
    outcome = _decode(word.letters, word.mark, mode, stats)
    if isinstance(outcome, InternalContradiction):
        raise AssertionError(f"decoder contradiction on {word}: {outcome}")
    kind, _, rows, colored = outcome
    if kind is not None:
        return None
    cp = _colored(rows, colored)
    return _from_decoded(cp, word.letters) if mode is DecodeMode.PERMUTOMINO else cp


def _outcome_table(mode: DecodeMode, n: int) -> tuple[tuple[object, int], ...]:
    """Entry idx: ``_attempt`` on marked word number idx of length n, and
    the row advances decoding makes on that word.  Built on first use;
    threads that race here build the same table twice, nothing worse."""
    table = _TABLES.get((mode, n))
    if table is None:
        entries = []
        for idx in range(_marked_words(n)):
            stats = DecodeStats()
            entries.append((_attempt(_word_at(n, idx), mode, stats), stats.row_advances))
        table = _TABLES[mode, n] = tuple(entries)
    return table


def sample_object(
    family: CountFamily,
    n: int,
    rng: RngStream,
    stats: Optional[DecodeStats] = None,
):
    """Exactly uniform member of the family: draw words, decode, retry.

    Returns a ColoredPermutation for the permutation families (the
    colored set is empty there) and a Permutomino for
    CONVEX_PERMUTOMINO.  An attempt is accepted with probability
    (family count) / M_n; for SQUARE that is Sq_n / M_n, about 0.46 at
    n = 5, 0.57 at n = 20 and 0.977 at n = 10^4, and it tends to 1 for
    all three families, so the expected number of attempts tends to 1.
    Each attempt draws the word's number below M_n.  Up to size
    ``_TABLE_MAX_N`` it then reads the accepted object, or the rejection,
    from a table of the mode's decode outcomes, built once per size;
    above, it decodes the word in O(n), and builds a permutomino from an
    accepted word in O(n).  Either way the draws, the results and the
    counts in ``stats`` are the same.  At n = 1 SQUARE and FULLY_INDEC
    both return the one permutation (1); FULLY_INDEC is empty at n = 2
    and 3.  ``stats``, when given, counts the attempts and the row
    advances of decoding every word drawn.
    """
    plan = _SAMPLED.get(family)
    if plan is None:
        raise DomainError(f"no sampler for {family}")
    mode, least = plan
    if n < least:
        raise DomainError(f"sampling {family.value} starts at size {least}")
    if n < _FIRST_LENGTH:  # size 1, the one permutation
        if stats is not None:
            stats.attempts += 1
        return ColoredPermutation(Permutation((1,)), frozenset())
    if n < 4 and family is CountFamily.FULLY_INDEC:
        raise DomainError(f"there is no fully indecomposable square of size {n}")
    if n <= _TABLE_MAX_N:
        table = _outcome_table(mode, n)
        bound = len(table)
        while True:
            obj, advances = table[rng.randbelow(bound)]
            if stats is not None:
                stats.attempts += 1
                stats.row_advances += advances
            if obj is not None:
                return obj
    while True:
        obj = _attempt(sample_marked_word(n, rng), mode, stats)
        if stats is not None:
            stats.attempts += 1
        if obj is not None:
            return obj


def _comb_unrank(rank: int, m: int, k: int) -> list[int]:
    """The rank-th k-subset of 0..m-1 in lexicographic order.

    C(m-1-x, r) subsets take x next and r more elements after it; that
    binomial is stepped by one ratio per move instead of recomputed, so
    the cost is O(m) big-integer steps.
    """
    total = comb(m, k)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside 0..C({m},{k})-1")
    out = []
    if k == 0:
        return out
    x = 0
    c = total * k // m  # C(m-1-x, r) with r = k-1
    for r in range(k - 1, -1, -1):
        while c <= rank:
            rank -= c
            c = c * (m - 1 - x - r) // (m - 1 - x)  # x -> x+1
            x += 1
        out.append(x)
        if r:
            c = c * r // (m - 1 - x)  # x -> x+1 and r -> r-1
        x += 1
    return out


def _sample_subset(m: int, k: int, rng: RngStream) -> list[int]:
    return _comb_unrank(rng.randbelow(comb(m, k)), m, k)


@dataclass(frozen=True)
class GridConfig:
    """n points on a cols x rows grid, no shared line, all exterior."""

    cols: int
    rows: int
    points: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "cols": self.cols,
            "rows": self.rows,
            "points": [list(p) for p in self.points],
        }


@dataclass(frozen=True)
class GridPolygon:
    """A generic convex polygon with 2n turnpoints on a cols x rows grid."""

    cols: int
    rows: int
    turnpoints: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.turnpoints) // 2

    def to_json(self) -> dict:
        return {
            "cols": self.cols,
            "rows": self.rows,
            "turnpoints": [list(p) for p in self.turnpoints],
        }


def _check_grid_size(family: CountFamily, cols: int, rows: int, n: int) -> None:
    least = FIRST_SIZE[family]
    if n < least or n > min(cols, rows):
        raise DomainError(f"need {least} <= n <= min(cols, rows)")


def exact_generic_count(cols: int, rows: int, n: int) -> int:
    """Generic all-exterior configurations: Sq_n C(cols,n) C(rows,n)."""
    _check_grid_size(CountFamily.SQUARE, cols, rows, n)
    return count(CountFamily.SQUARE, n) * comb(cols, n) * comb(rows, n)


def exact_generic_polygon_count(cols: int, rows: int, n: int) -> int:
    """Generic convex polygons with 2n turnpoints: Cp_n C(cols,n) C(rows,n)."""
    _check_grid_size(CountFamily.CONVEX_PERMUTOMINO, cols, rows, n)
    return count(CountFamily.CONVEX_PERMUTOMINO, n) * comb(cols, n) * comb(rows, n)


def sample_exterior_config(cols: int, rows: int, n: int, rng: RngStream) -> GridConfig:
    """Uniform generic all-exterior configuration of n points.

    Draw order is fixed: column subset, then row subset, then the square
    permutation giving the reduced shape.
    """
    _check_grid_size(CountFamily.SQUARE, cols, rows, n)
    xs = _sample_subset(cols, n, rng)
    ys = _sample_subset(rows, n, rng)
    perm = sample_object(CountFamily.SQUARE, n, rng).perm
    points = tuple((xs[i], ys[perm.values[i] - 1]) for i in range(n))
    return GridConfig(cols, rows, points)


def sample_convex_polygon(cols: int, rows: int, n: int, rng: RngStream) -> GridPolygon:
    """Uniform generic convex polygon with 2n turnpoints.

    Draw order: column subset, row subset, then the convex permutomino
    stretched over the chosen lines.
    """
    _check_grid_size(CountFamily.CONVEX_PERMUTOMINO, cols, rows, n)
    xs = _sample_subset(cols, n, rng)
    ys = _sample_subset(rows, n, rng)
    permutomino = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, rng)
    turnpoints = _cycle([xs[x] for x in permutomino.xs], [ys[y] for y in permutomino.ys])
    return GridPolygon(cols, rows, turnpoints)
