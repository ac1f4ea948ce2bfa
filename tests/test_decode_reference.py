"""``codec.decode`` against a reference copy of the column loop that also
tracks every used row and both extremes of the rows used.

The exhaustive goldens stop at length 8; the seeded words here reach the
lengths where the record paths run long.  ``decode`` places long stretches
of columns as runs from length 66 on, so the accepted words at 100..300
have corner events between runs, and the tests that lower the run
threshold to 1 take the run path at every length.  Plain loops, no
hypothesis, so the smoke job can run this file against the installed
package.
"""

import pytest

from squareperm import codec
from squareperm.codec import (
    DecodeMode,
    DecodeStats,
    Failure,
    FailureKind,
    InternalContradiction,
    Success,
    decode,
)
from squareperm.oracle import iter_marked_words
from squareperm.perm import ColoredPermutation, Permutation
from squareperm.sampler import RngStream, sample_marked_word

#: (lengths, words per length) drawn by ``sample_marked_word`` from ``RngStream(n)``
SEEDED = ((range(9, 41), 150), ((1000,), 20))

#: lengths of the accepted words: for each length and mode, the first 40
#: words drawn from ``RngStream(n)`` that decode in that mode
ACCEPTED = (50, 100, 200, 300)


def _reference_failure(word, i, kind, sigma, stats, advances):
    if stats is not None:
        stats.row_advances += advances
    if kind is FailureKind.SW:
        row = i
        values = tuple(sigma[1:i])
    else:
        row = len(word.letters) - i + 1
        values = tuple([v - row for v in sigma[1:i]])
    return Failure(
        stop_index=i,
        kind=kind,
        prefix=Permutation(values),
        pair=(word.letters[i - 1][0], word.letters[row - 1][1]),
        word=word,
    )


def reference_decode(word, mode=DecodeMode.SQUARE, stats=None):
    """The decoder with a used-row array, running extremes and an advance count."""
    letters = word.letters
    n = len(letters)
    rows_ly = [j for j, pair in enumerate(letters, start=1) if pair[1] != "R"]
    rows_ry = [j for j, pair in enumerate(letters, start=1) if pair[1] != "L"]
    used = bytearray(n + 2)
    sigma = [0] * (n + 1)
    colored = []

    m = word.mark
    sigma[1] = m
    used[m] = 1
    acc = m
    min_used = max_used = m
    lu = ll = m
    max_in = m == n
    min_in = m == 1
    ru = n if max_in else 0
    rl = 1 if min_in else 0

    n_ly = len(rows_ly)
    n_ry = len(rows_ry)
    up_ly = 0
    dn_ly = n_ly - 1
    up_ry = 0
    dn_ry = n_ry - 1
    advances = 0

    square = mode is DecodeMode.SQUARE
    permutomino = mode is DecodeMode.PERMUTOMINO
    fully_indec = mode is DecodeMode.FULLY_INDEC
    top_left = n + 2

    for i in range(2, n + 1):
        if not square and min_used + i == top_left:
            return _reference_failure(word, i, FailureKind.NW, sigma, stats, advances)
        if fully_indec and max_used == i - 1:
            return _reference_failure(word, i, FailureKind.SW, sigma, stats, advances)
        if i == n:
            sigma[n] = n * (n + 1) // 2 - acc
            if stats is not None:
                stats.row_advances += advances
            result = ColoredPermutation(Permutation(tuple(sigma[1:])), frozenset(colored))
            return Success(result)
        ui = letters[i - 1][0]
        if ui == "U" and not max_in:
            while up_ly < n_ly and (rows_ly[up_ly] <= lu or used[rows_ly[up_ly]]):
                up_ly += 1
                advances += 1
            if up_ly == n_ly:
                return InternalContradiction(f"no free L/Y row above {lu} at column {i}")
            j = rows_ly[up_ly]
            lu = j
        elif ui == "U":
            if min_used + i == top_left:
                j = n - i + 1
                if letters[j - 1][1] != "L":
                    return _reference_failure(
                        word, i, FailureKind.NW, sigma, stats, advances
                    )
                ru = ll = j
            else:
                while dn_ry >= 0 and (rows_ry[dn_ry] >= ru or used[rows_ry[dn_ry]]):
                    dn_ry -= 1
                    advances += 1
                if dn_ry < 0:
                    return InternalContradiction(
                        f"no free R/Y row below {ru} at column {i}"
                    )
                j = rows_ry[dn_ry]
                ru = j
        elif not min_in:
            while dn_ly >= 0 and (rows_ly[dn_ly] >= ll or used[rows_ly[dn_ly]]):
                dn_ly -= 1
                advances += 1
            if dn_ly < 0:
                return InternalContradiction(f"no free L/Y row below {ll} at column {i}")
            j = rows_ly[dn_ly]
            if j == n - i + 1 and min_used + i == top_left:
                return _reference_failure(word, i, FailureKind.NW, sigma, stats, advances)
            ll = j
        else:
            if max_used == i - 1:
                if not permutomino or letters[i - 1][1] != "R":
                    return _reference_failure(
                        word, i, FailureKind.SW, sigma, stats, advances
                    )
                j = i
                colored.append(i)
                rl = i
            else:
                while up_ry < n_ry and (rows_ry[up_ry] <= rl or used[rows_ry[up_ry]]):
                    up_ry += 1
                    advances += 1
                if up_ry == n_ry:
                    return InternalContradiction(
                        f"no free R/Y row above {rl} at column {i}"
                    )
                j = rows_ry[up_ry]
                rl = j
        sigma[i] = j
        used[j] = 1
        acc += j
        if j < min_used:
            min_used = j
        if j > max_used:
            max_used = j
        if j == n:
            max_in = True
            ru = n
        if j == 1:
            min_in = True
            rl = 1
    raise AssertionError("unreachable: loop always returns at i == n")


def _fields(outcome):
    if isinstance(outcome, Success):
        cp = outcome.result
        return ("S", cp.perm.values, sorted(cp.colored))
    if isinstance(outcome, Failure):
        return (
            "F",
            outcome.stop_index,
            outcome.kind,
            outcome.pair,
            outcome.prefix.values,
            outcome.suffix_u,
            outcome.suffix_v,
        )
    return ("C", outcome.diagnostic)


def _assert_matches_reference(word):
    for mode in DecodeMode:
        # a nonzero start shows that each decoder adds to the record
        got, want = DecodeStats(row_advances=3), DecodeStats(row_advances=3)
        outcome = decode(word, mode, got)
        assert _fields(outcome) == _fields(reference_decode(word, mode, want))
        assert got.row_advances == want.row_advances, (word, mode)


def _seeded_words(lengths, words):
    for n in lengths:
        rng = RngStream(n)
        for _ in range(words):
            yield sample_marked_word(n, rng)


@pytest.fixture
def runs_everywhere(monkeypatch):
    """Every column from the third on tries a run, whatever the length."""
    monkeypatch.setattr(codec, "_RUN", 1)


@pytest.mark.parametrize("lengths, words", SEEDED, ids=["9-40", "1000"])
def test_decode_matches_reference_on_seeded_words(lengths, words):
    for word in _seeded_words(lengths, words):
        _assert_matches_reference(word)


@pytest.mark.parametrize("n", ACCEPTED)
def test_decode_matches_reference_on_accepted_words(n):
    for mode in DecodeMode:
        rng = RngStream(n)
        accepted = 0
        while accepted < 40:
            word = sample_marked_word(n, rng)
            if isinstance(decode(word, mode), Success):
                accepted += 1
                _assert_matches_reference(word)


def test_runs_match_reference_on_every_short_word(runs_everywhere):
    for n in range(2, 9):
        for word in iter_marked_words(n):
            _assert_matches_reference(word)


def test_runs_match_reference_on_seeded_words(runs_everywhere):
    lengths, words = SEEDED[0]
    for word in _seeded_words(lengths, words):
        _assert_matches_reference(word)
