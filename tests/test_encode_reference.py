"""``codec.encode`` against a reference copy of the per-column loop that
builds each letter from its column's and its row's record masks.

Exhaustive over the colored squares and over every permutation of sizes
2-8, seeded beyond, where two adjacent columns of a square are also
swapped in each stretch that the columns of n and 1 cut it into; the
error path is compared by exception type and message.  Plain loops, no
hypothesis, so the smoke job can run this file against the installed
package.
"""

import itertools

import pytest

import corpus
from squareperm.codec import FRAME, MarkedWord, encode
from squareperm.perm import (
    LEFT,
    UPPER,
    ColoredPermutation,
    Permutation,
    as_colored,
    is_square,
    require_square,
)


def reference_encode(perm):
    """The encoder with an inverse list and one new string per letter."""
    cp = as_colored(perm)
    values = cp.perm.values
    n = len(values)
    if n < 2:
        raise ValueError("marked words start at length 2")
    masks = require_square(values)
    inv = [0] * (n + 1)
    for i, v in enumerate(values):
        inv[v] = i + 1
    colored = cp.colored
    letters = [FRAME]
    for idx in range(2, n):
        i = idx - 1  # 0-based column
        u = "U" if masks[i] & UPPER and idx not in colored else "D"
        pos = inv[idx]  # 1-based position of the point in row idx
        p = pos - 1
        v = "L" if masks[p] & LEFT and pos not in colored else "R"
        letters.append(u + v)
    letters.append(FRAME)
    return MarkedWord(tuple(letters), values[0])


def _assert_same(cp):
    got = encode(cp)
    want = reference_encode(cp)
    assert type(got) is MarkedWord
    assert got == want, cp
    assert all(type(pair) is str for pair in got.letters)


def test_encode_matches_reference_on_every_colored_square_to_size_8():
    inputs = 0
    for n in range(2, 9):
        for cp in corpus.colored_squares(n):
            _assert_same(cp)
            inputs += 1
    assert inputs == 14_173


@pytest.mark.parametrize("n, samples", corpus.SEEDED)
def test_encode_matches_reference_on_seeded_samples(n, samples):
    for cp in corpus.seeded_samples(n, samples):
        _assert_same(cp)
        _assert_same(cp.perm)


def _raised(call, arg):
    with pytest.raises(ValueError) as info:
        call(arg)
    return type(info.value), str(info.value)


def test_encode_raises_as_the_reference_does():
    inputs = [Permutation((1,)), ColoredPermutation(Permutation((1,)))]
    for n in range(5, 7):
        inputs += [
            Permutation(values)
            for values in itertools.permutations(range(1, n + 1))
            if not is_square(values)
        ]
    assert len(inputs) == 2 + 16 + 256
    for arg in inputs:
        assert _raised(encode, arg) == _raised(reference_encode, arg), arg


def _outcome(call, arg):
    """The word ``call`` returns, or the type and message of its ValueError."""
    try:
        return call(arg)
    except ValueError as exc:
        return type(exc), str(exc)


def test_encode_matches_reference_on_every_permutation_to_size_8():
    words = refusals = 0
    for n in range(2, 9):
        for values in itertools.permutations(range(1, n + 1)):
            perm = Permutation(values)
            want = _outcome(reference_encode, perm)
            assert _outcome(encode, perm) == want, values
            if type(want) is MarkedWord:
                words += 1
            else:
                refusals += 1
    assert (words, refusals) == (12_080, 34_152)


def _adjacent_swaps(values):
    """``values`` with the values of two adjacent columns swapped: the
    first, a middle and the last pair of each stretch that the columns of
    n and 1 cut it into (before both, between them, after both), and each
    pair that crosses the column of n or of 1."""
    n = len(values)
    first, second = sorted((values.index(n), values.index(1)))
    starts = {i for i in (first - 1, first, second - 1, second) if 0 <= i < n - 1}
    for lo, hi in ((0, first), (first + 1, second), (second + 1, n)):
        if hi - lo >= 2:
            starts.update((lo, (lo + hi) // 2 - 1, hi - 2))
    for i in sorted(starts):
        out = list(values)
        out[i], out[i + 1] = out[i + 1], out[i]
        yield tuple(out)


def _assert_swaps_match(values):
    """``values`` and its mirror image, one with n before 1 and one with 1
    before n, and every adjacent swap of each, encode as the reference does."""
    for base in (values, values[::-1]):
        for swapped in (base, *_adjacent_swaps(base)):
            perm = Permutation(swapped)
            assert _outcome(encode, perm) == _outcome(reference_encode, perm)


def test_encode_matches_reference_on_adjacent_swaps_of_seeded_squares():
    for cp in corpus.seeded_samples(1_000, 4):
        _assert_swaps_match(cp.perm.values)


def test_encode_matches_reference_on_adjacent_swaps_of_a_large_square():
    square = corpus.seeded_samples(100_000, 1)[0]
    _assert_swaps_match(square.perm.values)
