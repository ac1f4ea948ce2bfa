"""``codec.encode`` against a reference copy of the per-column loop that
builds each letter from its column's and its row's record masks.

Exhaustive over the colored squares of sizes 2-8, seeded beyond; the
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
