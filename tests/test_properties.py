"""Property tests of the codec, with hypothesis (skipped where it is absent)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from squareperm.codec import (  # noqa: E402
    INTERIOR_PAIRS,
    DecodeMode,
    InternalContradiction,
    MarkedWord,
    Success,
    decode,
    encode,
)
from squareperm.permutomino import (  # noqa: E402
    from_colored_permutation,
    to_colored_permutation,
)
from squareperm.sampler import FAMILY_MODES, sample_object, substream  # noqa: E402
from squareperm.series import CountFamily  # noqa: E402


# Few examples, derandomized and with no example database, so these
# property tests are reproducible and add only a few seconds to the suite.
_PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@_PROPERTY
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(2, 1000))
def test_sampled_objects_round_trip(seed, n):
    for family, mode in FAMILY_MODES.items():
        if family is CountFamily.FULLY_INDEC and n < 4:
            continue  # no fully indecomposable square of size 2 or 3
        x = sample_object(family, n, substream(seed, 0))
        if family is CountFamily.CONVEX_PERMUTOMINO:
            cp = to_colored_permutation(x)
            assert from_colored_permutation(cp) == x
        else:
            cp = x
        assert decode(encode(cp), mode) == Success(cp)


@st.composite
def marked_words(draw):
    n = draw(st.integers(2, 200))
    interior = st.lists(st.sampled_from(INTERIOR_PAIRS), min_size=n - 2, max_size=n - 2)
    letters = ("XY", *draw(interior), "XY")
    marks = [m for m in range(1, n + 1) if letters[m - 1][1] in "LY"]
    return MarkedWord(letters, draw(st.sampled_from(marks)))


@settings(_PROPERTY, max_examples=100)
@given(w=marked_words())
def test_random_words_never_contradict(w):
    for mode in DecodeMode:
        assert not isinstance(decode(w, mode), InternalContradiction)
