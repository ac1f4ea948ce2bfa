"""Every field of every decode outcome, pinned by digest.

Any change to a draw, a stop, a prefix, a suffix, a result or a
row-advance count moves the digests, however the outcomes are built.
"""

import hashlib

from squareperm.codec import (
    DecodeMode,
    DecodeStats,
    Failure,
    Success,
    decode,
    format_marked_word,
)
from squareperm.oracle import iter_marked_words
from squareperm.sampler import RngStream, sample_marked_word

#: sha256 of the outcome lines of every marked word of length 2..8, each
#: decoded in every mode (79188 decodes)
GOLDEN_EXHAUSTIVE = "61f7d679f1e58ac385a201b53ac073f8d3ada51887a49d08a532dec42e45aa6f"

#: sha256 of the word and outcome lines of the seeded words below
GOLDEN_SEEDED = "5afded57f097981163f41887024be92a1723fa92b4ea684d05926010ccacc1da"

#: (n, words) drawn by ``sample_marked_word`` from ``RngStream(n)``
SEEDED = ((50, 300), (1000, 30), (10**5, 3))

#: sha256 of the outcome lines of one word of length 10^6, drawn by
#: ``sample_marked_word`` from ``RngStream(10**6)`` and decoded in every mode
GOLDEN_LONG = "6542264551f0b1fff2fdafce456c35f0cdfe0ccb81c9211fcb28b19746ee683e"


def _outcome_line(word, mode) -> str:
    stats = DecodeStats()
    outcome = decode(word, mode, stats)
    if isinstance(outcome, Success):
        cp = outcome.result
        fields = ("S", cp.perm.values, sorted(cp.colored))
    elif isinstance(outcome, Failure):
        fields = (
            "F",
            outcome.stop_index,
            outcome.kind.value,
            outcome.pair,
            outcome.prefix.values,
            outcome.suffix_u,
            outcome.suffix_v,
        )
    else:
        fields = ("C", outcome.diagnostic)
    return f"{mode.value} {fields!r} {stats.row_advances}\n"


def test_exhaustive_decode_outcomes_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 9):
        for word in iter_marked_words(n):
            for mode in DecodeMode:
                digest.update(_outcome_line(word, mode).encode())
    assert digest.hexdigest() == GOLDEN_EXHAUSTIVE


def test_seeded_decode_outcomes_are_pinned():
    digest = hashlib.sha256()
    for n, words in SEEDED:
        rng = RngStream(n)
        for _ in range(words):
            word = sample_marked_word(n, rng)
            digest.update(format_marked_word(word).encode())
            for mode in DecodeMode:
                digest.update(_outcome_line(word, mode).encode())
    assert digest.hexdigest() == GOLDEN_SEEDED


def test_long_word_decode_outcomes_are_pinned():
    n = 10**6
    word = sample_marked_word(n, RngStream(n))
    digest = hashlib.sha256()
    for mode in DecodeMode:
        digest.update(_outcome_line(word, mode).encode())
    assert digest.hexdigest() == GOLDEN_LONG
