"""The text writers against reference copies that write one new string
per number: ``perm.format_permutation_text`` and
``permutomino.format_permutomino_text``.

Exhaustive over the squares of sizes 1-8 (bare and colored) and the
convex-permutomino members of sizes 2-8, seeded beyond.  Plain loops, no
hypothesis, so the smoke job can run this file against the installed
package.
"""

import pytest

import corpus
from squareperm import permutomino
from squareperm.perm import ColoredPermutation, as_colored, format_permutation_text
from squareperm.permutomino import format_permutomino_text, from_colored_permutation
from squareperm.sampler import sample_object, substream
from squareperm.series import CountFamily


def reference_format(perm):
    """The writer with one ``str`` per value, joined by commas."""
    cp = as_colored(perm)
    if not cp.colored:
        return ",".join(map(str, cp.perm.values))
    return ",".join(
        f"{v}*" if i + 1 in cp.colored else str(v)
        for i, v in enumerate(cp.perm.values)
    )


def _assert_same(perm):
    got = format_permutation_text(perm)
    assert type(got) is str
    assert got == reference_format(perm), perm


def test_format_matches_reference_on_every_square_to_size_8():
    inputs = 0
    for n in range(1, 9):
        for perm in corpus.squares(n):
            _assert_same(perm)
            _assert_same(ColoredPermutation(perm))
            inputs += 1
    assert inputs == 1 + 2 + 6 + 24 + 104 + 464 + 2088 + 9392


def test_format_matches_reference_on_every_convex_permutomino_member_to_size_8():
    members = several = 0
    for n in range(2, 9):
        for cp in corpus.convex_members(n):
            _assert_same(cp)
            members += 1
            several += len(cp.colored) > 1
    assert members == 1 + 4 + 18 + 84 + 394 + 1836 + 8468
    assert several == 1 + 6 + 29 + 130 + 562


@pytest.mark.parametrize("n, samples", corpus.SEEDED)
def test_format_matches_reference_on_seeded_samples(n, samples):
    for cp in corpus.seeded_samples(n, samples):
        _assert_same(cp)
        _assert_same(cp.perm)


def reference_permutomino_format(p):
    """The permutomino line with one ``%d,%d`` per turnpoint of the cycle."""
    return ";".join("%d,%d" % q for q in p.turnpoints)


def _assert_same_permutomino(p):
    got = format_permutomino_text(p)
    assert type(got) is str
    assert got == reference_permutomino_format(p), p


def test_permutomino_format_matches_reference_on_every_convex_permutomino_to_size_8():
    members = 0
    for n in range(2, 9):
        for cp in corpus.convex_members(n):
            _assert_same_permutomino(from_colored_permutation(cp))
            members += 1
    assert members == 1 + 4 + 18 + 84 + 394 + 1836 + 8468


def test_permutomino_format_matches_reference_on_both_sides_of_the_table_cap(monkeypatch):
    # the numerals up to the cap are one table shared between calls; above
    # it a call builds its own.  The cap itself comes before the smaller
    # sizes, so a table grown for it serves them.
    monkeypatch.setattr(permutomino, "_NUMERALS", ())
    cap = permutomino._TABLE_CAP
    for n, samples in ((cap + 1, 2), (cap, 2), (1000, 4), (20, 40), (2, 10)):
        for i in range(samples):
            p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, substream(n, i))
            _assert_same_permutomino(p)
        assert len(permutomino._NUMERALS) == (0 if n > cap else cap)
