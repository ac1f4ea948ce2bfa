import pytest

from squareperm.codec import DecodeMode
from squareperm.oracle import (
    _iter_polyomino_boundaries,
    _walk_permutominoes,
    bijection_audit,
    boundary_refined_histogram,
    brute_enumerate,
    brute_generic_grid_count,
    brute_refined_histogram,
    enumerate_permutominoes,
    iter_marked_words,
)
from squareperm.permutomino import Permutomino, to_colored_permutation
from squareperm.series import BoundExceeded, CountFamily, count


def subset_scan_permutominoes(n):
    """The cell-subset scan that the column walk replaced, kept as a reference."""
    out = set()
    for _, turnpoints in _iter_polyomino_boundaries(n - 1, n - 1):
        if len(turnpoints) != 2 * n:
            continue
        try:
            p = Permutomino.from_turnpoints(turnpoints)
        except ValueError:
            continue
        if p.size == n:
            out.add(p)
    return out


def test_marked_word_census_sizes():
    for n in range(2, 8):
        assert sum(1 for _ in iter_marked_words(n)) == count(CountFamily.MARKED_WORDS, n)


@pytest.mark.parametrize("family", [
    CountFamily.SQUARE,
    CountFamily.TRIANGULAR,
    CountFamily.PARALLEL,
    CountFamily.FULLY_INDEC,
])
def test_brute_counts_match_formulas(family):
    for n in range(1, 8):
        assert len(brute_enumerate(family, n)) == count(family, n)


def test_brute_square_examples():
    assert len(brute_enumerate(CountFamily.SQUARE, 5)) == 104
    assert len(brute_enumerate(CountFamily.FULLY_INDEC, 3)) == 0
    assert len(brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, 3)) == 4
    assert len(enumerate_permutominoes(3)) == 4


def test_colored_enumeration_counts_colorings():
    # each co-indecomposable square contributes one entry per coloring
    members = brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, 3)
    plain = [cp for cp in members if not cp.colored]
    colored = [cp for cp in members if cp.colored]
    assert len(plain) == 3 and len(colored) == 1
    assert colored[0].perm.values == (1, 2, 3)


def test_refined_histograms():
    hist = brute_refined_histogram(CountFamily.SQUARE, 3)
    assert hist == {(3, 3): 3, (3, 2): 1, (2, 3): 1, (2, 2): 1}
    assert brute_refined_histogram(CountFamily.SQUARE, 2) == {(2, 2): 2}
    assert brute_refined_histogram(CountFamily.CONVEX_PERMUTOMINO, 2) == {(1, 1): 1}
    assert boundary_refined_histogram(2) == {(1, 1): 1}


def test_two_permutomino_enumerations_agree():
    for n in range(2, 6):
        direct = len(enumerate_permutominoes(n))
        via_colored = len(brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, n))
        assert direct == via_colored == count(CountFamily.CONVEX_PERMUTOMINO, n)


@pytest.mark.parametrize("n", range(2, 6))
def test_enumeration_matches_subset_scan(n):
    walked = enumerate_permutominoes(n)
    assert len(walked) == len(set(walked))
    assert set(walked) == subset_scan_permutominoes(n)


@pytest.mark.parametrize("n", [6, 7])
def test_walk_past_the_public_limit(n):
    family = CountFamily.CONVEX_PERMUTOMINO
    walked = list(_walk_permutominoes(n))
    assert len(walked) == count(family, n)
    assert {to_colored_permutation(p) for p in walked} == set(brute_enumerate(family, n))


def test_audit_reports_small():
    rep = bijection_audit(DecodeMode.SQUARE, 3)
    assert rep.ok and rep.success_count == 6
    by_kind = {}
    for (kind, _, _), c in rep.failure_counts.items():
        by_kind[kind] = by_kind.get(kind, 0) + c
    assert by_kind == {"SW": 2, "NW": 2}
    rep = bijection_audit(DecodeMode.SQUARE, 4)
    assert rep.ok and rep.success_count == 24
    by_kind = {}
    for (kind, _, _), c in rep.failure_counts.items():
        by_kind[kind] = by_kind.get(kind, 0) + c
    assert by_kind == {"SW": 12, "NW": 12}
    rep = bijection_audit(DecodeMode.PERMUTOMINO, 4)
    assert rep.ok and rep.success_count == 18


@pytest.mark.parametrize("mode", list(DecodeMode))
def test_audits_pass_to_n6(mode):
    for n in range(2, 7):
        rep = bijection_audit(mode, n)
        assert rep.ok, (mode, n, rep.violations)
        assert rep.internal_contradictions == 0
        assert rep.roundtrip_failures == 0


def test_audit_report_json():
    rep = bijection_audit(DecodeMode.SQUARE, 3)
    data = rep.to_json()
    assert data["ok"] and data["success_count"] == 6
    assert len(data["failures"]) == 4


def test_grid_census():
    assert brute_generic_grid_count(5, 5, 3) == 600
    assert brute_generic_grid_count(3, 3, 3) == 6
    assert brute_generic_grid_count(4, 4, 2, polygon=True) == 36


def test_bounds():
    with pytest.raises(BoundExceeded):
        brute_enumerate(CountFamily.SQUARE, 10)
    with pytest.raises(BoundExceeded):
        enumerate_permutominoes(6)
    with pytest.raises(BoundExceeded):
        bijection_audit(DecodeMode.SQUARE, 9)
    with pytest.raises(BoundExceeded):
        brute_generic_grid_count(9, 9, 8)
