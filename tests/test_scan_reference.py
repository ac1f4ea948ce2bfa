"""``oracle.brute_enumerate`` against a reference copy of the per-family
n! scan: each permutation family, and the colored co-indecomposable
squares, read straight off all n! one-line arrays with its own predicate.

The package scans the n! arrays once for squares and filters those, so
the lists must be equal in order: a filter that drops, adds or reorders a
member fails here.  Plain loops, no hypothesis, so the smoke job can run
this file against the installed package.
"""

import itertools
import operator
import tracemalloc

import pytest

from squareperm import oracle
from squareperm.perm import (
    ColoredPermutation,
    Permutation,
    free_fixed_positions,
    is_co_decomposable,
    is_decomposable,
    is_parallel,
    is_square,
    is_triangular,
    record_masks,
)
from squareperm.series import FIRST_SIZE, BoundExceeded, CountFamily

SCANNED = (
    CountFamily.SQUARE,
    CountFamily.TRIANGULAR,
    CountFamily.PARALLEL,
    CountFamily.FULLY_INDEC,
    CountFamily.CONVEX_PERMUTOMINO,
)
LAST_N = 8

_REFERENCE_TESTS = {
    CountFamily.SQUARE: is_square,
    CountFamily.TRIANGULAR: is_triangular,
    CountFamily.PARALLEL: is_parallel,
    CountFamily.FULLY_INDEC: lambda values: (
        not is_decomposable(values) and not is_co_decomposable(values) and is_square(values)
    ),
}


def _reference_scan(family, n):
    perms = itertools.permutations(range(1, n + 1))
    if family is not CountFamily.CONVEX_PERMUTOMINO:
        keep = _REFERENCE_TESTS[family]
        return [Permutation(values) for values in perms if keep(values)]
    out = []
    for values in perms:
        masks = record_masks(values)
        if is_co_decomposable(values) or 0 in masks:
            continue
        free = free_fixed_positions(values, masks)
        perm = Permutation(values)
        for r in range(len(free) + 1):
            for subset in itertools.combinations(free, r):
                out.append(ColoredPermutation(perm, frozenset(subset)))
    return out


@pytest.fixture(scope="module")
def reference():
    return {
        (family, n): _reference_scan(family, n)
        for family in SCANNED
        for n in range(FIRST_SIZE[family], LAST_N + 1)
    }


@pytest.fixture
def scanned_sizes(monkeypatch):
    """The size of every n! scan started while the test runs, from an empty
    table of squares; the oracle's own table is put back afterwards."""
    monkeypatch.setattr(oracle, "_SQUARES", {})
    sizes = []
    permutations = itertools.permutations

    def counted(values, *args):
        sizes.append(len(values))
        return permutations(values, *args)

    monkeypatch.setattr(itertools, "permutations", counted)
    return sizes


def test_each_scan_matches_the_reference(reference):
    for (family, n), want in reference.items():
        assert oracle.brute_enumerate(family, n) == want, (family.value, n)


def test_verify_scans_each_size_once_and_matches_the_reference(
    reference, scanned_sizes, monkeypatch
):
    seen = {}
    scan = oracle.brute_enumerate

    def recorded(family, n):
        seen[family, n] = members = scan(family, n)
        return members

    monkeypatch.setattr(oracle, "brute_enumerate", recorded)
    checks, _ = oracle.verify(LAST_N)
    assert [name for name, ok, _ in checks if not ok] == []
    assert scanned_sizes == list(range(1, LAST_N + 1))
    # the count checks enumerate the colored permutations up to the boundary
    # walk's limit, the PERMUTOMINO audits up to theirs
    last_colored = max(oracle._BOUNDARY_LIMIT, oracle._PERMUTOMINO_AUDIT_LIMIT)
    want = {
        (family, n)
        for family in SCANNED
        for n in range(FIRST_SIZE[family], LAST_N + 1)
        if family is not CountFamily.CONVEX_PERMUTOMINO or n <= last_colored
    }
    assert set(seen) == want
    for key in seen:
        assert seen[key] == reference[key], (key[0].value, key[1])


def test_each_size_is_scanned_once_per_process(scanned_sizes):
    oracle.verify(3)
    oracle.verify(3)
    oracle.brute_enumerate(CountFamily.SQUARE, 3)
    oracle.brute_enumerate(CountFamily.TRIANGULAR, 3)
    assert scanned_sizes == [1, 2, 3]


def test_a_size_past_the_limit_starts_no_scan(scanned_sizes):
    with pytest.raises(BoundExceeded):
        oracle.brute_enumerate(CountFamily.SQUARE, 10)
    assert scanned_sizes == [] and oracle._SQUARES == {}


def test_the_table_holds_no_size_past_the_limit(scanned_sizes, monkeypatch):
    # a lowered limit keeps the test off the 9! scan
    monkeypatch.setattr(oracle, "_PERM_SCAN_LIMIT", 4)
    for family in SCANNED:
        for n in range(FIRST_SIZE[family], 5):
            oracle.brute_enumerate(family, n)
        for n in (5, 6):
            with pytest.raises(BoundExceeded):
                oracle.brute_enumerate(family, n)
    assert sorted(oracle._SQUARES) == scanned_sizes == [1, 2, 3, 4]


def test_cold_and_warm_scans_agree(reference, scanned_sizes):
    # for each family, from an emptied table: the first call of each size
    # scans the n! arrays and decides the family's verdict on every square,
    # the second reads the verdicts back; both give the reference, in new
    # lists of new objects, and changing one list changes no later call
    for family in SCANNED:
        oracle._SQUARES.clear()
        sizes = range(FIRST_SIZE[family], LAST_N + 1)
        for n in sizes:
            cold = oracle.brute_enumerate(family, n)
            warm = oracle.brute_enumerate(family, n)
            assert cold == warm == reference[family, n], (family.value, n)
            assert not any(map(operator.is_, cold, warm)), (family.value, n)
            cold.reverse()
            warm.clear()
            assert oracle.brute_enumerate(family, n) == reference[family, n]
        assert scanned_sizes[-len(sizes) :] == list(sizes)
    assert len(scanned_sizes) == sum(LAST_N + 1 - FIRST_SIZE[f] for f in SCANNED)


def test_the_table_of_sizes_1_to_8_stays_under_its_ceiling(scanned_sizes):
    # 1.45 MiB held after every scanned family's call at each size (Python
    # 3.11.7): the squares, a byte per square for each permutation family
    # and a reference per square for the colored ones; a record tuple per
    # square, 64 more bytes each, would pass the ceiling
    tracemalloc.start()
    try:
        for n in range(1, LAST_N + 1):
            for family in SCANNED:
                if n >= FIRST_SIZE[family]:
                    oracle.brute_enumerate(family, n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert scanned_sizes == list(range(1, LAST_N + 1))
    assert set(oracle._SQUARES[LAST_N].verdicts) == set(SCANNED)
    assert held < 1.6 * 2**20, f"{held / 2**20:.2f} MiB"


def test_each_call_returns_a_new_list():
    for family in SCANNED:
        first = oracle.brute_enumerate(family, 5)
        second = oracle.brute_enumerate(family, 5)
        assert first == second and first is not second
        first.clear()
        assert oracle.brute_enumerate(family, 5) == second
