import itertools
import tracemalloc

import pytest

import corpus
from squareperm.perm import (
    BL,
    BR,
    LEFT,
    UL,
    UPPER,
    UR,
    ColoredPermutation,
    Corner,
    Permutation,
    Slope,
    _square_flags,
    format_permutation_text,
    free_fixed_points,
    is_co_decomposable,
    is_decomposable,
    is_parallel,
    is_square,
    is_triangular,
    parse_permutation_text,
    record_masks,
    standardize_tuple,
    subclass_report,
    upper_left_counts,
)

TRIANGULAR_PATTERNS = [(3, 2, 1, 4), (3, 2, 4, 1), (4, 2, 1, 3), (4, 2, 3, 1)]


def perms(n):
    return itertools.permutations(range(1, n + 1))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((2, 2))
    with pytest.raises(ValueError):
        Permutation(())
    assert Permutation([2, 1]).values == (2, 1)


def test_unchecked_objects_equal_checked_ones():
    from dataclasses import fields

    from squareperm.codec import Failure, FailureKind, MarkedWord, Success
    from squareperm.perm import _unchecked
    from squareperm.permutomino import Permutomino

    perm = Permutation((1, 2, 3))
    colored = ColoredPermutation(perm, frozenset({2}))
    word = MarkedWord(("XY", "UR", "UL", "DR", "XY"), 3)
    prefix = Permutation((2, 1))
    pairs = [
        (_unchecked(Permutation, values=(1, 2, 3)), perm),
        (
            _unchecked(ColoredPermutation, perm=perm, colored=frozenset({2})),
            colored,
        ),
        (
            _unchecked(MarkedWord, letters=("XY", "UR", "UL", "DR", "XY"), mark=3),
            word,
        ),
        (
            _unchecked(Permutomino, xs=(1, 0), ys=(1, 0)),
            Permutomino(((0, 1), (1, 1), (1, 0), (0, 0))),
        ),
        (_unchecked(Success, result=colored), Success(colored)),
        (
            _unchecked(
                Failure,
                stop_index=3,
                kind=FailureKind.NW,
                prefix=prefix,
                pair=("U", "R"),
                word=word,
            ),
            Failure(3, FailureKind.NW, prefix, ("U", "R"), word),
        ),
    ]
    for fast, checked in pairs:
        assert type(fast) is type(checked)
        assert list(vars(fast)) == [f.name for f in fields(checked)]
        assert fast == checked and hash(fast) == hash(checked)
        assert repr(fast) == repr(checked)
        assert len({fast, checked}) == 1


def test_package_builds_unchecked_objects_with_their_fields():
    # every site that calls _unchecked names each field, and only fields
    from dataclasses import fields, is_dataclass

    from squareperm import codec, oracle, permutomino, sampler
    from squareperm.series import CountFamily

    built = []
    for n in (2, 5, 9):
        rng = sampler.RngStream(n)
        for _ in range(20):
            word = sampler.sample_marked_word(n, rng)
            built.append(word)
            built += [codec.decode(word, mode) for mode in codec.DecodeMode]
    sq = sampler.sample_object(CountFamily.SQUARE, 9, sampler.RngStream(1))
    cp = sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, 9, sampler.RngStream(2))
    built += [sq, codec.encode(sq), cp, permutomino.to_colored_permutation(cp)]
    built.append(permutomino.Permutomino.from_turnpoints(cp.turnpoints[::-1]))
    built += list(oracle.iter_marked_words(4))
    built += oracle.brute_enumerate(CountFamily.SQUARE, 4)
    built += oracle.brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, 4)
    kinds = set()
    while built:
        obj = built.pop()
        kinds.add(type(obj).__name__)
        names = [f.name for f in fields(obj)]
        assert list(vars(obj)) == names, obj
        built += [v for v in vars(obj).values() if is_dataclass(v)]
    assert kinds >= {
        "Permutation",
        "ColoredPermutation",
        "MarkedWord",
        "Permutomino",
        "Success",
        "Failure",
    }


@pytest.fixture
def checked_trusted_builds(monkeypatch):
    """Rebinds ``_unchecked`` in every module that builds trusted objects
    to a wrapper that builds each object again through its checked
    constructor and asserts equal value, hash and field types.  Empties
    the sampler's outcome tables, so sizes <= 6 are rebuilt under it.
    Gives the test a Counter of the (module, class) pairs built."""
    from collections import Counter

    from squareperm import codec, oracle, perm, permutomino, sampler
    from squareperm.permutomino import Permutomino

    trusted = perm._unchecked
    built = Counter()

    def checked(module):
        def build(cls, **fields):
            obj = trusted(cls, **fields)
            if cls is Permutomino:
                twin = Permutomino(obj.turnpoints)
            else:
                twin = cls(**fields)
            assert obj == twin and hash(obj) == hash(twin), (module, obj, twin)
            shape = {k: type(v) for k, v in vars(obj).items()}
            assert shape == {k: type(v) for k, v in vars(twin).items()}, obj
            built[module, cls.__name__] += 1
            return obj

        return build

    for module in (codec, oracle, perm, permutomino, sampler):
        monkeypatch.setattr(module, "_unchecked", checked(module.__name__))
    monkeypatch.setattr(sampler, "_TABLES", {})
    return built


def test_trusted_constructions_pass_the_checked_constructors(checked_trusted_builds):
    # the subset, about 23,600 builds in 1.5 s (2 cores, Python 3.11.7):
    # the outcome tables of sizes 2-6 in all three modes (every marked
    # word of those lengths, decoded); 20 samples per family at each
    # n = 7..40, two at 10^3 and one at 10^4, each encoded, and each
    # permutomino also taken through its colored permutation and rebuilt
    # from its reversed turnpoints; the oracle's words of length 5 and its
    # SQUARE and CONVEX_PERMUTOMINO scans at size 5.  The sampler builds no
    # Success or Failure, so the words of length 5 are then decoded in every
    # mode through the public decode, the one builder of both
    from squareperm import codec, oracle, permutomino, sampler
    from squareperm.series import CountFamily

    sizes = [*range(4, 7)] * 5 + [*range(7, 41)] * 20 + [1000, 1000, 10_000]
    for seed, n in enumerate(sizes):
        for family in sampler.FAMILY_MODES:
            obj = sampler.sample_object(family, n, sampler.RngStream(seed))
            if family is CountFamily.CONVEX_PERMUTOMINO:
                cp = permutomino.to_colored_permutation(obj)
                assert permutomino.from_colored_permutation(cp) == obj
                permutomino.Permutomino.from_turnpoints(obj.turnpoints[::-1])
                obj = cp
            codec.encode(obj)
    for n in (2, 3):
        sampler.sample_object(CountFamily.SQUARE, n, sampler.RngStream(n))
        sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, n, sampler.RngStream(n))
    list(oracle.iter_marked_words(5))
    oracle.brute_enumerate(CountFamily.SQUARE, 5)
    oracle.brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, 5)
    sampled = set(checked_trusted_builds)
    for mode in codec.DecodeMode:
        for word in oracle.iter_marked_words(5):
            codec.decode(word, mode)
    assert set(checked_trusted_builds) - sampled == {
        ("squareperm.codec", "Failure"),
        ("squareperm.codec", "Success"),
    }
    assert set(checked_trusted_builds) == {
        ("squareperm.codec", "MarkedWord"),
        ("squareperm.codec", "Failure"),
        ("squareperm.codec", "Permutation"),
        ("squareperm.codec", "ColoredPermutation"),
        ("squareperm.codec", "Success"),
        ("squareperm.oracle", "MarkedWord"),
        ("squareperm.oracle", "Permutation"),
        ("squareperm.oracle", "ColoredPermutation"),
        ("squareperm.permutomino", "Permutomino"),
        ("squareperm.permutomino", "Permutation"),
        ("squareperm.permutomino", "ColoredPermutation"),
        ("squareperm.sampler", "MarkedWord"),
    }


def test_identity_records():
    masks = record_masks((1, 2, 3))
    assert all(m & UL for m in masks)
    assert masks[0] & BL and masks[2] & UR and masks[2] & BR
    assert all(m & UPPER and m & LEFT for m in masks)


def test_records_35412():
    masks = record_masks((3, 5, 4, 1, 2))
    upper = [i + 1 for i, m in enumerate(masks) if m & UPPER]
    left = [i + 1 for i, m in enumerate(masks) if m & LEFT]
    assert upper == [1, 2, 3, 5]
    assert left == [1, 2, 4]
    # point (3,4) is an upper-right record only; point (4,1) is BL and BR
    assert masks[2] == UR
    assert masks[3] & BL and masks[3] & BR


def test_records_231():
    masks = record_masks((2, 3, 1))
    assert all(m & UPPER for m in masks)
    assert all(m & LEFT for m in masks)
    assert masks[2] & UR  # the rightmost point is always an upper-right record


def test_boundary_record_facts_exhaustive():
    for n in range(1, 7):
        for values in perms(n):
            masks = record_masks(values)
            assert masks[0] & UL and masks[0] & BL
            assert masks[-1] & UR and masks[-1] & BR
            assert masks[values.index(n)] & UL and masks[values.index(n)] & UR
            assert masks[values.index(1)] & BL and masks[values.index(1)] & BR
            # a mask holds only the four record bits, so a point is exterior
            # exactly when its mask is nonzero
            for m in masks:
                assert not m & ~(UL | UR | BL | BR)


def test_square_flags_are_the_record_masks_flags():
    """The sweep gives every column the upper flag of its mask and every
    row the left flag of its point's mask, frame included, and None
    exactly when some mask is empty."""
    for n in range(1, 8):
        for values in perms(n):
            masks = record_masks(values)
            flags = _square_flags(values)
            if 0 in masks:
                assert flags is None, values
                continue
            by_row = [0] * (n + 1)
            for v, m in zip(values, masks):
                by_row[v] = m
            upper = bytearray(bool(m & UPPER) for m in masks)
            left = bytearray([0] + [bool(m & LEFT) for m in by_row[1:]])
            assert flags == (upper, left), values


def _reference_records(values):
    """(ul, ur, bl, br) of every point by four independent sweeps: a point
    is an upper-left record when it equals the maximum of its prefix, a
    bottom-right one when it equals the minimum of its suffix, and so on."""
    rev = values[::-1]
    ul = [v == m for v, m in zip(values, itertools.accumulate(values, max))]
    bl = [v == m for v, m in zip(values, itertools.accumulate(values, min))]
    ur = [v == m for v, m in zip(rev, itertools.accumulate(rev, max))][::-1]
    br = [v == m for v, m in zip(rev, itertools.accumulate(rev, min))][::-1]
    return list(zip(ul, ur, bl, br))


#: reference flag index of the path each corner names, in (ul, ur, bl, br)
_CORNER_FLAG = {
    Corner.UPPER_LEFT: 0,
    Corner.UPPER_RIGHT: 1,
    Corner.LOWER_LEFT: 2,
    Corner.LOWER_RIGHT: 3,
}


def _assert_records_match(values, predicates=True):
    want = _reference_records(values)
    masks = record_masks(values)
    # each flag is its own bit, so a point is exterior exactly when its
    # mask is nonzero
    assert list(masks) == [
        sum(bit for bit, flag in zip((UL, UR, BL, BR), f) if flag) for f in want
    ]
    assert [bool(m & UPPER) for m in masks] == [ul or ur for ul, ur, _, _ in want]
    assert [bool(m & LEFT) for m in masks] == [ul or bl for ul, _, bl, _ in want]
    if not predicates:
        return
    perm = Permutation(values)
    assert is_square(values) == all(any(f) for f in want)
    for corner, k in _CORNER_FLAG.items():
        kept = [f[:k] + f[k + 1 :] for f in want]
        assert is_triangular(values, corner) == all(any(f) for f in kept), corner
    assert is_parallel(values, Slope.RISING) == all(f[0] or f[3] for f in want)
    assert is_parallel(values, Slope.FALLING) == all(f[1] or f[2] for f in want)
    free = {
        i + 1 for i, (v, f) in enumerate(zip(values, want)) if v == i + 1 and not (f[1] or f[2])
    }
    assert free_fixed_points(perm) == free
    cp = ColoredPermutation(perm, frozenset(free))
    assert upper_left_counts(cp) == (
        sum(f[0] or f[1] for i, f in enumerate(want) if i + 1 not in free),
        sum(f[0] or f[2] for i, f in enumerate(want) if i + 1 not in free),
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_records_match_four_sweeps_exhaustive(n):
    for values in perms(n):
        _assert_records_match(values, predicates=n <= 7)


def test_records_match_four_sweeps_at_ten_thousand():
    import random

    from squareperm import sampler
    from squareperm.series import CountFamily

    n = 10_000
    for seed in range(3):
        _assert_records_match(tuple(random.Random(seed).sample(range(1, n + 1), n)))
    for family in (CountFamily.SQUARE, CountFamily.FULLY_INDEC):
        _assert_records_match(sampler.sample_object(family, n, sampler.substream(3, 0)).perm.values)


def test_subclass_report_examples():
    assert subclass_report(Permutation((3, 5, 4, 1, 2))).square
    rep = subclass_report(Permutation((1, 2)))
    assert rep.square and rep.decomposable and not rep.co_decomposable
    assert all(rep.triangular.values()) and all(rep.parallel.values())
    rep = subclass_report(Permutation((2, 3, 1)))
    assert rep.square and rep.upper_count == 3 and rep.left_count == 3


def test_colored_counts_exclude_colored_points():
    cp = ColoredPermutation(Permutation((1, 2, 3)), frozenset({2}))
    assert upper_left_counts(cp) == (2, 2)
    assert upper_left_counts(Permutation((1, 2, 3))) == (3, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_square_iff_avoids_sixteen_patterns(n):
    for values in perms(n):
        avoids = all(
            standardize_tuple(sub) not in corpus.SQUARE_PATTERNS
            for sub in itertools.combinations(values, 5)
        )
        assert avoids == is_square(Permutation(values))


@pytest.mark.parametrize("n", range(1, 7))
def test_triangular_iff_avoids_four_patterns(n):
    pattern_set = set(TRIANGULAR_PATTERNS)
    for values in perms(n):
        avoids = all(
            standardize_tuple(sub) not in pattern_set
            for sub in itertools.combinations(values, 4)
        )
        assert avoids == is_triangular(Permutation(values))


@pytest.mark.parametrize("n", range(1, 7))
def test_parallel_iff_avoids_321(n):
    for values in perms(n):
        avoids = all(
            standardize_tuple(sub) != (3, 2, 1)
            for sub in itertools.combinations(values, 3)
        )
        assert avoids == is_parallel(Permutation(values))


def test_free_fixed_points():
    # the middle of the identity has points below-left and above-right
    assert free_fixed_points(Permutation((1, 2, 3))) == {2}
    # (2,2) in 321 has nothing below-left, hence is a BL record, not free
    assert free_fixed_points(Permutation((3, 2, 1))) == frozenset()
    assert free_fixed_points(Permutation((4, 2, 3, 1))) == frozenset()
    assert free_fixed_points(Permutation((1, 2, 3, 4))) == {2, 3}
    assert free_fixed_points(Permutation((2, 1, 3, 4))) == {3}


def test_colored_permutation_rejects_non_free():
    with pytest.raises(ValueError):
        ColoredPermutation(Permutation((3, 2, 1)), frozenset({2}))
    ColoredPermutation(Permutation((1, 2, 3)), frozenset({2}))


def test_standardize():
    assert standardize_tuple((7, 9, 8)) == (1, 3, 2)
    assert standardize_tuple((3,)) == (1,)
    assert standardize_tuple((5, 2, 8, 1)) == (3, 2, 4, 1)
    with pytest.raises(ValueError):
        standardize_tuple((1, 1))


def _reverse(values):
    return values[::-1]


def _complement(values):
    return tuple(len(values) + 1 - v for v in values)


def _inverse(values):
    inv = [0] * len(values)
    for i, v in enumerate(values):
        inv[v - 1] = i + 1
    return tuple(inv)


def _rot90(values):
    """The counterclockwise quarter turn (x, y) -> (n+1-y, x) of the plot."""
    return _reverse(_inverse(values))


def _antidiagonal(values):
    """The reflection (x, y) -> (n+1-y, n+1-x) of the plot."""
    return _complement(_rot90(values))


#: the seven symmetries of the square other than the identity, as maps on
#: one-line tuples, composed from reverse, complement and inverse
SYMMETRIES = (
    _inverse,
    _reverse,
    _complement,
    _rot90,
    lambda v: _complement(_reverse(v)),
    lambda v: _complement(_inverse(v)),
    _antidiagonal,
)


def test_symmetries_preserve_squareness_and_swap_counts():
    for n in range(1, 7):
        for values in perms(n):
            sq = is_square(values)
            for sym in SYMMETRIES:
                assert is_square(sym(values)) == sq
            u, l = upper_left_counts(Permutation(values))
            ua, la = upper_left_counts(Permutation(_antidiagonal(values)))
            assert (ua, la) == (l, u)


def test_triangular_orientations_are_rotations():
    # one counterclockwise quarter turn moves the free corner one step around
    cycle = [Corner.LOWER_LEFT, Corner.LOWER_RIGHT, Corner.UPPER_RIGHT, Corner.UPPER_LEFT]
    for values in perms(5):
        q = _rot90(values)
        assert set(enumerate(q, 1)) == {(6 - y, x) for x, y in enumerate(values, 1)}
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert is_triangular(values, a) == is_triangular(q, b)


def test_decomposability():
    assert is_decomposable((1, 2))
    assert not is_co_decomposable((1, 2))
    assert is_co_decomposable((2, 3, 1))
    assert not is_decomposable((2, 3, 1))
    assert is_decomposable((2, 1, 3, 4))
    assert not is_decomposable((2, 4, 1, 3))


def _ref_is_decomposable(values):
    """Some proper prefix occupies exactly the lowest values: every prefix."""
    return any(max(values[: k + 1]) == k + 1 for k in range(len(values) - 1))


def _ref_is_co_decomposable(values):
    """Some proper prefix occupies exactly the highest values: every prefix."""
    n = len(values)
    return any(min(values[: k + 1]) == n - k for k in range(n - 1))


def test_decomposability_matches_the_prefix_scan():
    for n in range(9):
        for values in itertools.permutations(range(1, n + 1)):
            assert is_decomposable(values) == _ref_is_decomposable(values), values
            assert is_co_decomposable(values) == _ref_is_co_decomposable(values), values


def test_text_round_trip():
    cp = parse_permutation_text("1,2*,3")
    assert cp.perm.values == (1, 2, 3)
    assert cp.colored == {2}
    assert format_permutation_text(cp) == "1,2*,3"
    assert parse_permutation_text("3,5,4,1,2").perm.values == (3, 5, 4, 1, 2)
    with pytest.raises(ValueError):
        parse_permutation_text("1,x,3")


@pytest.mark.parametrize("entry", ["2_0", "\uff12", "\u00b2", "+2", "--2", "-", "", "2.0"])
def test_permutation_entries_are_ascii_decimal(entry):
    # a full-width 2, a superscript 2 and 2_0 are no ASCII decimal
    with pytest.raises(ValueError, match="bad permutation entry"):
        parse_permutation_text(f"1,{entry}")
    assert parse_permutation_text(" 1 , 2* ,3") == parse_permutation_text("1,2*,3")


def test_text_line_memory_is_linear_in_its_characters():
    # a list of one new str per value peaks at 11-17 bytes per character
    # of the line; the bound leaves room for a few flat buffers
    from squareperm import sampler
    from squareperm.series import CountFamily

    n = 1000
    identity = Permutation(tuple(range(1, n + 1)))  # 2..n-1 are free fixed points
    inputs = [
        sampler.sample_object(CountFamily.SQUARE, size, sampler.substream(size, 0))
        for size in (1000, 100_000)
    ] + [ColoredPermutation(identity, frozenset(range(2, n, 3)))]
    for perm in inputs:
        tracemalloc.start()
        try:
            text = format_permutation_text(perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * len(text), (perm.size, peak / len(text))
    assert text.count("*") == 333
