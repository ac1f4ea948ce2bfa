from collections import Counter
from itertools import accumulate

import pytest

import corpus
from squareperm import permutomino
from squareperm.oracle import brute_enumerate, enumerate_permutominoes
from squareperm.perm import ColoredPermutation, NotSquare, Permutation
from squareperm.permutomino import (
    BoundaryReport,
    DuplicateSideOnLine,
    MissingSideOnLine,
    NotAlternating,
    NotClosed,
    NotCoIndecomposable,
    NotConvex,
    Permutomino,
    SelfIntersecting,
    _from_decoded,
    canonical_cycle,
    check_boundary,
    format_permutomino_text,
    from_colored_permutation,
    parse_permutomino_text,
    side_profile,
    to_colored_permutation,
)
from squareperm.series import CountFamily, count

UNIT_SQUARE = [(0, 1), (1, 1), (1, 0), (0, 0)]
# cells {(0,0),(0,1),(1,0)}
L_TROMINO = [(0, 2), (1, 2), (1, 1), (2, 1), (2, 0), (0, 0)]
# cells {(0,0),(1,0),(1,1)}; its permutation is the identity with a colored 2
STAIRCASE = [(0, 1), (1, 1), (1, 2), (2, 2), (2, 0), (0, 0)]


def test_validate_unit_square():
    report = check_boundary(canonical_cycle(UNIT_SQUARE))
    assert report.size == 2
    assert report.directed and report.parallelogram


def test_validate_l_tromino():
    report = check_boundary(canonical_cycle(L_TROMINO))
    assert report.size == 3


def test_validate_catches_missing_side():
    # boundary of the full 2x2 square: the line x=1 carries no side
    with pytest.raises(MissingSideOnLine) as info:
        check_boundary(canonical_cycle([(0, 2), (2, 2), (2, 0), (0, 0)]))
    assert (info.value.axis, info.value.line) == ("x", 1)


def test_validate_catches_bad_boundaries():
    with pytest.raises(NotAlternating):
        check_boundary(canonical_cycle([(0, 0), (1, 1), (1, 0), (0, 1)]))
    with pytest.raises(DuplicateSideOnLine):
        check_boundary([(0, 3), (1, 3), (1, 2), (3, 2), (3, 1), (1, 1), (1, 0), (0, 0)])
    # a zigzag revisiting a column line from the other side
    with pytest.raises((SelfIntersecting, DuplicateSideOnLine, NotConvex)):
        check_boundary(
            [(0, 2), (2, 2), (2, 1), (1, 1), (1, 0), (3, 0), (3, 3), (0, 3)],
            reduced=False,
        )


def test_not_convex():
    # a valley: every line carries one side but the bottom of the dip at
    # (2,1) has boundary points beyond it in all four directions
    points = [(0, 3), (1, 3), (1, 1), (2, 1), (2, 2), (3, 2), (3, 0), (0, 0)]
    with pytest.raises(NotConvex) as info:
        check_boundary(points)
    assert info.value.point in {(1, 1), (2, 1)}


def test_canonical_form_and_text():
    p = Permutomino.from_turnpoints([(1, 1), (1, 2), (0, 2), (0, 1)])
    assert p.turnpoints[0] == (0, 1)
    assert p.size == 2
    text = format_permutomino_text(p)
    assert parse_permutomino_text(text) == p
    with pytest.raises(ValueError):
        Permutomino(tuple(reversed(UNIT_SQUARE)))


@pytest.mark.parametrize(
    "bad", [(1.0, 1), (1, 1.0), (True, 1), (1, False), ("1", 1), (1, "1"), 1, (1, 1, 0)]
)
@pytest.mark.parametrize("build", [Permutomino, Permutomino.from_turnpoints])
def test_constructors_refuse_coordinates_that_are_not_ints(build, bad):
    # the unit square with its top-right turnpoint replaced
    points = [(0, 1), bad, (1, 0), (0, 0)]
    with pytest.raises(ValueError) as info:
        build(points)
    assert type(info.value) is ValueError
    assert str(info.value) == f"turnpoint {bad!r} is not a pair of integers"


@pytest.mark.parametrize("build", [Permutomino, Permutomino.from_turnpoints])
def test_constructors_name_the_first_turnpoint_that_is_not_ints(build):
    floats = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
    with pytest.raises(ValueError, match=r"^turnpoint \(0\.0, 0\.0\) is not"):
        build(floats)


@pytest.mark.parametrize("coord", ["2_0", "\uff11", "\u00b9", "+1", "--1", "-", "", "1.0"])
def test_turnpoint_coordinates_are_ascii_decimal(coord):
    # a full-width 1, a superscript 1 and 2_0 are no ASCII decimal
    with pytest.raises(ValueError, match="bad turnpoint"):
        parse_permutomino_text(f"0,1;{coord},1;1,0;0,0")
    assert parse_permutomino_text(" 0, 1;1 ,1;1,0;0,0 ") == Permutomino.from_turnpoints(
        UNIT_SQUARE
    )


def test_phi_examples():
    assert to_colored_permutation(Permutomino.from_turnpoints(UNIT_SQUARE)) == (
        ColoredPermutation(Permutation((1, 2)), frozenset())
    )
    assert to_colored_permutation(Permutomino.from_turnpoints(L_TROMINO)) == (
        ColoredPermutation(Permutation((1, 3, 2)), frozenset())
    )
    assert to_colored_permutation(Permutomino.from_turnpoints(STAIRCASE)) == (
        ColoredPermutation(Permutation((1, 2, 3)), frozenset({2}))
    )


def test_phi_inverse_examples():
    assert from_colored_permutation(
        ColoredPermutation(Permutation((1, 2)), frozenset())
    ) == Permutomino.from_turnpoints(UNIT_SQUARE)
    assert from_colored_permutation(
        ColoredPermutation(Permutation((1, 3, 2)), frozenset())
    ) == Permutomino.from_turnpoints(L_TROMINO)
    assert from_colored_permutation(
        ColoredPermutation(Permutation((1, 2, 3)), frozenset({2}))
    ) == Permutomino.from_turnpoints(STAIRCASE)


def test_phi_inverse_rejects_bad_inputs():
    with pytest.raises(NotCoIndecomposable):
        from_colored_permutation(ColoredPermutation(Permutation((2, 1)), frozenset()))
    from squareperm.perm import NotSquare

    with pytest.raises(NotSquare):
        from_colored_permutation(
            ColoredPermutation(Permutation((1, 4, 3, 2, 5)), frozenset())
        )


def test_phi_inverse_rejects_small_sizes():
    with pytest.raises(ValueError, match="size 2"):
        from_colored_permutation(ColoredPermutation(Permutation((1,)), frozenset()))


@pytest.mark.parametrize("n", range(2, 8))
def test_phi_inverse_builds_the_canonical_valid_preimage(n):
    # from_colored_permutation builds its cycle unchecked; this is the
    # boundary check, canonical form and round trip it no longer runs
    for cp in corpus.convex_members(n):
        p = from_colored_permutation(cp)
        assert p == Permutomino.from_turnpoints(p.turnpoints)
        assert check_boundary(p.turnpoints).size == n
        assert to_colored_permutation(p) == cp


@pytest.mark.parametrize("n", range(2, 6))
def test_phi_round_trip_exhaustive(n):
    direct = corpus.walked_permutominoes(n)
    assert len(direct) == count(CountFamily.CONVEX_PERMUTOMINO, n)
    images = set()
    for p in direct:
        cp = to_colored_permutation(p)
        images.add(cp)
        assert from_colored_permutation(cp) == p
    assert len(images) == len(direct)
    assert images == set(corpus.convex_members(n))


def test_phi_image_colored_points_are_free():
    for n in range(2, 6):
        for p in corpus.walked_permutominoes(n):
            cp = to_colored_permutation(p)
            # construction of ColoredPermutation enforces freeness; check
            # the colored points are genuine fixed points as well
            for i in cp.colored:
                assert cp.perm.values[i - 1] == i


def test_side_profile_examples():
    assert side_profile(Permutomino.from_turnpoints(UNIT_SQUARE)) == (1, 1)
    assert side_profile(Permutomino.from_turnpoints(L_TROMINO)) == (2, 2)


def test_side_profile_histogram_matches_series():
    from squareperm.oracle import boundary_refined_histogram, refined_series_by_enumeration

    cp_series = refined_series_by_enumeration(CountFamily.CONVEX_PERMUTOMINO, 4)
    assert boundary_refined_histogram(4) == cp_series[4]


@pytest.mark.parametrize(
    "family,expected",
    [
        (CountFamily.DIRECTED_PERMUTOMINO, {2: 1, 3: 3, 4: 10}),
        (CountFamily.PARALLELOGRAM_PERMUTOMINO, {2: 1, 3: 2, 4: 5}),
    ],
)
def test_directed_and_parallelogram_counts(family, expected):
    for n, want in expected.items():
        assert len(brute_enumerate(family, n)) == want
        assert count(family, n) == want


# --- differential test against the quadratic checker -----------------------
#
# The reference below is the original check_boundary: an O(V*H) scan over
# every vertical/horizontal side pair and an O(n) record scan per
# turnpoint.  It lives only here, as an oracle for the sweep in the library.


def _reference_record_directions(points, p):
    x, y = p
    ul = ur = bl = br = True
    for qx, qy in points:
        if qx < x and qy > y:
            ul = False
        elif qx > x and qy > y:
            ur = False
        elif qx < x and qy < y:
            bl = False
        elif qx > x and qy < y:
            br = False
    return ul, ur, bl, br


def _reference_check_boundary(points, reduced=True):
    pts = [tuple(p) for p in points]
    if len(pts) < 4:
        raise NotClosed("need at least four turnpoints")
    if len(pts) % 2:
        raise NotAlternating("odd number of turnpoints")
    if len(set(pts)) != len(pts):
        raise NotClosed("boundary revisits a turnpoint")

    edges = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    axes = []
    for (x1, y1), (x2, y2) in edges:
        dx, dy = x2 - x1, y2 - y1
        if (dx == 0) == (dy == 0):
            raise NotAlternating("step is not axis-aligned")
        axes.append("v" if dx == 0 else "h")
    for i in range(len(axes)):
        if axes[i] == axes[(i + 1) % len(axes)]:
            raise NotAlternating("two consecutive steps on one axis")

    v_edges = [e for e, a in zip(edges, axes) if a == "v"]
    h_edges = [e for e, a in zip(edges, axes) if a == "h"]
    v_lines = {}
    for e in v_edges:
        x = e[0][0]
        if x in v_lines:
            raise DuplicateSideOnLine("x", x)
        v_lines[x] = e
    h_lines = {}
    for e in h_edges:
        y = e[0][1]
        if y in h_lines:
            raise DuplicateSideOnLine("y", y)
        h_lines[y] = e
    if reduced:
        for x in range(min(v_lines), max(v_lines) + 1):
            if x not in v_lines:
                raise MissingSideOnLine("x", x)
        for y in range(min(h_lines), max(h_lines) + 1):
            if y not in h_lines:
                raise MissingSideOnLine("y", y)

    for (vx, vy1), (_, vy2) in v_edges:
        vlo, vhi = min(vy1, vy2), max(vy1, vy2)
        for (hx1, hy), (hx2, _) in h_edges:
            hlo, hhi = min(hx1, hx2), max(hx1, hx2)
            if not (hlo <= vx <= hhi and vlo <= hy <= vhi):
                continue
            crossing = (vx, hy)
            v_ends = {(vx, vy1), (vx, vy2)}
            h_ends = {(hx1, hy), (hx2, hy)}
            if not (crossing in v_ends and crossing in h_ends):
                raise SelfIntersecting(f"sides meet at {crossing}")

    directed = True
    parallelogram = True
    for p in pts:
        ul, ur, bl, br = _reference_record_directions(pts, p)
        if not (ul or ur or bl or br):
            raise NotConvex(p)
        if not (ul or ur or br):
            directed = False
        if not (ul or br):
            parallelogram = False
    return BoundaryReport(len(pts) // 2, directed, parallelogram)


def _outcome(check, points, reduced):
    """(kind, detail): the report, or the fault class with the details both
    checkers share (the crossing a SelfIntersecting names may differ)."""
    try:
        report = check(points, reduced)
    except (DuplicateSideOnLine, MissingSideOnLine) as exc:
        return type(exc), (exc.axis, exc.line)
    except NotConvex as exc:
        return NotConvex, exc.point
    except ValueError as exc:
        return type(exc), None
    return BoundaryReport, report


def _random_cycle(rng):
    """A random cyclic turnpoint list, mostly alternating rectilinear.

    Sides are drawn on few lines so that duplicate and missing lines,
    crossings, touching sides and non-convex shapes all come up; a
    fraction of the cycles is broken outright.
    """
    k = rng.randint(2, 7)
    if rng.random() < 0.6:
        xs = rng.sample(range(k + rng.randrange(2)), k)
        ys = rng.sample(range(k + rng.randrange(2)), k)
    else:  # repeated lines, but no zero-length step inside the walk
        xs = [rng.randrange(k)]
        ys = [rng.randrange(k)]
        for _ in range(k - 1):
            xs.append((xs[-1] + rng.randrange(1, k)) % k)
            ys.append((ys[-1] + rng.randrange(1, k)) % k)
    pts = []
    for i in range(k):
        pts.append((xs[i], ys[i]))
        pts.append((xs[i], ys[(i + 1) % k]))
    if rng.random() < 0.5:
        pts.reverse()
    shift = rng.randrange(len(pts))
    pts = pts[shift:] + pts[:shift]
    fault = rng.random()
    if fault < 0.03:
        pts.pop(rng.randrange(len(pts)))
    elif fault < 0.06:
        i = rng.randrange(len(pts))
        pts[i] = (pts[i][0] + 1, pts[i][1] + 1)
    elif fault < 0.08:
        pts = pts[: rng.randrange(4)]
    return pts


def test_check_boundary_matches_reference_on_random_cycles():
    import random

    rng = random.Random(20240)
    seen = Counter()
    for _ in range(20_000):
        pts = _random_cycle(rng)
        for reduced in (True, False):
            want = _outcome(_reference_check_boundary, pts, reduced)
            got = _outcome(check_boundary, pts, reduced)
            assert got == want, (pts, reduced)
            seen[want[0]] += 1
    # the generator reaches every outcome, so each branch is compared
    for kind in (
        NotClosed, NotAlternating, DuplicateSideOnLine, MissingSideOnLine,
        SelfIntersecting, NotConvex, BoundaryReport,
    ):
        assert seen[kind] >= 100, (kind, seen)


@pytest.mark.parametrize("n", range(2, 6))
def test_check_boundary_matches_reference_on_permutominoes(n):
    for p in corpus.walked_permutominoes(n):
        cycle = list(p.turnpoints)
        for pts in (cycle, cycle[::-1], cycle[3:] + cycle[:3]):
            for reduced in (True, False):
                assert _outcome(check_boundary, pts, reduced) == _outcome(
                    _reference_check_boundary, pts, reduced
                )


def _comb_polygon(k):
    """A simple, non-convex polygon: k horizontal arms off a stepped spine,
    so about 2k horizontal sides are open at once in the crossing sweep."""
    pts = [(0, 0)]
    for j in range(k):
        pts += [(k + j, 2 * j), (k + j, 2 * j + 1)]
        if j < k - 1:
            pts += [(j + 1, 2 * j + 1), (j + 1, 2 * j + 2)]
    pts.append((0, 2 * k - 1))
    return pts


def test_check_boundary_matches_reference_on_combs():
    for k in range(2, 13):
        cycle = _comb_polygon(k)
        for pts in (cycle, cycle[::-1], cycle[1:] + cycle[:1]):
            for reduced in (True, False):
                assert _outcome(check_boundary, pts, reduced) == _outcome(
                    _reference_check_boundary, pts, reduced
                )
    with pytest.raises(NotConvex) as info:
        check_boundary(_comb_polygon(20_000))
    assert info.value.point == (1, 1)


# --- differential test of the permutomino built from a decoded word --------
#
# The reference below is from_colored_permutation as it was when it worked
# from the permutation alone: record flags from prefix and suffix extrema,
# the free-fixed-point set and one walk choice per point.  It lives only
# here and calls nothing in the package, as an oracle for the builder the
# sampler uses.  It also asserts that its input, a PERMUTOMINO-mode decode,
# has size at least 2, is square and is co-indecomposable.


def _reference_from_colored_permutation(cp):
    values = cp.perm.values
    n = len(values)
    assert n >= 2, f"{values!r}: permutominoes start at size 2"
    rev = values[::-1]
    ul = [v == m for v, m in zip(values, accumulate(values, max))]
    bl = [v == m for v, m in zip(values, accumulate(values, min))]
    ur = [v == m for v, m in zip(rev, accumulate(rev, max))][::-1]
    br = [v == m for v, m in zip(rev, accumulate(rev, min))][::-1]
    assert all(map(any, zip(ul, ur, bl, br))), f"{values!r} is not square"
    prefix_min = accumulate(values[:-1], min)
    assert all(lo != n - k for k, lo in enumerate(prefix_min)), (
        f"{values!r} splits as a skew sum"
    )
    free = {i + 1 for i, v in enumerate(values) if v == i + 1 and not (bl[i] or ur[i])}
    upper_walk = []
    lower_walk = []
    for i in range(1, n):
        upper = i + 1 in cp.colored or (i + 1 not in free and (ul[i] or ur[i]))
        (upper_walk if upper else lower_walk).append((i, values[i] - 1))
    cycle = []
    prev_x = 0
    for b in upper_walk + lower_walk[::-1] + [(0, values[0] - 1)]:
        cycle.append((prev_x, b[1]))
        cycle.append(b)
        prev_x = b[0]
    return tuple(cycle)


@pytest.mark.parametrize("n", range(2, 9))
def test_decoded_builder_matches_reference_on_every_word(n):
    from squareperm.codec import DecodeMode, Success, decode
    from squareperm.oracle import iter_marked_words

    successes = 0
    for word in iter_marked_words(n):
        outcome = decode(word, DecodeMode.PERMUTOMINO)
        if isinstance(outcome, Success):
            successes += 1
            want = _reference_from_colored_permutation(outcome.result)
            assert _from_decoded(outcome.result, word.letters).turnpoints == want, word
            assert from_colored_permutation(outcome.result).turnpoints == want, word
    assert successes == count(CountFamily.CONVEX_PERMUTOMINO, n)


def _reference_sample(n, rng):
    from squareperm.codec import DecodeMode, Success, decode
    from squareperm.sampler import sample_marked_word

    while True:
        outcome = decode(sample_marked_word(n, rng), DecodeMode.PERMUTOMINO)
        if isinstance(outcome, Success):
            return _reference_from_colored_permutation(outcome.result)


def _assert_samples_match_reference(n, items):
    from squareperm.sampler import sample_object, substream

    for seed in (0, 901):
        for i in range(items):
            got = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, substream(seed, i))
            assert got.turnpoints == _reference_sample(n, substream(seed, i)), (seed, i)


@pytest.mark.parametrize(
    "n,items", [(2, 50), (3, 200), (5, 500), (1000, 20), (10_000, 3), (20_000, 1)]
)
def test_sampled_permutomino_matches_reference(n, items):
    _assert_samples_match_reference(n, items)


def test_sampled_permutomino_matches_reference_through_a_grown_table(monkeypatch):
    # the builder reads its column indices from a table shared by every
    # size up to the cap; grown by the largest size first, it serves the
    # smaller ones with a longer table than they need
    monkeypatch.setattr(permutomino, "_INTS", ())
    for n, items in ((permutomino._TABLE_CAP, 1), (1000, 5), (5, 100), (2, 20)):
        _assert_samples_match_reference(n, items)
        assert len(permutomino._INTS) == permutomino._TABLE_CAP


# --- the stored form against the turnpoint cycle ---------------------------
#
# A permutomino is stored as its black turnpoints but is built from, shown
# as and compared by its turnpoint cycle; the reference formatter below
# writes the rebuilt cycle point by point.


def _reference_format(p):
    return ";".join("%d,%d" % q for q in p.turnpoints)


def _check_representation(p, n):
    import copy
    import pickle

    cycle = p.turnpoints
    assert len(cycle) == 2 * n and p.size == n
    assert p == Permutomino(cycle) == Permutomino.from_turnpoints(cycle[::-1])
    assert hash(p) == hash((cycle,))
    assert repr(p) == "Permutomino(turnpoints=%r)" % (cycle,)
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert type(back) is Permutomino and back == p and back.turnpoints == cycle
    text = format_permutomino_text(p)
    assert text == _reference_format(p)
    assert parse_permutomino_text(text) == p


@pytest.mark.parametrize("n,items", [(2, 10), (3, 20), (5, 30), (60, 10), (1000, 2)])
def test_sampled_permutomino_keeps_its_cycle_contract(n, items):
    from squareperm.sampler import sample_object, substream

    for seed in (0, 3, 901):
        for i in range(items):
            p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, substream(seed, i))
            _check_representation(p, n)


@pytest.mark.parametrize("n", range(2, 6))
def test_enumerated_permutomino_keeps_its_cycle_contract(n):
    for p in enumerate_permutominoes(n):
        _check_representation(p, n)


#: sha256 of the stdout of ``squareperm sample --family convex-permutomino
#: --n 1000 --count 20 --seed 0``, as text and with ``--json``
SAMPLE_DIGESTS = {
    False: "ccbf345a31f9eb1f5ea4a5586cbd528e4e87e63700296ffc771388edc0aeffae",
    True: "7bd9ce9605c21edf86d764c21d78b2e9e23a8764b647d2b7a8d79204f9db7095",
}
#: the same for ``--n 100000 --count 1 --seed 0``
LARGE_SAMPLE_DIGESTS = {
    False: "71029b3f7a40343db6c0c1f68cec38b2a436ec03168beaa6c633b12570a12890",
    True: "bec1da9301fe3f1eaffb3754e07dda1bee9cef4f87d0842e5c219d8cae7da493",
}
#: the text output alone for ``--n 1000000 --count 1 --seed 0``
HUGE_SAMPLE_DIGEST = "38a5e280c530dbec2abd90db39b65176c6b5d1a6f772044fe405d33773dd5713"


def _sample_digest(n, count, as_json):
    import contextlib
    import hashlib
    import io

    from squareperm import cli

    argv = ["sample", "--family", "convex-permutomino", "--n", str(n),
            "--count", str(count), "--seed", "0"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--json"] * as_json) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("as_json", [False, True])
def test_sample_permutomino_output_digest(as_json):
    assert _sample_digest(1000, 20, as_json) == SAMPLE_DIGESTS[as_json]


@pytest.mark.parametrize("as_json", [False, True])
def test_large_sample_permutomino_output_digest(as_json):
    assert _sample_digest(100_000, 1, as_json) == LARGE_SAMPLE_DIGESTS[as_json]


def test_huge_sample_permutomino_output_digest():
    assert _sample_digest(1_000_000, 1, False) == HUGE_SAMPLE_DIGEST


#: what the two shared tables of ``permutomino`` may hold at most, in
#: bytes: the ceiling that ``_TABLE_CAP``'s comment names
TABLE_CEILING = 1.58 * 2**20


def _live_bytes_around(action):
    """Traced live memory after ``action()`` less the level before it."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_permutomino_above_the_table_cap_keeps_nothing_alive():
    from squareperm.sampler import sample_object, substream

    n = 100_000
    assert n > permutomino._TABLE_CAP

    def sample_and_format():
        p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, substream(0, 0))
        assert len(format_permutomino_text(p)) > 8 * n
        del p

    assert _live_bytes_around(sample_and_format) < 2**20


def test_the_shared_tables_stay_under_their_ceiling(monkeypatch):
    from squareperm.sampler import sample_object, substream

    monkeypatch.setattr(permutomino, "_INTS", ())
    monkeypatch.setattr(permutomino, "_NUMERALS", ())
    cap = permutomino._TABLE_CAP

    def grow():
        for n in (1000, cap, 5, cap + 1):
            p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, substream(0, n))
            format_permutomino_text(p)
            del p

    held = _live_bytes_around(grow)
    assert len(permutomino._INTS) == len(permutomino._NUMERALS) == cap
    assert 0 < held <= TABLE_CEILING


def test_threads_that_race_on_the_shared_tables_build_the_same_lines(monkeypatch):
    # a thread that empties the tables now and then stands in for a racing
    # thread that binds a shorter table over a longer one
    import sys
    import threading

    from squareperm.sampler import sample_object, substream

    cases = []
    for n in (2, 7, 300, 3000):
        p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, substream(7, n))
        cases.append((to_colored_permutation(p), p, _reference_format(p)))
    monkeypatch.setattr(permutomino, "_INTS", ())
    monkeypatch.setattr(permutomino, "_NUMERALS", ())
    faults = []

    def work(k):
        try:
            for r in range(20):
                if r % 4 == k:
                    permutomino._INTS = permutomino._NUMERALS = ()
                for cp, p, text in cases[k:] + cases[:k]:
                    q = from_colored_permutation(cp)
                    if q != p or format_permutomino_text(q) != text:
                        faults.append((k, r, p.size))
        except Exception as error:  # reported below with the thread's place
            faults.append((k, error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not faults


@pytest.mark.parametrize(
    "values,error,message",
    [
        ((1,), ValueError, "permutominoes start at size 2"),
        ((1, 4, 3, 2, 5), NotSquare, "point 3 of (1, 4, 3, 2, 5) is interior"),
        ((5, 6, 3, 2, 4, 1), NotCoIndecomposable,
         "(5, 6, 3, 2, 4, 1) splits as a skew sum"),
        # both faults: squareness is checked first
        ((6, 1, 4, 3, 2, 5), NotSquare, "point 3 of (6, 1, 4, 3, 2, 5) is interior"),
    ],
)
def test_from_colored_permutation_rejects_in_order(values, error, message):
    with pytest.raises(ValueError) as info:
        from_colored_permutation(ColoredPermutation(Permutation(values), frozenset()))
    assert type(info.value) is error
    assert str(info.value) == message


def test_sampling_builds_the_permutomino_without_a_record_sweep(monkeypatch):
    # decode in PERMUTOMINO mode has proven the result square and
    # co-indecomposable, so the sampler hands its word straight to the
    # builder and runs none of the permutation-level scans
    from squareperm import codec, oracle, perm, permutomino, sampler

    want = [
        sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, 200, sampler.substream(5, i))
        for i in range(5)
    ]
    cp = to_colored_permutation(want[0])

    def refuse(*_args):
        raise AssertionError("a permutation-level scan ran")

    names = ("record_masks", "is_co_decomposable", "free_fixed_positions")
    assert all(hasattr(perm, name) for name in names)
    for module in (codec, oracle, perm, permutomino, sampler):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    got = [
        sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, 200, sampler.substream(5, i))
        for i in range(5)
    ]
    assert got == want
    # the public constructor still runs its checks, so it meets the patch
    with pytest.raises(AssertionError, match="scan ran"):
        from_colored_permutation(cp)
