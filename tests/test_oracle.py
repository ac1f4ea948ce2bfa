import itertools
from collections import Counter

import pytest

import corpus
from squareperm.codec import DecodeMode, FailureKind
from squareperm.oracle import (
    _walk_polygons,
    bijection_audit,
    brute_enumerate,
    brute_generic_grid_count,
    brute_refined_histogram,
    enumerate_permutominoes,
    failure_law,
    iter_marked_words,
    verify,
)
from squareperm.permutomino import (
    Permutomino,
    check_boundary,
    side_profile,
    to_colored_permutation,
)
from squareperm.sampler import FAMILY_MODES, exact_generic_polygon_count
from squareperm.series import BoundExceeded, CountFamily, count


def iter_polyomino_boundaries(cell_w, cell_h):
    """Turnpoint cycles of every polyomino inside a cell_w x cell_h box.

    The definitional reference for the column walk: it visits all
    2^(cell_w * cell_h) cell subsets and yields the turnpoints of each
    edge-connected, hole-free, pinch-free one, in an arbitrary
    orientation.  Convex or not, every polygon of the box is a subset.
    """
    cells = cell_w * cell_h
    neighbors = []
    for idx in range(cells):
        cx, cy = idx % cell_w, idx // cell_w
        adj = []
        if cx > 0:
            adj.append(idx - 1)
        if cx + 1 < cell_w:
            adj.append(idx + 1)
        if cy > 0:
            adj.append(idx - cell_w)
        if cy + 1 < cell_h:
            adj.append(idx + cell_w)
        neighbors.append(tuple(adj))

    for mask in range(1, 1 << cells):
        # connectivity over cell edges
        start = (mask & -mask).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        while frontier:
            idx = frontier.pop()
            for nb in neighbors[idx]:
                b = 1 << nb
                if mask & b and not seen & b:
                    seen |= b
                    frontier.append(nb)
        if seen != mask:
            continue

        # boundary edges: unit segments with exactly one incident cell inside
        edges = set()
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            idx = b.bit_length() - 1
            cx, cy = idx % cell_w, idx // cell_w
            for seg in (
                ((cx, cy), (cx + 1, cy)),
                ((cx, cy + 1), (cx + 1, cy + 1)),
                ((cx, cy), (cx, cy + 1)),
                ((cx + 1, cy), (cx + 1, cy + 1)),
            ):
                if seg in edges:
                    edges.remove(seg)
                else:
                    edges.add(seg)

        incident = {}
        for a, b2 in edges:
            incident.setdefault(a, []).append(b2)
            incident.setdefault(b2, []).append(a)
        if any(len(v) != 2 for v in incident.values()):
            continue  # pinch point: boundary is not a simple curve

        start_v = min(incident)
        walk = [start_v]
        prev = None
        cur = start_v
        while True:
            a, b2 = incident[cur]
            nxt = b2 if a == prev else a
            if nxt == start_v:
                break
            walk.append(nxt)
            prev, cur = cur, nxt
        if len(walk) != len(edges):
            continue  # a second loop exists, i.e. a hole

        turnpoints = []
        k = len(walk)
        for i in range(k):
            before = walk[i - 1]
            after = walk[(i + 1) % k]
            if (before[0] == after[0]) or (before[1] == after[1]):
                continue  # straight through
            turnpoints.append(walk[i])
        yield turnpoints


def subset_scan_permutominoes(n):
    """Convex permutominoes of size n, from the cell-subset scan."""
    out = set()
    for turnpoints in iter_polyomino_boundaries(n - 1, n - 1):
        if len(turnpoints) != 2 * n:
            continue
        try:
            out.add(Permutomino.from_turnpoints(turnpoints))
        except ValueError:
            pass
    return out


def subset_scan_polygon_census(cell_w, cell_h):
    """Generic polygons of a cell box per number of turnpoints / 2, from
    the cell-subset scan: one side per used line, every turnpoint a record."""
    census = {}
    for turnpoints in iter_polyomino_boundaries(cell_w, cell_h):
        try:
            check_boundary(turnpoints, reduced=False)
        except ValueError:
            continue
        n = len(turnpoints) // 2
        census[n] = census.get(n, 0) + 1
    return census


def test_marked_word_census_sizes():
    for n in range(2, 8):
        assert sum(1 for _ in iter_marked_words(n)) == count(CountFamily.MARKED_WORDS, n)


def test_letter_marks_expand_to_the_marked_words():
    # each letter sequence once, in product order, with its marks 1, n and
    # the L positions ascending: the words of iter_marked_words, in order
    from squareperm.codec import INTERIOR_PAIRS, MarkedWord
    from squareperm.oracle import _letter_marks

    for n in range(2, 9):
        pairs = [(letters, m) for letters, marks in _letter_marks(n) for m in marks]
        expected = []
        for combo in itertools.product(INTERIOR_PAIRS, repeat=n - 2):
            letters = ("XY", *combo, "XY")
            ls = [p for p in range(2, n) if letters[p - 1][1] == "L"]
            expected += [(letters, m) for m in [1, n, *ls]]
        assert pairs == expected, n
        assert pairs == [(w.letters, w.mark) for w in iter_marked_words(n)], n
        assert len(set(pairs)) == len(pairs) == count(CountFamily.MARKED_WORDS, n)
        for letters, m in pairs[:: max(1, len(pairs) // 50)]:
            MarkedWord(letters, m)  # the checked constructor accepts it


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
    boundary = dict(Counter(map(side_profile, enumerate_permutominoes(2))))
    assert boundary == {(1, 1): 1}


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


@pytest.mark.parametrize("n", [6, 7, 8])
def test_walk_past_the_public_limit(n):
    # from_turnpoints raises on any shape it rejects: the prune on the
    # horizontal lines leaves it nothing to reject
    family = CountFamily.CONVEX_PERMUTOMINO
    walked = [Permutomino.from_turnpoints(pts) for pts in _walk_polygons(n - 1, n - 1, n)]
    assert len(walked) == len(set(walked)) == count(family, n)
    assert {to_colored_permutation(p) for p in walked} == set(corpus.convex_members(n))


#: every cell box of at most 16 cells, the reach of the subset scan
_SCANNED_BOXES = [(w, h) for w in range(1, 17) for h in range(1, 16 // w + 1)]


@pytest.mark.parametrize("cell_w, cell_h", _SCANNED_BOXES)
def test_polygon_census_matches_subset_scan(cell_w, cell_h):
    census = subset_scan_polygon_census(cell_w, cell_h)
    for n in range(1, max(census, default=1) + 2):
        got = brute_generic_grid_count(cell_w + 1, cell_h + 1, n, polygon=True)
        assert got == census.get(n, 0), n


@pytest.mark.parametrize("cols, rows", [(5, 7), (7, 5), (7, 7)])
def test_polygon_census_matches_the_product_formula(cols, rows):
    # past the scan's reach: Cp_n stretched over n chosen lines each way
    for n in range(2, min(cols, rows) + 1):
        census = brute_generic_grid_count(cols, rows, n, polygon=True)
        assert census == exact_generic_polygon_count(cols, rows, n), n


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


@pytest.mark.parametrize("mode", list(DecodeMode))
def test_audit_flags_a_census_off_its_law(mode, monkeypatch):
    import squareperm.oracle as oracle

    law = oracle.failure_law
    monkeypatch.setattr(oracle, "failure_law", lambda *args: law(*args) + (args[3] == 2))
    assert "failures with prefix length 2" in bijection_audit(mode, 5).violations[0]


def test_verify_audits_equal_the_standalone_audits():
    # verify hands each length's words and scans to every mode's audit
    _, audits = verify(7)
    assert audits == [
        bijection_audit(mode, n).to_json()
        for mode in FAMILY_MODES.values()
        for n in range(2, 8)
    ]


def test_audits_set_up_each_letter_sequence_once(monkeypatch):
    # an audit sets up each of the 4^(n-2) letter sequences once, for all
    # of its marks
    import squareperm.oracle as oracle

    calls = []
    letter_rows = oracle._letter_rows

    def counted(letters):
        calls.append(letters)
        return letter_rows(letters)

    monkeypatch.setattr(oracle, "_letter_rows", counted)
    for mode in DecodeMode:
        for n in range(2, 8):
            calls.clear()
            assert bijection_audit(mode, n).ok, (mode, n)
            assert len(calls) == 4 ** (n - 2), (mode, n)
            assert len(set(calls)) == len(calls), (mode, n)


def test_sampling_and_audits_build_no_decode_outcome(monkeypatch):
    # both read codec's compact core: with codec refusing to build a
    # Success or a Failure, verify(6) and seeded samples at n = 7..12, past
    # the outcome tables, are unchanged
    from squareperm import codec
    from squareperm.sampler import RngStream, sample_object

    def draws():
        return [
            sample_object(family, n, RngStream(n))
            for family in FAMILY_MODES
            for n in range(7, 13)
            for _ in range(5)
        ]

    before = verify(6), draws()

    trusted = codec._unchecked

    def no_outcome(cls, **fields):
        assert cls not in (codec.Success, codec.Failure), f"a {cls.__name__} was built"
        return trusted(cls, **fields)

    monkeypatch.setattr(codec, "_unchecked", no_outcome)
    for text in ("XY,DL,XY@1", "XY,UL,XY@2"):  # a stop, then a success
        with pytest.raises(AssertionError, match="was built"):
            codec.decode(codec.parse_marked_word(text))
    (checks, audits), objects = verify(6), draws()
    assert all(ok for _, ok, _ in checks)
    assert ((checks, audits), objects) == before


def test_verify_sets_up_each_letter_sequence_once(monkeypatch):
    # every mode's audit of one length reads the same set-up of each letter
    # sequence: 4^(n-2) set-ups per length, 1365 for n = 2..7, not one per
    # mode
    import squareperm.oracle as oracle

    calls = []
    letter_rows = oracle._letter_rows

    def counted(letters):
        calls.append(letters)
        return letter_rows(letters)

    monkeypatch.setattr(oracle, "_letter_rows", counted)
    checks, _ = verify(7)
    assert all(ok for _, ok, _ in checks)
    assert len(calls) == sum(4 ** (n - 2) for n in range(2, 8)) == 1365
    assert len(set(calls)) == len(calls)


def test_audits_build_no_object_per_success(monkeypatch):
    # the audits read each marked word as letters and a mark, keep each
    # success as values and check its round trip with the encode core:
    # verify(6) builds no MarkedWord, and no ColoredPermutation or
    # Permutation for a decoded success or an enumerated member
    import squareperm.oracle as oracle
    from squareperm import codec
    from squareperm.codec import MarkedWord

    before = verify(6)
    trusted = codec._unchecked

    def refused(cls, **fields):
        assert cls not in (MarkedWord, codec.ColoredPermutation), cls.__name__
        return trusted(cls, **fields)

    def nothing(cls, **fields):
        raise AssertionError(f"oracle built a {cls.__name__}")

    monkeypatch.setattr(codec, "_unchecked", refused)
    monkeypatch.setattr(oracle, "_unchecked", nothing)
    with pytest.raises(AssertionError, match="MarkedWord"):
        codec.encode(codec.Permutation((2, 1)))
    with pytest.raises(AssertionError, match="oracle built a MarkedWord"):
        next(iter_marked_words(2))
    assert verify(6) == before


def test_audit_catches_a_wrong_round_trip(monkeypatch):
    # one success whose encode core gives one letter wrong fails the round
    # trip once, in every mode
    import squareperm.oracle as oracle

    encode_core = oracle._encode
    for mode in DecodeMode:
        calls = []

        def one_wrong(values, colored):
            letters = encode_core(values, colored)
            calls.append(values)
            if len(calls) == 3:
                letters[2] = "DR" if letters[2] != "DR" else "UL"
            return letters

        monkeypatch.setattr(oracle, "_encode", one_wrong)
        report = bijection_audit(mode, 5)
        assert report.roundtrip_failures == 1 and not report.ok, mode
        assert report.success_count == len(calls) > 3
        assert report.to_json()["roundtrip_failures"] == 1


def test_audit_catches_a_missing_member():
    # the success set is compared with the enumeration, not only counted
    import squareperm.oracle as oracle

    for family, mode in FAMILY_MODES.items():
        members = oracle._member_values(family, 5)
        assert bijection_audit(mode, 5, _members=members).ok
        report = bijection_audit(mode, 5, _members=members[1:])
        assert not report.ok
        assert report.violations == ["success set differs from the brute enumeration"]


def test_audit_flags_every_word_of_a_failing_prefix(monkeypatch):
    # the prefix class is checked once per distinct (kind, prefix), but
    # each failing word still reports its own violation; at n = 5 every
    # prefix of an SW stop is also the prefix of an NW stop
    import squareperm.oracle as oracle

    monkeypatch.setattr(oracle, "is_triangular", lambda *args: False)
    rep = bijection_audit(DecodeMode.SQUARE, 5)
    failures = sum(rep.failure_counts.values())
    assert failures == count(CountFamily.MARKED_WORDS, 5) - count(CountFamily.SQUARE, 5)
    assert len(rep.violations) == failures
    assert all("triangular class" in v for v in rep.violations)
    for kind in FailureKind:
        flagged = oracle._PREFIX_CLASS[kind]
        monkeypatch.setattr(oracle, "is_triangular", lambda _, c: c is not flagged)
        rep = bijection_audit(DecodeMode.SQUARE, 5)
        stops = sum(c for (k, _, _), c in rep.failure_counts.items() if k == kind.value)
        assert len(rep.violations) == stops
        assert all(v.startswith(f"{kind.value} prefix") for v in rep.violations)


def test_failure_laws_sum_to_the_rejected_words():
    # From n - 1 to n every term with k <= n - 3 grows fourfold, which is
    # checked at k = 1 and in the middle, so each sum over k moves in O(1)
    # steps per n: drop the old last term, scale, add the two new ones.
    pairs = [(mode, kind) for mode in DecodeMode for kind in FailureKind]
    sums = {(mode, kind): failure_law(mode, kind, 2, 1) for mode, kind in pairs}
    for n in range(2, 1001):
        if n > 2:
            for mode, kind in pairs:
                law = lambda m, k: failure_law(mode, kind, m, k)  # noqa: E731
                for k in {1, (n - 2) // 2} if n > 3 else ():
                    assert law(n, k) == 4 * law(n - 1, k), (mode, kind, n, k)
                old = sums[mode, kind] - law(n - 1, n - 2)
                sums[mode, kind] = 4 * old + law(n, n - 2) + law(n, n - 1)
        words = count(CountFamily.MARKED_WORDS, n)
        for family, mode in FAMILY_MODES.items():
            rejected = sums[mode, FailureKind.SW] + sums[mode, FailureKind.NW]
            assert rejected == words - count(family, n), (mode, n)


def test_audit_report_json():
    rep = bijection_audit(DecodeMode.SQUARE, 3)
    data = rep.to_json()
    assert data["ok"] and data["success_count"] == 6
    assert len(data["failures"]) == 4


def test_grid_census():
    assert brute_generic_grid_count(5, 5, 3) == 600
    assert brute_generic_grid_count(3, 3, 3) == 6
    assert brute_generic_grid_count(3, 3, 0) == 1  # the empty point set
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
    with pytest.raises(BoundExceeded):
        brute_generic_grid_count(8, 7, 3, polygon=True)
    with pytest.raises(BoundExceeded):
        brute_generic_grid_count(2, 38, 2, polygon=True)
