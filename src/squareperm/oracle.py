"""Brute-force enumerators and audits.

Everything here recomputes ground truth by definition chasing: scanning
all n! permutations, all marked words of a length, or all convex shapes
of a box column by column, and never reusing the closed-form counters
it is checking.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple, Sequence

from .codec import (
    INTERIOR_PAIRS,
    DecodeMode,
    FailureKind,
    InternalContradiction,
    MarkedWord,
    _decode,
    _encode,
    _letter_rows,
    _stop,
)
from .perm import (
    ColoredPermutation,
    Corner,
    Permutation,
    _unchecked,
    free_fixed_positions,
    is_co_decomposable,
    is_decomposable,
    is_parallel,
    is_square,
    is_triangular,
    record_masks,
    standardize_tuple,
    upper_left_counts,
)
from .permutomino import (
    Permutomino,
    check_boundary,
    from_colored_permutation,
    side_profile,
    to_colored_permutation,
)
from .polyxy import Poly
from .sampler import FAMILY_MODES
from .series import FIRST_SIZE, BivariateSeries, BoundExceeded, CountFamily, check_size, count

_PERM_SCAN_LIMIT = 9
_BOUNDARY_LIMIT = 5
#: largest word length that ``bijection_audit`` decodes exhaustively
_AUDIT_LIMIT = 8
#: largest word length that ``verify`` audits in PERMUTOMINO mode: the n = 8
#: audit of the shared words takes 0.13-0.14 s, 0.03 s of it to decide the
#: colored verdicts on the squares ``verify`` has already scanned and list
#: their values, and would lengthen ``verify --max-n 8`` (0.57-0.63 s end
#: to end) by about a quarter (2 cores, Python 3.11.7); raising it changes
#: the output of ``verify``
_PERMUTOMINO_AUDIT_LIMIT = 7
#: largest cell box of the generic polygon census; the slowest census it
#: allows, a 6 x 6 box at n = 5, takes 1.8 s (2 cores, Python 3.11.7)
_POLYGON_CENSUS_CELLS = 36

#: membership test on a square one-line tuple, per permutation family, in
#: ``verify`` order; every member of these families is square, so each
#: test is run once on the squares of each size's n! scan (None keeps them
#: all)
_PERM_FAMILY_TESTS = {
    CountFamily.SQUARE: None,
    CountFamily.TRIANGULAR: is_triangular,
    CountFamily.PARALLEL: is_parallel,
    CountFamily.FULLY_INDEC: lambda values: (
        not is_decomposable(values) and not is_co_decomposable(values)
    ),
}


class _Scan(NamedTuple):
    """The squares of one size, in the order of the n! scan, and each
    family's verdicts on them: decided for every square on the family's
    first call of that size, and kept."""

    values: tuple[tuple[int, ...], ...]
    #: family -> ``_verdicts(family, values)``
    verdicts: dict[CountFamily, Sequence]


#: n -> the scan of size n, made on first use and kept; ``brute_enumerate``
#: bounds n by ``_PERM_SCAN_LIMIT``: 9 sizes, 6.9 MiB in all with every
#: family's verdicts (tracemalloc, Python 3.11.7)
_SQUARES: dict[int, _Scan] = {}


def _squares(n: int) -> _Scan:
    """The squares of size n, in the order of the n! scan, with the
    verdicts decided so far.  Threads that race here scan twice, nothing
    worse."""
    scan = _SQUARES.get(n)
    if scan is None:
        perms = itertools.permutations(range(1, n + 1))
        scan = _SQUARES[n] = _Scan(tuple(filter(is_square, perms)), {})
    return scan


def _verdicts(family: CountFamily, squares: Sequence[tuple[int, ...]]) -> Sequence:
    """The verdict of ``family`` on each square, in order.  A permutation
    family's is a byte, 1 when its test holds; CONVEX_PERMUTOMINO's is the
    free fixed positions of a co-indecomposable square, whose colorings
    are its convex permutominoes, and None for a co-decomposable one."""
    if family is not CountFamily.CONVEX_PERMUTOMINO:
        keep = _PERM_FAMILY_TESTS[family]
        return b"\x01" * len(squares) if keep is None else bytes(map(keep, squares))
    return tuple(
        None
        if is_co_decomposable(values)
        else tuple(free_fixed_positions(values, record_masks(values)))
        for values in squares
    )


def iter_marked_words(n: int):
    """Every marked word of length n, in a fixed deterministic order: the
    words of ``_letter_marks``.  The size is checked at the call, before
    the first word is asked for."""
    check_size(CountFamily.MARKED_WORDS, n)
    return (
        _unchecked(MarkedWord, letters=letters, mark=mark)
        for letters, marks in _letter_marks(n)
        for mark in marks
    )


def _letter_marks(n: int):
    """Each letter sequence of length n >= 2 as a tuple, in the order of
    ``itertools.product`` over the interior letters, with the list of its
    marks: 1, n, then the interior positions that read L, ascending."""
    for combo in itertools.product(INTERIOR_PAIRS, repeat=n - 2):
        marks = [1, n]
        marks += [p for p in range(2, n) if combo[p - 2][1] == "L"]
        yield ("XY",) + combo + ("XY",), marks


def brute_enumerate(family: CountFamily, n: int) -> list:
    """All size-n members of ``family`` by exhaustive scan.

    Permutation families select, in scan order, the squares that the
    family's predicate holds.  The squares come from one scan of all n!
    one-line arrays (n <= 9), made on the first call of that size, and each
    family's verdicts on them from its first call of that size; both are
    kept for the life of the process.  Each call returns a new list of new
    objects, built from ``_member_values``.  CONVEX_PERMUTOMINO lists
    colored co-indecomposable squares, one entry per coloring of free
    fixed points, whose colorings of one square share one Permutation.
    The directed and parallelogram permutomino families are filtered from
    the direct boundary enumeration (n <= 5).
    """
    check_size(family, n)
    if family in (CountFamily.DIRECTED_PERMUTOMINO, CountFamily.PARALLELOGRAM_PERMUTOMINO):
        directed = family is CountFamily.DIRECTED_PERMUTOMINO
        reports = ((p, check_boundary(p.turnpoints)) for p in enumerate_permutominoes(n))
        return [p for p, r in reports if (r.directed if directed else r.parallelogram)]
    if family is CountFamily.MARKED_WORDS:
        if n > 12:
            raise BoundExceeded("marked-word census stops at length 12")
        return list(iter_marked_words(n))
    if n > _PERM_SCAN_LIMIT:
        raise BoundExceeded(f"permutation scans stop at size {_PERM_SCAN_LIMIT}")
    members = _member_values(family, n)
    if family is not CountFamily.CONVEX_PERMUTOMINO:
        return [_unchecked(Permutation, values=values) for values in members]
    out = []
    perm = None
    for values, colored in members:
        if perm is None or perm.values is not values:  # the next square
            perm = _unchecked(Permutation, values=values)
        out.append(_unchecked(ColoredPermutation, perm=perm, colored=colored))
    return out


def _member_values(family: CountFamily, n: int) -> list:
    """The size-n members of a scanned family as plain values, in scan
    order: the one-line tuples of a permutation family's squares, and for
    CONVEX_PERMUTOMINO a (values, colored) pair per coloring of each
    co-indecomposable square's free fixed points, colored a frozenset.
    The tuples are the scan's own, kept in ``_SQUARES``; a new list each
    call.  The size checks are the caller's."""
    scan = _squares(n)
    verdicts = scan.verdicts.get(family)
    if verdicts is None:  # threads that race here decide twice, nothing worse
        verdicts = scan.verdicts[family] = _verdicts(family, scan.values)
    if family is not CountFamily.CONVEX_PERMUTOMINO:
        return list(itertools.compress(scan.values, verdicts))
    return [
        (values, frozenset(subset))
        for values, free in zip(scan.values, verdicts)
        if free is not None
        for r in range(len(free) + 1)
        for subset in itertools.combinations(free, r)
    ]


def _walk_polygons(width: int, height: int, n: int):
    """Turnpoint cycles of the hv-convex polyominoes with 2n turnpoints in
    a width x height cell box, with at most one side on each line.

    Column c of a shape holds the cells from row bottoms[c] up to row
    tops[c] - 1; the shape may start and end at any column.  Bottoms fall
    then rise and tops rise then fall.  On an interior vertical line a
    column either repeats its neighbour's interval, leaving the line
    without a side, or changes exactly one end, which puts one side on
    the line and keeps the columns overlapping; n - 2 interior lines
    carry a side, so the cycle has 2n turnpoints.  Each change starts a
    horizontal side, whose y may not hold one already (``used``, one bit
    per horizontal line).  No size limit applies here.
    """
    bottoms = [0] * width
    tops = [0] * width

    def shape(x0, x1):
        # clockwise from the lower left corner of columns x0..x1-1
        pts = [(x0, bottoms[x0]), (x0, tops[x0])]
        for c in range(x0 + 1, x1):
            if tops[c] != tops[c - 1]:
                pts += ((c, tops[c - 1]), (c, tops[c]))
        pts += ((x1, tops[x1 - 1]), (x1, bottoms[x1 - 1]))
        for c in range(x1 - 1, x0, -1):
            if bottoms[c] != bottoms[c - 1]:
                pts += ((c, bottoms[c]), (c, bottoms[c - 1]))
        return pts

    def extend(x0, c, sides, used, rise, fall):
        # columns x0..c-1 are set and ``sides`` interior lines carry a side;
        # rise: the bottoms have started rising, fall: the tops falling
        if sides == n - 2:
            yield shape(x0, c)
        if c == width or sides + width - c < n - 2:
            return
        b, t = bottoms[c - 1], tops[c - 1]
        bottoms[c], tops[c] = b, t
        yield from extend(x0, c + 1, sides, used, rise, fall)
        if sides >= n - 2:
            return
        for nb in range(b + 1 if rise else 0, t):
            if nb != b and not used >> nb & 1:
                bottoms[c] = nb
                yield from extend(x0, c + 1, sides + 1, used | 1 << nb, rise or nb > b, fall)
        bottoms[c] = b
        for nt in range(b + 1, t if fall else height + 1):
            if nt != t and not used >> nt & 1:
                tops[c] = nt
                yield from extend(x0, c + 1, sides + 1, used | 1 << nt, rise, fall or nt < t)

    for x0 in range(width):
        for b in range(height):
            for t in range(b + 1, height + 1):
                bottoms[x0], tops[x0] = b, t
                yield from extend(x0, x0 + 1, 0, 1 << b | 1 << t, False, False)


def enumerate_permutominoes(n: int) -> list[Permutomino]:
    """Direct boundary enumeration of all convex permutominoes of size n.

    Walks the column intervals of the (n-1) x (n-1) box (see
    ``_walk_polygons``) and checks each shape against the definition with
    ``Permutomino.from_turnpoints``, which raises on a shape that fails;
    independent of the permutation bijection.
    """
    check_size(CountFamily.CONVEX_PERMUTOMINO, n)
    if n > _BOUNDARY_LIMIT:
        raise BoundExceeded(f"boundary enumeration stops at size {_BOUNDARY_LIMIT}")
    return [Permutomino.from_turnpoints(pts) for pts in _walk_polygons(n - 1, n - 1, n)]


def brute_refined_histogram(family: CountFamily, n: int) -> Poly:
    """Sum of x^upper y^left over the family, by enumeration.

    SQUARE and FULLY_INDEC weigh upper/left points; CONVEX_PERMUTOMINO
    weighs upper/left sides of the permutomino built from each colored
    permutation.
    """
    if family in (CountFamily.SQUARE, CountFamily.FULLY_INDEC):
        weights = map(upper_left_counts, brute_enumerate(family, n))
    elif family is CountFamily.CONVEX_PERMUTOMINO:
        members = brute_enumerate(family, n)
        weights = (side_profile(from_colored_permutation(cp)) for cp in members)
    else:
        raise ValueError(f"no refined histogram for {family}")
    return dict(Counter(weights))


def refined_series_by_enumeration(family: CountFamily, order: int) -> BivariateSeries:
    """Refined series whose coefficients come from exhaustive enumeration.

    Supported for CONVEX_PERMUTOMINO (x marks upper sides, y left sides)
    and FULLY_INDEC (upper/left points), up to the permutation-scan limit.
    """
    if family not in (CountFamily.CONVEX_PERMUTOMINO, CountFamily.FULLY_INDEC):
        raise ValueError(f"no enumeration-backed series for {family}")
    if order > _PERM_SCAN_LIMIT:
        raise BoundExceeded(
            f"enumeration-backed series stop at order {_PERM_SCAN_LIMIT}"
        )
    first = FIRST_SIZE[family]
    hists = [brute_refined_histogram(family, n) for n in range(first, order + 1)]
    return BivariateSeries(order, tuple([{}] * (order + 1 - len(hists)) + hists))


_SQUARE_PAIRS = {
    FailureKind.SW: {("D", "L"), ("D", "R")},
    FailureKind.NW: {("U", "R"), ("D", "L")},
}

_PREFIX_CLASS = {
    FailureKind.SW: Corner.UPPER_RIGHT,
    FailureKind.NW: Corner.LOWER_RIGHT,
}


@dataclass
class AuditReport:
    mode: str
    n: int
    success_count: int = 0
    failure_counts: dict = field(default_factory=dict)
    internal_contradictions: int = 0
    roundtrip_failures: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and not self.internal_contradictions
            and not self.roundtrip_failures
        )

    def to_json(self) -> dict:
        failures = [
            {"kind": kind, "stop_index": idx, "pair": list(pair), "count": c}
            for (kind, idx, pair), c in sorted(self.failure_counts.items())
        ]
        return {
            "mode": self.mode,
            "n": self.n,
            "success_count": self.success_count,
            "failures": failures,
            "internal_contradictions": self.internal_contradictions,
            "roundtrip_failures": self.roundtrip_failures,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def bijection_audit(
    mode: DecodeMode, n: int, *, _members=None, _runs=None
) -> AuditReport:
    """Decode every marked word of length n and check the full partition.

    Verifies that the success count and success set match the brute
    enumeration of the matching family, that every success round-trips
    through encode, that the failures of each kind and prefix length
    follow ``failure_law``, and, in SQUARE mode, that they land in the
    right triangular prefix classes with the right letter pairs.
    The words are read as plain values, one run per letter sequence of
    ``_letter_marks``: (``_letter_rows`` of the letters, the letters as a
    list, the marks), set up once and decoded once per mark, so no
    MarkedWord is built.  Successes are kept as plain values too, the
    one-line tuple and, in PERMUTOMINO mode, the frozenset of colored
    points with it; the round trip holds when the first value is the mark
    and ``codec._encode`` of the values gives the letters, and no object
    is built per success.

    ``verify`` passes what it has already built through the private
    keywords: ``_members`` is the enumeration as ``_member_values`` gives
    it, and ``_runs`` the runs of length n, which every mode's audit of
    that length shares.
    """
    if n > _AUDIT_LIMIT:
        raise BoundExceeded(f"audits stop at n = {_AUDIT_LIMIT}")
    if _runs is None:
        _runs = (
            (_letter_rows(letters), list(letters), marks)
            for letters, marks in _letter_marks(n)
        )
    report = AuditReport(mode=mode.value, n=n)
    successes = set()
    failure_counts: Counter = Counter()  # (kind, stop_index, pair) -> words
    triangular = {}  # (kind, prefix values) -> the prefix class verdict
    square = mode is DecodeMode.SQUARE
    permutomino = mode is DecodeMode.PERMUTOMINO
    for letter_rows, letters, marks in _runs:
        for mark in marks:
            outcome = _decode(letters, mark, mode, None, letter_rows)
            if isinstance(outcome, InternalContradiction):
                report.internal_contradictions += 1
                continue
            kind, stop_index, rows, colored = outcome
            if kind is None:
                report.success_count += 1
                values = tuple(rows[1:])
                successes.add((values, frozenset(colored)) if permutomino else values)
                if values[0] != mark or _encode(values, colored) != letters:
                    report.roundtrip_failures += 1
                continue
            pair, prefix = _stop(letters, stop_index, kind, rows, square)
            failure_counts[kind, stop_index, pair] += 1
            if square:
                if pair not in _SQUARE_PAIRS[kind]:
                    report.violations.append(f"pair {pair} unexpected for {kind.value}")
                ok = triangular.get((kind, prefix))
                if ok is None:
                    ok = triangular[kind, prefix] = is_triangular(
                        prefix, _PREFIX_CLASS[kind]
                    )
                if not ok:
                    report.violations.append(
                        f"{kind.value} prefix {prefix} not in "
                        f"the {_PREFIX_CLASS[kind].value}-free triangular class"
                    )
    report.failure_counts = {
        (kind.value, stop_index, pair): c
        for (kind, stop_index, pair), c in failure_counts.items()
    }

    family = next(f for f, m in FAMILY_MODES.items() if m is mode)
    if _members is None:
        _members = _member_values(family, n)
    expected = count(family, n)
    if report.success_count != expected:
        report.violations.append(
            f"{report.success_count} successes, expected {expected}"
        )
    if successes != set(_members):
        report.violations.append("success set differs from the brute enumeration")

    per_kind: Counter = Counter()
    for (kind, stop_index, _pair), c in report.failure_counts.items():
        per_kind[(kind, stop_index - 1)] += c
    for k in range(1, n):
        for kind in FailureKind:
            expect_k = failure_law(mode, kind, n, k)
            got_k = per_kind.pop((kind.value, k), 0)
            if got_k != expect_k:
                report.violations.append(
                    f"{kind.value} failures with prefix length {k}: {got_k}, "
                    f"expected {expect_k}"
                )
    for (kind, k), c in per_kind.items():
        report.violations.append(
            f"unexpected {kind} failures with prefix length {k}: {c}"
        )
    return report


def failure_law(mode: DecodeMode, kind: FailureKind, n: int, k: int) -> int:
    """Marked words of length n whose decoding in ``mode`` stops with a
    ``kind`` failure after a prefix of length k.

    With T_k = C(2k-2, k-1), the SQUARE law is 2 T_k 4^(n-k-2) for
    1 <= k <= n-2.  FULLY_INDEC and PERMUTOMINO's NW failures differ only
    at the ends: 4^(n-2) at k = 1 (tested first, for n = 2) and
    T_(n-1) / 2 at k = n-1.  PERMUTOMINO's SW failures at k follow the
    FULLY_INDEC law at k+1, which is 0 at k = n-1.
    """
    if mode is DecodeMode.PERMUTOMINO and kind is FailureKind.SW:
        k += 1
    if mode is not DecodeMode.SQUARE:
        if k == 1:
            return 4 ** (n - 2)
        if k == n - 1:
            return count(CountFamily.TRIANGULAR, k) // 2
    if 1 <= k <= n - 2:
        return 2 * count(CountFamily.TRIANGULAR, k) * 4 ** (n - k - 2)
    return 0


def brute_generic_grid_count(cols: int, rows: int, n: int, polygon: bool = False) -> int:
    """Direct census of generic grid configurations, no product formula.

    Without ``polygon``: point sets on a cols x rows grid with distinct
    columns, distinct rows, and no interior point.  With ``polygon``:
    convex polygons with 2n turnpoints, one side per used line, walked
    column by column anywhere in the (cols-1) x (rows-1) cell box and
    checked one by one with ``check_boundary(reduced=False)``, which
    raises on a shape that fails.
    """
    if not polygon:
        if comb(cols * rows, n) > 3_000_000:
            raise BoundExceeded("grid census too large")
        grid = [(x, y) for x in range(cols) for y in range(rows)]
        total = 0
        for pts in itertools.combinations(grid, n):
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            if len(set(xs)) < n or len(set(ys)) < n:
                continue
            ordered = sorted(pts)
            if is_square(standardize_tuple([y for _, y in ordered])):
                total += 1
        return total

    if (cols - 1) * (rows - 1) > _POLYGON_CENSUS_CELLS:
        raise BoundExceeded(f"polygon census stops at {_POLYGON_CENSUS_CELLS} cells")
    shapes = _walk_polygons(cols - 1, rows - 1, n)
    return sum(check_boundary(pts, reduced=False).size == n for pts in shapes)


def verify(max_n: int) -> tuple[list[tuple[str, bool, str]], list[dict]]:
    """The brute-force suite of ``squareperm verify``, up to size ``max_n``.

    In this order: each permutation family counted by its brute
    enumeration; convex permutominoes counted by the boundary walk and by
    the colored permutations, and each walked one sent through the
    bijection and back; the decode-partition audit of every mode, fed by
    those enumerations; and two grid censuses.  The enumerations are the
    plain values of ``_member_values``, selected by the verdicts kept with
    the one n! scan per size, and each audit reuses, then drops, the
    values its count check read; no Permutation is built for them.  The
    marked words of each length are read as letters and marks, never as
    MarkedWord objects: each letter sequence of ``_letter_marks`` is set
    up once, and every mode's audit of that length decodes the same runs
    (``bijection_audit``'s ``_runs``).  Returns the checks as
    (name, ok, detail) and the audit reports as JSON.
    """
    checks = []
    scans = {}  # (family, n) -> the members' values, until an audit takes them
    top = min(max_n, _AUDIT_LIMIT)
    for family in _PERM_FAMILY_TESTS:
        for n in range(FIRST_SIZE[family], top + 1):
            scans[family, n] = members = _member_values(family, n)
            ok = len(members) == count(family, n)
            checks.append((f"count {family.value} n={n}", ok, f"brute {len(members)}"))
    family = CountFamily.CONVEX_PERMUTOMINO
    for n in range(FIRST_SIZE[family], min(max_n, _BOUNDARY_LIMIT) + 1):
        permutominoes = enumerate_permutominoes(n)
        scans[family, n] = members = _member_values(family, n)
        direct, via_perms = len(permutominoes), len(members)
        ok = direct == via_perms == count(family, n)
        detail = f"boundary {direct}, colored {via_perms}"
        checks.append((f"count {family.value} n={n}", ok, detail))
        ok = all(
            from_colored_permutation(to_colored_permutation(p)) == p
            for p in permutominoes
        )
        checks.append((f"permutomino bijection round-trip n={n}", ok, ""))
    audits = {mode: [] for mode in FAMILY_MODES.values()}  # mode -> reports by n
    for n in range(FIRST_SIZE[CountFamily.MARKED_WORDS], top + 1):
        # set up once, decoded in every mode
        runs = tuple(
            (_letter_rows(letters), list(letters), marks)
            for letters, marks in _letter_marks(n)
        )
        for family, mode in FAMILY_MODES.items():
            if mode is not DecodeMode.PERMUTOMINO or n <= _PERMUTOMINO_AUDIT_LIMIT:
                report = bijection_audit(
                    mode, n, _members=scans.pop((family, n), None), _runs=runs
                )
                audits[mode].append(report)
    reports = [report for by_n in audits.values() for report in by_n]
    for report in reports:
        detail = "; ".join(report.violations[:3])
        checks.append((f"audit {report.mode} n={report.n}", report.ok, detail))
    census = brute_generic_grid_count(5, 5, 3) == 600
    checks.append(("generic grid census 5x5 n=3", census, ""))
    census = brute_generic_grid_count(4, 4, 2, polygon=True) == 36
    checks.append(("generic polygon census 4x4 n=2", census, ""))
    return checks, [report.to_json() for report in reports]
