"""Brute-force enumerators and audits.

Everything here recomputes ground truth by definition chasing: scanning
all n! permutations, all marked words of a length, all convex shapes of
a box column by column, or (for the generic polygon census) all cell
subsets of a box, and never reusing the closed-form counters it is
checking.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from math import comb

from .codec import (
    INTERIOR_PAIRS,
    DecodeMode,
    Failure,
    FailureKind,
    MarkedWord,
    Success,
    decode,
    encode,
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
from .permutomino import Permutomino, check_boundary, from_colored_permutation, side_profile
from .polyxy import Poly
from .sampler import FAMILY_MODES
from .series import BoundExceeded, CountFamily, count

_PERM_SCAN_LIMIT = 9
_BOUNDARY_LIMIT = 5

#: membership test on a bare one-line tuple, per permutation family
_PERM_FAMILY_TESTS = {
    CountFamily.SQUARE: is_square,
    CountFamily.TRIANGULAR: is_triangular,
    CountFamily.PARALLEL: is_parallel,
    CountFamily.FULLY_INDEC: lambda values: (
        not is_decomposable(values) and not is_co_decomposable(values) and is_square(values)
    ),
}


def iter_marked_words(n: int):
    """Every marked word of length n, in a fixed deterministic order."""
    if n < 2:
        raise ValueError("marked words start at length 2")
    for combo in itertools.product(INTERIOR_PAIRS, repeat=n - 2):
        letters = ("XY",) + combo + ("XY",)
        yield _unchecked(MarkedWord, letters, 1)
        yield _unchecked(MarkedWord, letters, n)
        for p in range(2, n):
            if combo[p - 2][1] == "L":
                yield _unchecked(MarkedWord, letters, p)


def brute_enumerate(family: CountFamily, n: int) -> list:
    """All size-n members of ``family`` by exhaustive scan.

    Permutation families run over all n! one-line arrays (n <= 9).
    CONVEX_PERMUTOMINO lists colored co-indecomposable squares, one entry
    per coloring of free fixed points.  The directed and parallelogram
    permutomino families are filtered from the direct boundary
    enumeration (n <= 5).
    """
    if family in (CountFamily.DIRECTED_PERMUTOMINO, CountFamily.PARALLELOGRAM_PERMUTOMINO):
        out = []
        for p in enumerate_permutominoes(n):
            report = check_boundary(p.turnpoints)
            if family is CountFamily.DIRECTED_PERMUTOMINO and report.directed:
                out.append(p)
            if family is CountFamily.PARALLELOGRAM_PERMUTOMINO and report.parallelogram:
                out.append(p)
        return out
    if family is CountFamily.MARKED_WORDS:
        if n > 12:
            raise BoundExceeded("marked-word census stops at length 12")
        return list(iter_marked_words(n))
    if n > _PERM_SCAN_LIMIT:
        raise BoundExceeded(f"permutation scans stop at size {_PERM_SCAN_LIMIT}")
    perms = itertools.permutations(range(1, n + 1))
    if family is not CountFamily.CONVEX_PERMUTOMINO:
        keep = _PERM_FAMILY_TESTS.get(family)
        if keep is None:
            raise ValueError(f"unknown family {family!r}")
        return [_unchecked(Permutation, values) for values in perms if keep(values)]
    out = []
    for values in perms:
        masks = record_masks(values)
        if is_co_decomposable(values) or 0 in masks:
            continue
        free = free_fixed_positions(values, masks)
        perm = _unchecked(Permutation, values)
        for r in range(len(free) + 1):
            for subset in itertools.combinations(free, r):
                out.append(_unchecked(ColoredPermutation, perm, frozenset(subset)))
    return out


def _iter_polyomino_boundaries(cell_w: int, cell_h: int):
    """Turnpoint cycles of every polyomino inside a cell_w x cell_h box.

    Yields (cells_mask, turnpoints) for each edge-connected, hole-free,
    pinch-free subset; the cycle orientation is arbitrary.  The scan
    visits all 2^(cell_w * cell_h) subsets; it serves the generic polygon
    census, whose polygons need not be convex.
    """
    cells = cell_w * cell_h
    if cells > 18:
        raise BoundExceeded("cell-subset scans stop at 18 cells")

    def bit(cx: int, cy: int) -> int:
        return 1 << (cy * cell_w + cx)

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

        incident: dict[tuple[int, int], list[tuple[int, int]]] = {}
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
            here = walk[i]
            after = walk[(i + 1) % k]
            if (before[0] == after[0]) or (before[1] == after[1]):
                continue  # straight through
            turnpoints.append(here)
        yield mask, turnpoints


def _walk_permutominoes(n: int):
    """Convex permutominoes of size n, by a walk over column intervals.

    Column c of the (n-1) x (n-1) cell box holds the cells from row
    bottom[c] up to row top[c] - 1.  The bottoms fall then rise, the tops
    rise then fall, and on each interior vertical line exactly one of
    the two changes, which keeps neighbouring columns overlapping and
    puts one side on every vertical line.  A branch dies once the
    bottoms rise before reaching row 0 or the tops fall before reaching
    row n - 1.  Each finished shape that spans the box is checked
    against the definition by ``Permutomino.from_turnpoints``.  No size
    limit applies here.
    """
    side = n - 1
    bottoms = [0] * side
    tops = [0] * side

    def shape():
        # clockwise from the lower left corner; one change per interior
        # line gives 4 + 2(n - 2) = 2n turnpoints
        pts = [(0, bottoms[0]), (0, tops[0])]
        for c in range(1, side):
            if tops[c] != tops[c - 1]:
                pts += ((c, tops[c - 1]), (c, tops[c]))
        pts += ((side, tops[-1]), (side, bottoms[-1]))
        for c in range(side - 1, 0, -1):
            if bottoms[c] != bottoms[c - 1]:
                pts += ((c, bottoms[c]), (c, bottoms[c - 1]))
        return pts

    def extend(c, bottoms_rise, tops_fall, floor, ceiling):
        # floor and ceiling: the lowest bottom and highest top so far
        if (bottoms_rise and floor > 0) or (tops_fall and ceiling < side):
            return
        if c == side:
            if floor == 0 and ceiling == side:
                try:
                    yield Permutomino.from_turnpoints(shape())
                except ValueError:
                    pass
            return
        b, t = bottoms[c - 1], tops[c - 1]
        tops[c] = t
        for nb in range(b + 1 if bottoms_rise else 0, t):
            if nb != b:
                bottoms[c] = nb
                yield from extend(
                    c + 1, bottoms_rise or nb > b, tops_fall, min(floor, nb), ceiling
                )
        bottoms[c] = b
        for nt in range(b + 1, t if tops_fall else side + 1):
            if nt != t:
                tops[c] = nt
                yield from extend(
                    c + 1, bottoms_rise, tops_fall or nt < t, floor, max(ceiling, nt)
                )

    for b in range(side):
        for t in range(b + 1, side + 1):
            bottoms[0], tops[0] = b, t
            yield from extend(1, False, False, b, t)


def enumerate_permutominoes(n: int) -> list[Permutomino]:
    """Direct boundary enumeration of all convex permutominoes of size n.

    Walks the column intervals of the (n-1) x (n-1) box (see
    ``_walk_permutominoes``) and keeps the shapes whose boundary passes
    every permutomino check; independent of the permutation bijection.
    """
    if n < 2:
        raise ValueError("permutominoes start at size 2")
    if n > _BOUNDARY_LIMIT:
        raise BoundExceeded(f"boundary enumeration stops at size {_BOUNDARY_LIMIT}")
    return list(_walk_permutominoes(n))


def brute_refined_histogram(family: CountFamily, n: int) -> Poly:
    """Sum of x^upper y^left over the family, by enumeration.

    SQUARE and FULLY_INDEC weigh upper/left points; CONVEX_PERMUTOMINO
    weighs upper/left sides of the permutomino built from each colored
    permutation.
    """
    hist: Counter = Counter()
    if family in (CountFamily.SQUARE, CountFamily.FULLY_INDEC):
        for member in brute_enumerate(family, n):
            hist[upper_left_counts(member)] += 1
    elif family is CountFamily.CONVEX_PERMUTOMINO:
        for cp in brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, n):
            hist[side_profile(from_colored_permutation(cp))] += 1
    else:
        raise ValueError(f"no refined histogram for {family}")
    return {k: v for k, v in hist.items()}


def boundary_refined_histogram(n: int) -> Poly:
    """Upper/left side histogram from the direct boundary enumeration."""
    hist: Counter = Counter()
    for p in enumerate_permutominoes(n):
        hist[side_profile(p)] += 1
    return {k: v for k, v in hist.items()}


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


def bijection_audit(mode: DecodeMode, n: int, *, _members=None) -> AuditReport:
    """Decode every marked word of length n and check the full partition.

    Verifies that the success count and success set match the brute
    enumeration of the matching family, that every success round-trips
    through encode, and, in SQUARE mode, that failures land in the right
    triangular prefix classes with the right letter pairs and per-length
    counts 2 T_k 4^(n-k-2).  ``_members`` is that enumeration when the
    caller has already run it.
    """
    if n > 8:
        raise BoundExceeded("audits stop at n = 8")
    report = AuditReport(mode=mode.value, n=n)
    successes = []
    for word in iter_marked_words(n):
        outcome = decode(word, mode)
        if isinstance(outcome, Success):
            report.success_count += 1
            successes.append(outcome.result)
            if encode(outcome.result) != word:
                report.roundtrip_failures += 1
        elif isinstance(outcome, Failure):
            key = (outcome.kind.value, outcome.stop_index, outcome.pair)
            report.failure_counts[key] = report.failure_counts.get(key, 0) + 1
            if mode is DecodeMode.SQUARE:
                if outcome.pair not in _SQUARE_PAIRS[outcome.kind]:
                    report.violations.append(
                        f"pair {outcome.pair} unexpected for {outcome.kind.value}"
                    )
                if not is_triangular(outcome.prefix, _PREFIX_CLASS[outcome.kind]):
                    report.violations.append(
                        f"{outcome.kind.value} prefix {outcome.prefix.values} not in "
                        f"the {_PREFIX_CLASS[outcome.kind].value}-free triangular class"
                    )
        else:
            report.internal_contradictions += 1

    family = next(f for f, m in FAMILY_MODES.items() if m is mode)
    if _members is None:
        _members = brute_enumerate(family, n)
    expected = count(family, n)
    if report.success_count != expected:
        report.violations.append(
            f"{report.success_count} successes, expected {expected}"
        )
    if family is CountFamily.CONVEX_PERMUTOMINO:
        got = {(cp.perm.values, cp.colored) for cp in successes}
        want = {(cp.perm.values, cp.colored) for cp in _members}
    else:
        got = {cp.perm.values for cp in successes}
        want = {p.values for p in _members}
    if got != want:
        report.violations.append("success set differs from the brute enumeration")

    if mode is DecodeMode.SQUARE:
        per_kind: Counter = Counter()
        for (kind, stop_index, _pair), c in report.failure_counts.items():
            per_kind[(kind, stop_index - 1)] += c
        for k in range(1, n - 1):
            expect_k = 2 * count(CountFamily.TRIANGULAR, k) * 4 ** (n - k - 2)
            for kind in ("SW", "NW"):
                got_k = per_kind.pop((kind, k), 0)
                if got_k != expect_k:
                    report.violations.append(
                        f"{kind} failures with prefix length {k}: {got_k}, "
                        f"expected {expect_k}"
                    )
        for (kind, k), c in per_kind.items():
            report.violations.append(
                f"unexpected {kind} failures with prefix length {k}: {c}"
            )
    return report


def brute_generic_grid_count(cols: int, rows: int, n: int, polygon: bool = False) -> int:
    """Direct census of generic grid configurations, no product formula.

    Without ``polygon``: point sets on a cols x rows grid with distinct
    columns, distinct rows, and no interior point.  With ``polygon``:
    convex polygons with 2n turnpoints, one side per used line, counted
    by scanning cell subsets of the full (cols-1) x (rows-1) box.
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

    total = 0
    for _, turnpoints in _iter_polyomino_boundaries(cols - 1, rows - 1):
        if len(turnpoints) != 2 * n:
            continue
        try:
            check_boundary(turnpoints, reduced=False)
        except ValueError:
            continue
        total += 1
    return total
