"""Correctness checks that share no code with the package under test.

Membership tests re-derive record flags, (co-)decomposability and the
permutomino boundary rules from their definitions; counts are recomputed
modulo a Mersenne prime from binomial tables and, for square
permutations, from the paper's failure census
Sq_n = M_n - sum over both failure kinds and prefix lengths k of
2 T_k 4^(n-k-2), with T_k = C(2k-2, k-1) triangular permutations.
"""

from __future__ import annotations

import math

P = (1 << 61) - 1  # prime modulus for count checks


class CheckFailed(Exception):
    """An output of the package is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- permutations ------------------------------------------------------


def check_permutation(values, n: int) -> None:
    require(len(values) == n, f"size {len(values)}, expected {n}")
    require(set(values) == set(range(1, n + 1)), "not a permutation of 1..n")


def check_square(values) -> None:
    """Every point is a left-to-right or right-to-left maximum or minimum."""
    n = len(values)
    record = bytearray(n)
    hi, lo = 0, n + 1
    for i, v in enumerate(values):
        if v > hi:
            hi = v
            record[i] = 1
        if v < lo:
            lo = v
            record[i] = 1
    hi, lo = 0, n + 1
    for i in range(n - 1, -1, -1):
        v = values[i]
        if v > hi:
            hi = v
            record[i] = 1
        if v < lo:
            lo = v
            record[i] = 1
    require(all(record), "a point is interior, so the permutation is not square")


def is_decomposable(values) -> bool:
    """values = a (+) b: some proper prefix of length k holds exactly 1..k."""
    top = 0
    for k, v in enumerate(values[:-1], start=1):
        top = max(top, v)
        if top == k:
            return True
    return False


def is_co_decomposable(values) -> bool:
    """values = a (-) b: some proper prefix of length k holds the top k values."""
    n = len(values)
    low = n + 1
    for k, v in enumerate(values[:-1], start=1):
        low = min(low, v)
        if low == n - k + 1:
            return True
    return False


# -- permutominoes -----------------------------------------------------


def check_permutomino(points, n: int) -> tuple[int, ...]:
    """Check a canonical convex permutomino cycle; return its black points.

    Canonical means: translated to the origin, clockwise, starting at the
    highest point of the leftmost line.  The permutomino conditions are one
    side on each of the lines 0..n-1 in both directions, alternating
    axis-parallel moves, and every turnpoint a record of the turnpoint set.
    """
    pts = [tuple(p) for p in points]
    m = len(pts)
    require(m == 2 * n, f"{m} turnpoints, expected {2 * n}")
    require(len(set(pts)) == m, "a turnpoint repeats")
    v_lines, h_lines, turns, area2 = [], [], 0, 0
    for i in range(m):
        (x1, y1), (x2, y2), (x3, y3) = pts[i], pts[(i + 1) % m], pts[(i + 2) % m]
        vertical = x1 == x2
        require(vertical != (y1 == y2), f"move {pts[i]} -> {pts[(i + 1) % m]}")
        require(vertical != (x2 == x3), f"two parallel moves at {pts[(i + 1) % m]}")
        (v_lines if vertical else h_lines).append(x1 if vertical else y1)
        cross = (x2 - x1) * (y3 - y2) - (y2 - y1) * (x3 - x2)
        turns += 1 if cross < 0 else -1
        area2 += x1 * y2 - x2 * y1
    require(sorted(v_lines) == list(range(n)), "not one vertical side per line")
    require(sorted(h_lines) == list(range(n)), "not one horizontal side per line")
    require(area2 < 0 and turns == 4, "boundary is not a clockwise simple turn")

    col_lo = [n] * n
    col_hi = [-1] * n
    for x, y in pts:
        col_lo[x] = min(col_lo[x], y)
        col_hi[x] = max(col_hi[x], y)
    require(pts[0] == (0, col_hi[0]), "cycle does not start at its canonical point")
    pre_hi, pre_lo = [-1] * (n + 1), [n] * (n + 1)
    for x in range(n):
        pre_hi[x + 1] = max(pre_hi[x], col_hi[x])
        pre_lo[x + 1] = min(pre_lo[x], col_lo[x])
    suf_hi, suf_lo = [-1] * (n + 1), [n] * (n + 1)
    for x in range(n - 1, -1, -1):
        suf_hi[x] = max(suf_hi[x + 1], col_hi[x])
        suf_lo[x] = min(suf_lo[x + 1], col_lo[x])
    for x, y in pts:
        require(
            pre_hi[x] <= y or suf_hi[x + 1] <= y or pre_lo[x] >= y or suf_lo[x + 1] >= y,
            f"turnpoint {(x, y)} is not a record, so the polygon is not convex",
        )
    blacks = sorted(pts[1::2])
    require([x for x, _ in blacks] == list(range(n)), "black turnpoints miss a column")
    return tuple(y + 1 for _, y in blacks)


# -- counts ------------------------------------------------------------


class ModBinomials:
    """Factorials modulo P, grown on demand."""

    def __init__(self) -> None:
        self.fact = [1]
        self.inv = [1]

    def _grow(self, top: int) -> None:
        fact = self.fact
        start = len(fact)
        if top < start:
            return
        top = max(top, 2 * start)  # geometric growth keeps a sweep of n linear
        for k in range(start, top + 1):
            fact.append(fact[-1] * k % P)
        inv = [0] * (top + 1)
        inv[top] = pow(fact[top], P - 2, P)
        for k in range(top, 0, -1):
            inv[k - 1] = inv[k] * k % P
        self.inv = inv

    def comb(self, a: int, b: int) -> int:
        if b < 0 or b > a:
            return 0
        self._grow(a)
        return self.fact[a] * self.inv[b] % P * self.inv[a - b] % P


def marked_words(n: int) -> int:
    """Endpoint-marked words plus interior-marked words (exact)."""
    if n < 2:
        return 0
    if n == 2:
        return 2
    return 2 * 4 ** (n - 2) + (n - 2) * 2 * 4 ** (n - 3)


def square_by_census(n: int, comb=math.comb, modulus: int | None = None) -> int:
    """Sq_n from the failure census, reduced modulo ``modulus`` if given."""
    if n <= 2:
        return (0, 1, 2)[n]
    acc = 0  # sum of T_k 4^(n-2-k) over k = 1..n-2, by Horner's rule
    for k in range(1, n - 1):
        acc = acc * 4 + comb(2 * k - 2, k - 1)
        if modulus:
            acc %= modulus
    total = marked_words(n) - 4 * acc
    return total % modulus if modulus else total


def count_mod(family: str, n: int, binom: ModBinomials) -> int:
    """The family count modulo P, by the definitions above."""
    c = binom.comb
    if family == "square":
        return square_by_census(n, c, P)
    if family == "triangular":
        return c(2 * n - 2, n - 1)
    if family == "parallel":
        return (c(2 * n, n) - c(2 * n, n + 1)) % P
    if family == "marked-words":
        return marked_words(n) % P
    if family == "fully-indec":
        if n <= 2:
            return (0, 1, 0)[n]
        return (n * pow(2, 2 * n - 5, P) - (2 * n - 3) * c(2 * n - 4, n - 2)) % P
    if family == "convex-permutomino":
        if n == 2:
            return 1
        return (marked_words(n) - (2 * n - 3) * c(2 * n - 4, n - 2)) % P
    if family == "directed-permutomino":
        return c(2 * n - 3, n - 2)
    if family == "parallelogram-permutomino":
        return (c(2 * n - 2, n - 1) - c(2 * n - 2, n)) % P
    raise CheckFailed(f"no count check for {family!r}")


# -- series text -------------------------------------------------------


def series_sums(text: str) -> dict[int, int]:
    """Coefficient sum of each ``t^n: poly`` line (the series at x=y=1)."""
    sums = {}
    for line in text.splitlines():
        head, sep, body = line.partition(": ")
        require(sep == ": " and head.startswith("t^"), f"bad series line {line!r}")
        total, sign = 0, 1
        for token in body.split():
            if token in "+-":
                sign = 1 if token == "+" else -1
                continue
            if token.startswith("-"):
                sign, token = -1, token[1:]
            lead = token.split("*", 1)[0]
            total += sign * (int(lead) if lead.isdigit() else 1)
        sums[int(head[2:])] = total
    return sums
