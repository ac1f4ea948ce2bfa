"""Exact counting: closed-form counters and truncated bivariate series.

Series are truncated in t; the t^n coefficient is an integer polynomial
in x and y.  For the square-permutation family, x marks upper points and
y marks left points; marked words weigh U and X letters by x and L and Y
letters by y.  All arithmetic is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from math import comb, isqrt
from .polyxy import (
    Poly,
    format_poly,
    p_add,
    p_mul,
    p_scale,
    p_sub,
    poly,
    poly_to_json,
)


class DomainError(ValueError):
    """A size or count outside what the request is defined for."""


class BoundExceeded(ValueError):
    """The request is past the exhaustive-enumeration bound."""


class CountFamily(enum.Enum):
    SQUARE = "square"
    TRIANGULAR = "triangular"
    PARALLEL = "parallel"
    FULLY_INDEC = "fully-indec"
    MARKED_WORDS = "marked-words"
    CONVEX_PERMUTOMINO = "convex-permutomino"
    DIRECTED_PERMUTOMINO = "directed-permutomino"
    PARALLELOGRAM_PERMUTOMINO = "parallelogram-permutomino"


def _primes_upto(n: int) -> list[int]:
    """The primes p <= n, by a sieve built for this call."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _product(factors: list[int]) -> int:
    """Product of ``factors``, multiplied pairwise level by level so that
    each big multiplication joins operands of about the same size."""
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def central_binomial(m: int) -> int:
    """C(2m, m) as a product of prime powers, with no big-integer division.

    By Legendre's formula the exponent of a prime p is
    sum_i (floor(2m/p^i) - 2 floor(m/p^i)), and each term is
    floor(2m/p^i) mod 2.
    """
    if m < 0:
        raise ValueError(f"central binomial needs m >= 0, got {m}")
    n = 2 * m
    factors = []
    for p in _primes_upto(n):
        e, q = 0, p
        while q <= n:
            e += (n // q) & 1
            q *= p
        if e:
            factors.append(p**e)
    return _product(factors)


def catalan(n: int) -> int:
    return central_binomial(n) // (n + 1)


def count(family: CountFamily, n: int) -> int:
    """Exact number of size-n members of ``family`` (arbitrary precision)."""
    if family is CountFamily.SQUARE:
        if n < 1:
            raise DomainError("square permutations start at size 1")
        if n <= 2:
            return (1, 2)[n - 1]
        return (n + 2) * 2 ** (2 * n - 5) - 4 * (2 * n - 5) * central_binomial(n - 3)
    if family is CountFamily.TRIANGULAR:
        if n < 1:
            raise DomainError("triangular permutations start at size 1")
        return central_binomial(n - 1)
    if family is CountFamily.PARALLEL:
        if n < 1:
            raise DomainError("parallel permutations start at size 1")
        return catalan(n)
    if family is CountFamily.FULLY_INDEC:
        if n < 1:
            raise DomainError("fully indecomposable squares start at size 1")
        if n == 1:
            return 1
        if n == 2:
            return 0
        return n * 2 ** (2 * n - 5) - (2 * n - 3) * central_binomial(n - 2)
    if family is CountFamily.MARKED_WORDS:
        if n < 2:
            raise DomainError("marked words start at length 2")
        if n == 2:
            return 2
        return (n + 2) * 2 ** (2 * n - 5)
    if family is CountFamily.CONVEX_PERMUTOMINO:
        if n < 2:
            raise DomainError("permutominoes start at size 2")
        if n == 2:
            return 1
        return (n + 2) * 2 ** (2 * n - 5) - (2 * n - 3) * central_binomial(n - 2)
    if family is CountFamily.DIRECTED_PERMUTOMINO:
        if n < 2:
            raise DomainError("permutominoes start at size 2")
        return central_binomial(n - 1) // 2
    if family is CountFamily.PARALLELOGRAM_PERMUTOMINO:
        if n < 2:
            raise DomainError("permutominoes start at size 2")
        return catalan(n - 1)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class BivariateSeries:
    """Power series in t truncated at ``order``; coeffs[n] is the t^n
    coefficient as a polynomial in x and y."""

    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")

    def __getitem__(self, n: int) -> Poly:
        return self.coeffs[n]

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        k = min(self.order, other.order)
        return BivariateSeries(
            k, tuple(p_add(self.coeffs[i], other.coeffs[i]) for i in range(k + 1))
        )

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        k = min(self.order, other.order)
        return BivariateSeries(
            k, tuple(p_sub(self.coeffs[i], other.coeffs[i]) for i in range(k + 1))
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        k = min(self.order, other.order)
        out = [dict() for _ in range(k + 1)]
        for i in range(k + 1):
            ci = self.coeffs[i]
            if not ci:
                continue
            for j in range(k + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] = p_add(out[i + j], p_mul(ci, cj))
        return BivariateSeries(k, tuple(out))

    def scale(self, factor: Poly) -> "BivariateSeries":
        return BivariateSeries(
            self.order, tuple(p_mul(c, factor) for c in self.coeffs)
        )

    def shift_t(self, k: int) -> "BivariateSeries":
        """Multiply by t^k."""
        coeffs = ({},) * k + self.coeffs
        return BivariateSeries(self.order, coeffs[: self.order + 1])

    def values_at_ones(self) -> list[int]:
        return [sum(c.values()) for c in self.coeffs]


def series_const(order: int, p: Poly) -> BivariateSeries:
    return BivariateSeries(order, (dict(p),) + tuple({} for _ in range(order)))


def series_t(order: int, p: Poly) -> BivariateSeries:
    """The series t * p."""
    return series_const(order, p).shift_t(1)


def reciprocal(s: BivariateSeries) -> BivariateSeries:
    """1/s for a series with constant term 1; exact over the integers."""
    if s.coeffs[0] != {(0, 0): 1}:
        raise ValueError("reciprocal needs constant term 1")
    out: list[Poly] = [{(0, 0): 1}]
    for n in range(1, s.order + 1):
        acc: Poly = {}
        for k in range(1, n + 1):
            if s.coeffs[k]:
                acc = p_add(acc, p_mul(s.coeffs[k], out[n - k]))
        out.append(p_scale(acc, -1))
    return BivariateSeries(s.order, tuple(out))


def _narayana(order: int, a: tuple[int, int], b: tuple[int, int]) -> BivariateSeries:
    """The series f = t(1 + A f)(1 + B f), where A and B are the monomials
    with exponent pairs ``a`` and ``b`` (distinct powers of A, as in both
    uses).  Closed form: the t^n coefficient is sum_k N(n,k) A^(k-1) B^(n-k)
    with the Narayana numbers N(n,k) = C(n,k) C(n,k-1) / n."""
    (ax, ay), (bx, by) = a, b
    coeffs: list[Poly] = [{}]
    for n in range(1, order + 1):
        coeffs.append(
            {
                (ax * (k - 1) + bx * (n - k), ay * (k - 1) + by * (n - k)): (
                    comb(n, k) * comb(n, k - 1) // n
                )
                for k in range(1, n + 1)
            }
        )
    return BivariateSeries(order, tuple(coeffs))


def narayana_series(order: int) -> BivariateSeries:
    """Solution of N = t(1 + xN)(1 + yN); the t^n coefficient is the
    Narayana polynomial sum_k N(n,k) x^(k-1) y^(n-k)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return _narayana(order, (1, 0), (0, 1))


def narayana_series_xy_1(order: int) -> BivariateSeries:
    """The same fixed point with first weight xy and second weight 1."""
    return _narayana(order, (1, 1), (0, 0))


def free_word_series(order: int) -> BivariateSeries:
    """All biwords: 1 / (1 - (1+x)(1+y) t)."""
    step = p_mul(poly((1, 0, 0), (1, 1, 0)), poly((1, 0, 0), (1, 0, 1)))
    denom = series_const(order, poly((1, 0, 0))) - series_t(order, step)
    return reciprocal(denom)


def marked_word_series(order: int) -> BivariateSeries:
    """Marked words, counting U/X letters with x and L/Y letters with y.

    The two endpoint-marked families contribute 2 (txy) W (txy); marking
    an interior L contributes (txy) W (t(1+x)y) W (txy).
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    w = free_word_series(order)
    txy = series_t(order, poly((1, 1, 1)))
    mid = series_t(order, p_mul(poly((1, 0, 0), (1, 1, 0)), poly((1, 0, 1))))
    endpoint = (txy * w * txy).scale(poly((2, 0, 0)))
    interior = txy * w * mid * w * txy
    return endpoint + interior


def nw_failure_series(order: int, plus_variant: bool = False) -> BivariateSeries:
    """Correction series for decodes that die confined to the top-left.

    xyN / ((1 - xyN)(1 + (x + y - xy)N)).  ``plus_variant`` flips the sign
    of the xy term in the second factor; it is kept only as a negative
    control (its x=y=1 specialization is wrong from t^3 on).
    """
    nar = narayana_series(order)
    one = series_const(order, poly((1, 0, 0)))
    num = nar.scale(poly((1, 1, 1)))
    sign = 1 if plus_variant else -1
    mixed = nar.scale(poly((1, 1, 0), (1, 0, 1), (sign, 1, 1)))
    den = (one - num) * (one + mixed)
    return num * reciprocal(den)


def sw_failure_series(order: int) -> BivariateSeries:
    """Correction series for decodes that die confined to the bottom-left.

    xy Nt / ((1 - y Nt)(1 + Nt)) with Nt the Narayana series at (xy, 1).
    """
    nar = narayana_series_xy_1(order)
    one = series_const(order, poly((1, 0, 0)))
    num = nar.scale(poly((1, 1, 1)))
    den = (one - nar.scale(poly((1, 0, 1)))) * (one + nar)
    return num * reciprocal(den)


def square_refined_series(order: int) -> BivariateSeries:
    """Square permutations by size, upper points (x) and left points (y).

    Marked words minus the two failure languages:
    M - SW . t(1+y) . W . txy - NW . t(x+y) . W . txy.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    w = free_word_series(order)
    txy = series_t(order, poly((1, 1, 1)))
    m = marked_word_series(order)
    sw_term = (
        sw_failure_series(order)
        * series_t(order, poly((1, 0, 0), (1, 0, 1)))
        * w
        * txy
    )
    nw_term = (
        nw_failure_series(order)
        * series_t(order, poly((1, 1, 0), (1, 0, 1)))
        * w
        * txy
    )
    return m - sw_term - nw_term


def refined_series_by_enumeration(family: CountFamily, order: int) -> BivariateSeries:
    """Refined series whose coefficients come from exhaustive enumeration.

    Supported for CONVEX_PERMUTOMINO (x marks upper sides, y left sides)
    and FULLY_INDEC (upper/left points), up to order 9.
    """
    if family not in (CountFamily.CONVEX_PERMUTOMINO, CountFamily.FULLY_INDEC):
        raise ValueError(f"no enumeration-backed series for {family}")
    if order > 9:
        raise BoundExceeded("enumeration-backed series stop at order 9")
    from . import oracle

    first = 2 if family is CountFamily.CONVEX_PERMUTOMINO else 1
    coeffs: list[Poly] = [{} for _ in range(order + 1)]
    for n in range(first, order + 1):
        coeffs[n] = oracle.brute_refined_histogram(family, n)
    return BivariateSeries(order, tuple(coeffs))


def narayana_reciprocity_check(order: int, flip_sign: bool = False) -> bool:
    """Verify N(txy; 1/y, 1/x) = xy N(t; x, y) on truncations.

    Cleared of denominators, the t^n coefficient of the left side is
    (xy)^n P_n(1/y, 1/x) with P_n the Narayana polynomial, so the check
    is a monomial permutation.  ``flip_sign`` compares against -xyN and
    must return False; it guards the checker itself.
    """
    nar = narayana_series(order)
    for n in range(1, order + 1):
        p = nar[n]
        lhs = {(n - j, n - i): c for (i, j), c in p.items()}
        rhs = {(i + 1, j + 1): (-c if flip_sign else c) for (i, j), c in p.items()}
        if lhs != rhs:
            return False
    return True


def series_lines(s: BivariateSeries) -> list[str]:
    return [f"t^{n}: {format_poly(s[n])}" for n in range(s.order + 1)]


def series_to_json(s: BivariateSeries) -> dict:
    return {
        "order": s.order,
        "coefficients": {
            str(n): poly_to_json(s[n]) for n in range(s.order + 1) if s[n]
        },
    }
