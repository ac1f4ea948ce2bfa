"""Exact counting: closed-form counters and truncated bivariate series.

Series are truncated in t; the t^n coefficient is an integer polynomial
in x and y.  For the square-permutation family, x marks upper points and
y marks left points; marked words weigh U and X letters by x and L and Y
letters by y.  All arithmetic is exact.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from math import comb, isqrt
from .polyxy import (
    Poly,
    format_poly,
    p_add,
    p_addmul,
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

    __hash__ = object.__hash__  # members are singletons, equal only to themselves


#: the first size of each family; below it ``count``, the samplers, the grid
#: functions and the oracles raise DomainError
FIRST_SIZE = {
    CountFamily.SQUARE: 1,
    CountFamily.TRIANGULAR: 1,
    CountFamily.PARALLEL: 1,
    CountFamily.FULLY_INDEC: 1,
    CountFamily.MARKED_WORDS: 2,
    CountFamily.CONVEX_PERMUTOMINO: 2,
    CountFamily.DIRECTED_PERMUTOMINO: 2,
    CountFamily.PARALLELOGRAM_PERMUTOMINO: 2,
}


def check_size(family: CountFamily, n: int) -> None:
    """DomainError if n is below the first size of ``family``."""
    least = FIRST_SIZE.get(family)
    if least is None:
        raise ValueError(f"unknown family {family!r}")
    if n < least:
        raise DomainError(f"{family.value} starts at size {least}")


def _odd_primes_upto(n: int) -> list[int]:
    """The odd primes p <= n, by a sieve built for this call in which index
    i stands for 2i + 1; an odd prime p strikes its odd multiples from p^2,
    at index p^2 // 2, with step p."""
    size = (n + 1) // 2
    sieve = bytearray([1]) * size
    sieve[:1] = b"\0"
    for i in range(1, (isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, size, p)))
    return list(compress(range(1, n + 1, 2), sieve))


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
    floor(2m/p^i) mod 2.  For p = 2 that sum counts the one bits of m.
    An odd prime p <= sqrt(2m) sums its terms in a loop; a larger one has
    the single term floor(2m/p) mod 2, so it divides C(2m, m) at most once
    and one pass over those primes picks the ones that do.
    """
    if m < 0:
        raise ValueError(f"central binomial needs m >= 0, got {m}")
    n = 2 * m
    primes = _odd_primes_upto(n)
    small = bisect_right(primes, isqrt(n))
    factors = []
    for p in primes[:small]:
        e, q = 0, p
        while q <= n:
            e += (n // q) & 1
            q *= p
        if e:
            factors.append(p**e)
    factors += [p for p in islice(primes, small, None) if (n // p) & 1]
    del primes  # free the unused primes before the product tree grows
    return _product(factors) << m.bit_count()


def catalan(n: int) -> int:
    return central_binomial(n) // (n + 1)


def count(family: CountFamily, n: int) -> int:
    """Exact number of size-n members of ``family`` (arbitrary precision)."""
    check_size(family, n)
    if family is CountFamily.SQUARE:
        if n <= 2:
            return (1, 2)[n - 1]
        return (n + 2) * 2 ** (2 * n - 5) - 4 * (2 * n - 5) * central_binomial(n - 3)
    if family is CountFamily.TRIANGULAR:
        return central_binomial(n - 1)
    if family is CountFamily.PARALLEL:
        return catalan(n)
    if family is CountFamily.FULLY_INDEC:
        if n == 1:
            return 1
        if n == 2:
            return 0
        return n * 2 ** (2 * n - 5) - (2 * n - 3) * central_binomial(n - 2)
    if family is CountFamily.MARKED_WORDS:
        if n == 2:
            return 2
        return (n + 2) * 2 ** (2 * n - 5)
    if family is CountFamily.CONVEX_PERMUTOMINO:
        if n == 2:
            return 1
        return (n + 2) * 2 ** (2 * n - 5) - (2 * n - 3) * central_binomial(n - 2)
    if family is CountFamily.DIRECTED_PERMUTOMINO:
        return central_binomial(n - 1) // 2
    return catalan(n - 1)  # PARALLELOGRAM_PERMUTOMINO


@dataclass(frozen=True)
class BivariateSeries:
    """Power series in t truncated at ``order``; coeffs[n] is the t^n
    coefficient as a polynomial in x and y."""

    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be at least 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")

    def __getitem__(self, n: int) -> Poly:
        return self.coeffs[n]

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
                    p_addmul(out[i + j], ci, cj)
        return BivariateSeries(k, tuple(out))


def reciprocal(s: BivariateSeries) -> BivariateSeries:
    """1/s for a series with constant term 1; exact over the integers.

    s R = 1 is solved term by term, R_0 = 1 and
    R_n = -sum_{k>=1} s_k R_(n-k), skipping the products with a zero factor.
    """
    if s.coeffs[0] != {(0, 0): 1}:
        raise ValueError("reciprocal needs constant term 1")
    out: list[Poly] = [{(0, 0): 1}]
    for n in range(1, s.order + 1):
        acc: Poly = {}
        for k in range(1, n + 1):
            if s.coeffs[k] and out[n - k]:
                p_addmul(acc, s.coeffs[k], out[n - k])
        out.append(p_scale(acc, -1))
    return BivariateSeries(s.order, tuple(out))


def _narayana(
    order: int, a: tuple[int, int], b: tuple[int, int], power: int = 1
) -> BivariateSeries:
    """The series f^power for f = t(1 + A f)(1 + B f), where A and B are
    the monomials with exponent pairs ``a`` and ``b`` (distinct powers of A,
    as in both uses).

    Closed form by Lagrange inversion: [t^n] f^k is
    (k/n) sum_{i+j=n-k} C(n,i) C(n,j) A^i B^j, each term a distinct
    monomial with an integer coefficient.  For k = 1 these are the
    Narayana numbers N(n,i+1) = C(n,i+1) C(n,i) / n.
    """
    (ax, ay), (bx, by) = a, b
    coeffs: list[Poly] = [{}]
    for n in range(1, order + 1):
        m = n - power
        coeffs.append(
            {
                (ax * i + bx * (m - i), ay * i + by * (m - i)): (
                    power * comb(n, i) * comb(n, m - i) // n
                )
                for i in range(m + 1)
            }
        )
    return BivariateSeries(order, tuple(coeffs))


def narayana_series(order: int) -> BivariateSeries:
    """Solution of N = t(1 + xN)(1 + yN); the t^n coefficient is the
    Narayana polynomial sum_k N(n,k) x^(k-1) y^(n-k)."""
    return _narayana(order, (1, 0), (0, 1))


#: c = (1+x)(1+y), the weight of one free letter pair: W = 1/(1 - c t)
_STEP = poly((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))


def _binomials(n: int) -> list[int]:
    """Row n of Pascal's triangle: C(n, i) for 0 <= i <= n."""
    return [comb(n, i) for i in range(n + 1)]


def free_word_series(order: int) -> BivariateSeries:
    """All biwords: 1 / (1 - c t) with c = (1+x)(1+y).  The t^n
    coefficient c^n = (1+x)^n (1+y)^n has C(n,i) C(n,j) at x^i y^j."""
    coeffs: list[Poly] = []
    for n in range(order + 1):
        row = _binomials(n)
        coeffs.append(
            {(i, j): a * b for i, a in enumerate(row) for j, b in enumerate(row)}
        )
    return BivariateSeries(order, tuple(coeffs))


def marked_word_series(order: int) -> BivariateSeries:
    """Marked words, counting U/X letters with x and L/Y letters with y.

    The two endpoint-marked families contribute 2 (txy) W (txy); marking
    an interior L contributes (txy) W (t(1+x)y) W (txy).  With
    c = (1+x)(1+y) the t^n coefficient is therefore 2x^2y^2 at n = 2 and
    2x^2y^2 c^(n-2) + (n-2) x^2y^3 (1+x)^(n-2) (1+y)^(n-3) for n >= 3:
    x^2 (1+x)^(n-2) times y^2 (2 (1+y)^(n-2) + (n-2) y (1+y)^(n-3)), so
    x^(i+2) y^(j+2) has C(n-2,i) (2 C(n-2,j) + (n-2) C(n-3,j-1)).
    """
    coeffs: list[Poly] = [{}, {}]
    for n in range(2, order + 1):
        xs = _binomials(n - 2)
        ys = [2] + [2 * c + (n - 2) * d for c, d in zip(xs[1:], _binomials(n - 3))]
        coeffs.append(
            {(i + 2, j + 2): a * b for i, a in enumerate(xs) for j, b in enumerate(ys)}
        )
    return BivariateSeries(order, tuple(coeffs[: order + 1]))


def _failure_series(
    order: int, a: tuple[int, int], b: tuple[int, int], p: Poly, q: Poly
) -> BivariateSeries:
    """xy N / ((1 - p N)(1 + q N)) for N = ``_narayana(order, a, b)``, in
    closed form: the sum over k >= 1 of xy c_(k-1) N^k, where
    1 / ((1 - p N)(1 + q N)) = sum_k c_k N^k gives c_0 = 1 and
    c_k = p c_(k-1) + (-q)^k.  N^k starts at t^k, so k stops at ``order``.
    Every product xy c_(k-1) [t^n] N^k is added in place into the one
    accumulator of its t^n coefficient.
    """
    minus_q = p_scale(q, -1)
    coeffs: list[Poly] = [{} for _ in range(order + 1)]
    xy_c = xy_minus_q_power = poly((1, 1, 1))  # xy c_0 and xy (-q)^0
    for k in range(1, order + 1):
        nar_k = _narayana(order, a, b, power=k).coeffs
        for n in range(k, order + 1):
            p_addmul(coeffs[n], xy_c, nar_k[n])
        xy_minus_q_power = p_mul(xy_minus_q_power, minus_q)
        xy_c = p_add(p_mul(p, xy_c), xy_minus_q_power)
    return BivariateSeries(order, tuple(coeffs))


def nw_failure_series(order: int) -> BivariateSeries:
    """Correction series for decodes that die confined to the top-left.

    xyN / ((1 - xyN)(1 + (x + y - xy)N)) with N the Narayana series,
    summed in closed form over the powers of N (see ``_failure_series``).
    """
    return _failure_series(
        order,
        (1, 0),
        (0, 1),
        poly((1, 1, 1)),
        poly((1, 1, 0), (1, 0, 1), (-1, 1, 1)),
    )


def sw_failure_series(order: int) -> BivariateSeries:
    """Correction series for decodes that die confined to the bottom-left.

    xy Nt / ((1 - y Nt)(1 + Nt)) with Nt the Narayana series at (xy, 1),
    summed in closed form over the powers of Nt (see ``_failure_series``).
    """
    return _failure_series(order, (1, 1), (0, 0), poly((1, 0, 1)), poly((1, 0, 0)))


def square_refined_series(order: int) -> BivariateSeries:
    """Square permutations by size, upper points (x) and left points (y).

    Marked words minus the two failure languages:
    M - SW . t(1+y) . W . txy - NW . t(x+y) . W . txy,
    computed as M - W . t^2 ((xy + xy^2) SW + (x^2y + xy^2) NW), where
    the product of the tails S with W = 1 / (1 - ct) is R_n = S_n + c R_(n-1).
    """
    sw = sw_failure_series(order)
    nw = nw_failure_series(order)
    p_sw, p_nw = poly((1, 1, 1), (1, 1, 2)), poly((1, 2, 1), (1, 1, 2))
    tails = [{}, {}] + [
        p_addmul(p_mul(p_sw, sw[n]), p_nw, nw[n]) for n in range(order - 1)
    ]
    for n in range(3, order + 1):
        p_addmul(tails[n], _STEP, tails[n - 1])
    marked = marked_word_series(order)
    return BivariateSeries(order, tuple(map(p_sub, marked.coeffs, tails)))


def series_lines(s: BivariateSeries) -> list[str]:
    return [f"t^{n}: {format_poly(s[n])}" for n in range(s.order + 1)]


def series_to_json(s: BivariateSeries) -> dict:
    return {
        "order": s.order,
        "coefficients": {
            str(n): poly_to_json(s[n]) for n in range(s.order + 1) if s[n]
        },
    }
