import time
from math import comb

import pytest

import corpus
from squareperm import oracle, sampler
from squareperm.oracle import refined_series_by_enumeration
from squareperm.polyxy import (
    format_poly,
    p_add,
    p_addmul,
    p_mul,
    p_scale,
    p_sub,
    poly,
)
from squareperm.series import (
    FIRST_SIZE,
    BivariateSeries,
    CountFamily,
    central_binomial,
    DomainError,
    count,
    free_word_series,
    marked_word_series,
    narayana_series,
    nw_failure_series,
    reciprocal,
    series_lines,
    series_to_json,
    square_refined_series,
    sw_failure_series,
)


def _is_symmetric(a) -> bool:
    return all(a.get((j, i)) == c for (i, j), c in a.items())


def _values_at_ones(s: BivariateSeries) -> list[int]:
    return [sum(c.values()) for c in s.coeffs]


def test_count_tables():
    assert [count(CountFamily.SQUARE, n) for n in range(1, 7)] == [1, 2, 6, 24, 104, 464]
    assert [count(CountFamily.CONVEX_PERMUTOMINO, n) for n in range(2, 7)] == [1, 4, 18, 84, 394]
    assert [count(CountFamily.FULLY_INDEC, n) for n in range(1, 5)] == [1, 0, 0, 2]
    assert count(CountFamily.MARKED_WORDS, 3) == 10
    assert count(CountFamily.TRIANGULAR, 4) == 20
    assert [count(CountFamily.DIRECTED_PERMUTOMINO, n) for n in (2, 3, 4)] == [1, 3, 10]
    assert [count(CountFamily.PARALLELOGRAM_PERMUTOMINO, n) for n in (2, 3, 4)] == [1, 2, 5]
    assert [count(CountFamily.PARALLEL, n) for n in range(1, 6)] == [1, 2, 5, 14, 42]


def test_count_domain_errors():
    with pytest.raises(DomainError):
        count(CountFamily.SQUARE, 0)
    with pytest.raises(DomainError):
        count(CountFamily.MARKED_WORDS, 1)
    with pytest.raises(DomainError):
        count(CountFamily.CONVEX_PERMUTOMINO, 1)


#: the first size of every family
FIRST_SIZES = {
    CountFamily.SQUARE: 1,
    CountFamily.TRIANGULAR: 1,
    CountFamily.PARALLEL: 1,
    CountFamily.FULLY_INDEC: 1,
    CountFamily.MARKED_WORDS: 2,
    CountFamily.CONVEX_PERMUTOMINO: 2,
    CountFamily.DIRECTED_PERMUTOMINO: 2,
    CountFamily.PARALLELOGRAM_PERMUTOMINO: 2,
}

#: the sampler, grid and oracle calls, as functions of the size, that must
#: refuse the size below their family's first
SIZED_CALLS = {
    CountFamily.SQUARE: [
        lambda n: sampler.sample_object(CountFamily.SQUARE, n, sampler.RngStream(0)),
        lambda n: sampler.exact_generic_count(5, 5, n),
        lambda n: sampler.sample_exterior_config(5, 5, n, sampler.RngStream(0)),
    ],
    CountFamily.FULLY_INDEC: [
        lambda n: sampler.sample_object(CountFamily.FULLY_INDEC, n, sampler.RngStream(0)),
    ],
    CountFamily.MARKED_WORDS: [
        lambda n: sampler.sample_marked_word(n, sampler.RngStream(0)),
        oracle.iter_marked_words,  # raises at the call, not at the first word
    ],
    CountFamily.CONVEX_PERMUTOMINO: [
        lambda n: sampler.sample_object(
            CountFamily.CONVEX_PERMUTOMINO, n, sampler.RngStream(0)
        ),
        lambda n: sampler.exact_generic_polygon_count(5, 5, n),
        lambda n: sampler.sample_convex_polygon(5, 5, n, sampler.RngStream(0)),
        oracle.enumerate_permutominoes,
    ],
}


@pytest.mark.parametrize("family", list(CountFamily), ids=lambda f: f.value)
def test_first_size_of_every_family(family):
    first = FIRST_SIZES[family]
    assert FIRST_SIZE[family] == first
    with pytest.raises(DomainError):
        count(family, first - 1)
    assert count(family, first) >= 1
    assert len(oracle.brute_enumerate(family, first)) == count(family, first)
    calls = SIZED_CALLS.get(family, []) + [lambda n: oracle.brute_enumerate(family, n)]
    for call in calls:
        with pytest.raises(DomainError):
            call(first - 1)
    if family in (CountFamily.CONVEX_PERMUTOMINO, CountFamily.FULLY_INDEC):
        s = refined_series_by_enumeration(family, first)
        assert s[first - 1] == {} and s[first] != {}


def test_narayana_series():
    nar = narayana_series(6)
    assert nar[1] == poly((1, 0, 0))
    assert nar[3] == poly((1, 2, 0), (3, 1, 1), (1, 0, 2))
    assert _values_at_ones(nar)[1:6] == [1, 2, 5, 14, 42]
    for n in range(1, 7):
        assert _is_symmetric(nar[n])


def test_free_and_marked_word_series():
    w = free_word_series(4)
    step = poly((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))  # (1+x)(1+y)
    assert w[2] == p_mul(step, step)
    m = marked_word_series(12)
    assert m[2] == poly((2, 2, 2))
    for n in range(2, 13):
        assert sum(m[n].values()) == count(CountFamily.MARKED_WORDS, n)


def test_failure_series_specialize_to_central_binomials():
    from math import comb

    nw = nw_failure_series(12)
    sw = sw_failure_series(12)
    for n in range(1, 13):
        assert sum(nw[n].values()) == comb(2 * n - 2, n - 1)
        assert sum(sw[n].values()) == comb(2 * n - 2, n - 1)
    assert nw[1] == poly((1, 1, 1))
    assert nw[2] == poly((2, 2, 2))


def _series_of(order, *coeffs):
    return BivariateSeries(order, coeffs + ({},) * (order + 1 - len(coeffs)))


def test_rejected_denominator_variant_fails():
    # xyN / ((1 - xyN)(1 + (x + y + xy)N)): the sign of xy flipped
    order = 4
    nar = narayana_series(order)
    one = _series_of(order, poly((1, 0, 0)))
    num = BivariateSeries(order, tuple(p_mul(c, poly((1, 1, 1))) for c in nar.coeffs))
    plus = poly((1, 1, 0), (1, 0, 1), (1, 1, 1))
    mixed = BivariateSeries(order, tuple(p_mul(c, plus) for c in nar.coeffs))
    one_minus_num = BivariateSeries(order, tuple(map(p_sub, one.coeffs, num.coeffs)))
    one_plus_mixed = BivariateSeries(order, tuple(map(p_add, one.coeffs, mixed.coeffs)))
    bad = num * reciprocal(one_minus_num * one_plus_mixed)
    assert sum(bad[3].values()) == 4  # the correct value is C(4,2) = 6


def test_reciprocal_inverts_one_minus_step():
    order = 8
    step = poly((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))  # (1+x)(1+y)
    denom = _series_of(order, poly((1, 0, 0)), p_scale(step, -1))
    words = reciprocal(denom)
    assert words.coeffs == free_word_series(order).coeffs
    # 1 - xyN has a term at every order, so every step of the loop is used
    minus_xy_n = [p_mul(c, poly((-1, 1, 1))) for c in narayana_series(12).coeffs]
    dense = _series_of(12, poly((1, 0, 0)), *minus_xy_n[1:])
    for d in (denom, dense):
        one = _series_of(d.order, poly((1, 0, 0)))
        assert (reciprocal(d) * d).coeffs == one.coeffs
    with pytest.raises(ValueError):
        reciprocal(_series_of(order, poly((2, 0, 0))))


def test_square_refined_series():
    sq = square_refined_series(8)
    assert sq[2] == poly((2, 2, 2))
    assert sq[3] == poly((3, 3, 3), (1, 3, 2), (1, 2, 3), (1, 2, 2))
    for n in range(2, 9):
        assert sum(sq[n].values()) == count(CountFamily.SQUARE, n)
        assert _is_symmetric(sq[n])


def test_refined_series_match_brute_histograms():
    from squareperm.oracle import brute_refined_histogram

    sq = square_refined_series(6)
    for n in range(2, 7):
        assert sq[n] == brute_refined_histogram(CountFamily.SQUARE, n)


def test_enumeration_backed_series():
    cp = refined_series_by_enumeration(CountFamily.CONVEX_PERMUTOMINO, 6)
    assert cp[2] == poly((1, 1, 1))
    assert sum(cp[4].values()) == 18
    for n in range(2, 7):
        assert sum(cp[n].values()) == count(CountFamily.CONVEX_PERMUTOMINO, n)
    fi = refined_series_by_enumeration(CountFamily.FULLY_INDEC, 6)
    for n in range(1, 7):
        assert sum(fi[n].values()) == count(CountFamily.FULLY_INDEC, n)


def test_narayana_reciprocity():
    assert corpus.narayana_reciprocity_check(1)
    assert corpus.narayana_reciprocity_check(10)
    # negative control: the same comparison against -xyN must fail
    nar = narayana_series(3)
    assert all(
        {(n - j, n - i): c for (i, j), c in nar[n].items()}
        != {(i + 1, j + 1): -c for (i, j), c in nar[n].items()}
        for n in range(1, 4)
    )


def test_difference_structure_matches_failure_census():
    # the words that encode nothing split by prefix length k with
    # 2 * T_k * 4^(n-k-2) words per failure kind
    from math import comb

    for n in range(3, 9):
        diff = count(CountFamily.MARKED_WORDS, n) - count(CountFamily.SQUARE, n)
        total = sum(
            4 * comb(2 * k - 2, k - 1) * 4 ** (n - k - 2) for k in range(1, n - 1)
        )
        assert diff == total


def test_truncation_stability():
    small = square_refined_series(5)
    large = square_refined_series(9)
    for n in range(6):
        assert small[n] == large[n]
    a = narayana_series(4)
    b = narayana_series(8)
    for n in range(5):
        assert a[n] == b[n]


def test_series_formatting_and_json():
    sq = square_refined_series(3)
    lines = series_lines(sq)
    assert lines[3] == "t^3: 3*x^3*y^3 + x^3*y^2 + x^2*y^3 + x^2*y^2"
    data = series_to_json(sq)
    assert data["order"] == 3
    assert data["coefficients"]["2"] == {"2,2": 2}
    assert format_poly({}) == "0"
    assert format_poly({(0, 0): -3, (1, 1): 1}) == "x*y - 3"


def test_polynomial_products_are_exact_with_no_zero_coefficients():
    assert p_mul({(0, 0): 0}, {(0, 0): 1}) == {}
    assert p_mul({(0, 0): 0, (1, 0): 2}, {(0, 1): 3}) == {(1, 1): 6}
    # (1 + x)(1 - x) = 1 - x^2: the x terms cancel
    assert p_mul(poly((1, 0, 0), (1, 1, 0)), poly((1, 0, 0), (-1, 1, 0))) == poly(
        (1, 0, 0), (-1, 2, 0)
    )
    # x^2 - 1 plus (1 + x)(1 - x) cancels to the zero polynomial, in place
    acc = poly((1, 2, 0), (-1, 0, 0))
    out = p_addmul(acc, poly((1, 0, 0), (1, 1, 0)), poly((1, 0, 0), (-1, 1, 0)))
    assert out is acc and acc == {}
    # a partial cancellation keeps the surviving terms and drops the rest
    acc = poly((1, 1, 1), (5, 0, 0))
    p_addmul(acc, poly((1, 0, 1)), poly((-1, 1, 0), (2, 3, 3)))
    assert acc == poly((5, 0, 0), (2, 3, 4))


def test_bivariate_series_guard():
    with pytest.raises(ValueError):
        BivariateSeries(2, ({},))
    with pytest.raises(ValueError, match="order must be at least 0"):
        BivariateSeries(-1, ())


def test_central_binomial_matches_math_comb():
    for m in range(3001):
        assert central_binomial(m) == comb(2 * m, m), m
    for m in (30000, 65535, 65536):
        assert central_binomial(m) == comb(2 * m, m), m
    with pytest.raises(ValueError):
        central_binomial(-1)


def _count_by_math_comb(family: CountFamily, n: int) -> int:
    """The closed forms as they were written with ``math.comb``."""
    if family is CountFamily.SQUARE:
        if n <= 2:
            return (1, 2)[n - 1]
        return (n + 2) * 2 ** (2 * n - 5) - 4 * (2 * n - 5) * comb(2 * n - 6, n - 3)
    if family is CountFamily.TRIANGULAR:
        return comb(2 * n - 2, n - 1)
    if family is CountFamily.PARALLEL:
        return comb(2 * n, n) // (n + 1)
    if family is CountFamily.FULLY_INDEC:
        if n <= 2:
            return (1, 0)[n - 1]
        return n * 2 ** (2 * n - 5) - (2 * n - 3) * comb(2 * n - 4, n - 2)
    if family is CountFamily.MARKED_WORDS:
        return 2 if n == 2 else (n + 2) * 2 ** (2 * n - 5)
    if family is CountFamily.CONVEX_PERMUTOMINO:
        if n == 2:
            return 1
        return (n + 2) * 2 ** (2 * n - 5) - (2 * n - 3) * comb(2 * n - 4, n - 2)
    if family is CountFamily.DIRECTED_PERMUTOMINO:
        return comb(2 * n - 2, n - 1) // 2
    if family is CountFamily.PARALLELOGRAM_PERMUTOMINO:
        return comb(2 * n - 2, n - 1) // n
    raise AssertionError(family)


def test_count_matches_math_comb_formulas():
    for family in CountFamily:
        first = 2 if family.value.endswith(("words", "permutomino")) else 1
        for n in range(first, 1501):
            assert count(family, n) == _count_by_math_comb(family, n), (family, n)


def test_count_square_at_a_million_is_fast():
    start = time.perf_counter()
    value = count(CountFamily.SQUARE, 10**6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"count(SQUARE, 10**6) took {elapsed:.2f} s"
    # the closed form modulo a prime, with C(2m, m) from factorials mod P
    P, n, m = (1 << 61) - 1, 10**6, 10**6 - 3
    fact = 1
    for k in range(1, m + 1):
        fact = fact * k % P
    half = fact
    for k in range(m + 1, 2 * m + 1):
        fact = fact * k % P
    binom = fact * pow(half * half % P, -1, P) % P
    want = (n + 2) * pow(2, 2 * n - 5, P) - 4 * (2 * n - 5) * binom
    assert value % P == want % P
