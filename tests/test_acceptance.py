"""End-to-end acceptance checks with pinned tolerances.

Each test prints one summary line so a `pytest -s` run reads as a
checklist.  Seeds are fixed and documented inline; every expected value
is either a closed form checked against an independent brute-force
enumeration or a frozen value computed by one.
"""

import itertools
import math
import time
from collections import Counter

import corpus
from squareperm import oracle, sampler, series
from squareperm.codec import DecodeMode, DecodeStats, Success, decode, encode
from squareperm.perm import Permutation, is_square, standardize_tuple
from squareperm.permutomino import (
    check_boundary,
    from_colored_permutation,
    to_colored_permutation,
)
from squareperm.polyxy import p_add, p_mul, p_sub, poly
from squareperm.series import CountFamily, count


def report(line):
    print(f"\n{line}")


def fitted_exponent(sizes, values):
    """Least-squares slope of log(value) against log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(v) for v in values]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )


def test_criterion_1_count_tables(monkeypatch):
    # the clock times fresh n! scans, not the oracle's table of squares
    monkeypatch.setattr(oracle, "_SQUARES", {})
    t0 = time.perf_counter()
    for n in range(1, 10):
        assert len(oracle.brute_enumerate(CountFamily.SQUARE, n)) == count(
            CountFamily.SQUARE, n
        )
    assert count(CountFamily.SQUARE, 5) == 104
    assert count(CountFamily.SQUARE, 6) == 464
    boundary = [len(oracle.enumerate_permutominoes(n)) for n in range(2, 6)]
    assert boundary == [1, 4, 18, 84]
    assert boundary == [count(CountFamily.CONVEX_PERMUTOMINO, n) for n in range(2, 6)]
    for n in range(2, 10):
        assert len(oracle.brute_enumerate(CountFamily.FULLY_INDEC, n)) == count(
            CountFamily.FULLY_INDEC, n
        )
    assert [count(CountFamily.FULLY_INDEC, n) for n in (2, 3, 4)] == [0, 0, 2]
    marked = series.marked_word_series(12)
    for n in range(2, 13):
        closed = count(CountFamily.MARKED_WORDS, n)
        assert closed == (n + 2) * 4 ** n // 32
        assert closed == sum(marked[n].values())
    for n in range(2, 9):
        assert sum(1 for _ in oracle.iter_marked_words(n)) == count(
            CountFamily.MARKED_WORDS, n
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"count tables took {elapsed:.1f}s"
    report(f"criterion 1 PASS: count tables exact, brute-checked ({elapsed:.1f}s)")


def test_criterion_2_bijection_audits():
    t0 = time.perf_counter()
    censuses = {}
    for mode in DecodeMode:
        top = 7 if mode is DecodeMode.PERMUTOMINO else 8
        for n in range(2, top + 1):
            rep = oracle.bijection_audit(mode, n)
            assert rep.ok, (mode.value, n, rep.violations[:3])
            assert rep.internal_contradictions == 0
            assert rep.roundtrip_failures == 0
            censuses[(mode, n)] = rep
    for n in (3, 4):
        rep = censuses[(DecodeMode.SQUARE, n)]
        by_kind = Counter()
        for (kind, _, _), c in rep.failure_counts.items():
            by_kind[kind] += c
        if n == 3:
            assert rep.success_count == 6 and by_kind == {"SW": 2, "NW": 2}
        else:
            assert rep.success_count == 24 and by_kind == {"SW": 12, "NW": 12}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"audits took {elapsed:.1f}s"
    report(
        "criterion 2 PASS: full marked-word partitions, round-trips and "
        f"failure classes for all modes ({elapsed:.1f}s)"
    )


def _nw_failure_with_plus_xy(order):
    """The rejected denominator xyN / ((1 - xyN)(1 + (x + y + xy)N)),
    whose x=y=1 specialization is wrong from t^3 on."""
    nar = series.narayana_series(order)
    one = series.BivariateSeries(order, (poly((1, 0, 0)),) + ({},) * order)

    def times(p):
        return series.BivariateSeries(order, tuple(p_mul(c, p) for c in nar.coeffs))

    def combine(op, a, b):
        return series.BivariateSeries(order, tuple(map(op, a.coeffs, b.coeffs)))

    num = times(poly((1, 1, 1)))
    mixed = times(poly((1, 1, 0), (1, 0, 1), (1, 1, 1)))
    den = combine(p_sub, one, num) * combine(p_add, one, mixed)
    return num * series.reciprocal(den)


def test_criterion_3_refined_series():
    sq = series.square_refined_series(8)
    for n in range(2, 9):
        hist = oracle.brute_refined_histogram(CountFamily.SQUARE, n)
        assert sq[n] == hist, f"refined mismatch at t^{n}"
    # frozen histogram of the six size-3 permutations: three of them
    # (123, 231, 321) have all points upper and left
    assert sq[3] == poly((3, 3, 3), (1, 3, 2), (1, 2, 3), (1, 2, 2))
    assert sum(sq[3].values()) == count(CountFamily.SQUARE, 3)
    nw = series.nw_failure_series(12)
    for n in range(1, 13):
        assert sum(nw[n].values()) == math.comb(2 * n - 2, n - 1)
    rejected = _nw_failure_with_plus_xy(3)
    assert sum(rejected[3].values()) == 4  # not the required 6: rejected
    assert corpus.narayana_reciprocity_check(10)
    report(
        "criterion 3 PASS: refined square series equals brute histograms "
        "(n <= 8), adopted denominator specializes to central binomials, "
        "rejected variant fails, reciprocity holds"
    )


def test_criterion_4_permutomino_layer():
    for n in range(2, 6):
        direct = corpus.walked_permutominoes(n)
        assert len(direct) == count(CountFamily.CONVEX_PERMUTOMINO, n)
        images = set()
        for p in direct:
            cp = to_colored_permutation(p)
            images.add(cp)
            assert from_colored_permutation(cp) == p
        assert len(images) == len(direct)
        assert images == set(corpus.convex_members(n))
    for cp in corpus.convex_members(5):
        assert to_colored_permutation(from_colored_permutation(cp)) == cp
    directed = [
        len(oracle.brute_enumerate(CountFamily.DIRECTED_PERMUTOMINO, n))
        for n in (2, 3, 4)
    ]
    parallelogram = [
        len(oracle.brute_enumerate(CountFamily.PARALLELOGRAM_PERMUTOMINO, n))
        for n in (2, 3, 4)
    ]
    assert directed == [1, 3, 10]
    assert parallelogram == [1, 2, 5]
    report(
        "criterion 4 PASS: boundary enumeration and the colored-permutation "
        "bijection are mutually inverse (n <= 5); directed 1,3,10 and "
        "parallelogram 1,2,5"
    )


def test_criterion_5_sampling_exactness():
    # seed 5: chi-square over the 104 squares of size 5, 1.04e6 draws
    rng = sampler.RngStream(5)
    draws = 1_040_000
    counts = Counter()
    for _ in range(draws):
        counts[sampler.sample_object(CountFamily.SQUARE, 5, rng).perm.values] += 1
    assert len(counts) == 104
    expected = draws / 104
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert chi2 < 170, f"chi-square {chi2:.1f} over 103 dof"

    # seed 11: chi-square over the 10 marked words of length 3, 1e5 draws
    rng = sampler.RngStream(11)
    word_counts = Counter()
    for _ in range(100_000):
        w = sampler.sample_marked_word(3, rng)
        word_counts[(w.letters, w.mark)] += 1
    assert len(word_counts) == 10
    expected = 100_000 / 10
    chi2_words = sum(
        (obs - expected) ** 2 / expected for obs in word_counts.values()
    )
    assert chi2_words < 30, f"chi-square {chi2_words:.1f} over 9 dof"

    # seed 23: acceptance rate at n=20 within 3 sigma of the exact ratio
    p = count(CountFamily.SQUARE, 20) / count(CountFamily.MARKED_WORDS, 20)
    assert abs(p - 0.5678) < 0.0005
    rng = sampler.RngStream(23)
    trials = 40_000
    ok = sum(
        1
        for _ in range(trials)
        if isinstance(decode(sampler.sample_marked_word(20, rng)), Success)
    )
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(ok / trials - p) < 3 * sigma, f"rate {ok / trials:.4f} vs {p:.4f}"
    for n in range(20, 201):
        assert 2 * count(CountFamily.SQUARE, n) >= count(CountFamily.MARKED_WORDS, n)

    # determinism: same seed, byte-identical JSON
    import json

    def batch():
        items = [
            sampler.sample_object(CountFamily.SQUARE, 12, sampler.substream(7, i))
            for i in range(20)
        ]
        return json.dumps(
            {"items": [",".join(map(str, cp.perm.values)) for cp in items]}
        ).encode()

    assert batch() == batch()
    report(
        f"criterion 5 PASS: chi-square {chi2:.1f} < 170 (103 dof, 1.04e6 draws), "
        f"{chi2_words:.1f} < 30 (9 dof), acceptance rate {ok / trials:.4f} within "
        f"3 sigma of {p:.4f}, byte-identical reruns"
    )


def test_criterion_6_grid_configurations():
    assert sampler.exact_generic_count(5, 5, 3) == 600
    assert oracle.brute_generic_grid_count(5, 5, 3) == 600
    assert sampler.exact_generic_polygon_count(4, 4, 2) == 36
    assert oracle.brute_generic_grid_count(4, 4, 2, polygon=True) == 36
    for i in range(10):
        cfg = sampler.sample_exterior_config(60, 45, 8, sampler.substream(31, i))
        xs, ys = zip(*cfg.points)
        assert len(set(xs)) == len(set(ys)) == 8
        assert all(0 <= x < 60 and 0 <= y < 45 for x, y in cfg.points)
        assert is_square(standardize_tuple([y for _, y in sorted(cfg.points)]))
        poly_ = sampler.sample_convex_polygon(60, 45, 8, sampler.substream(32, i))
        assert all(0 <= x < 60 and 0 <= y < 45 for x, y in poly_.turnpoints)
        check_boundary(poly_.turnpoints, reduced=False)
        assert poly_.size == 8
    report(
        "criterion 6 PASS: generic census 600 and 36 match both routes; "
        "sampled configurations and polygons validate"
    )


def test_criterion_7_linear_time():
    t0 = time.perf_counter()
    cp = sampler.sample_object(CountFamily.SQUARE, 10**5, sampler.RngStream(3))
    t_small = time.perf_counter() - t0
    assert cp.perm.size == 10**5
    assert t_small < 1.0, f"n=1e5 took {t_small:.2f}s"
    t0 = time.perf_counter()
    cp = sampler.sample_object(CountFamily.SQUARE, 10**6, sampler.RngStream(3))
    t_big = time.perf_counter() - t0
    assert t_big < 15.0, f"n=1e6 took {t_big:.2f}s"

    sizes = (1_000, 10_000, 100_000)
    averages = []
    for n in sizes:
        stats = DecodeStats()
        for i in range(3):
            sampler.sample_object(CountFamily.SQUARE, n, sampler.substream(9, i), stats=stats)
        averages.append(stats.row_advances / 3)
        assert stats.row_advances / 3 <= 8 * n
    slope = fitted_exponent(sizes, averages)
    assert slope <= 1.1, f"fitted exponent {slope:.3f}"
    report(
        f"criterion 7 PASS: one sample {t_small:.2f}s at n=1e5 and {t_big:.2f}s "
        f"at n=1e6; decode work exponent {slope:.3f} <= 1.1"
    )


def test_criterion_7_decode_work_is_linear_in_every_family():
    # each of decode's four pointers moves at most the length of its row
    # list, and the two lists hold n + 2 rows: one decode makes at most
    # 2(n + 2) row advances, whichever word it is given
    for family in sampler.FAMILY_MODES:
        for n in (1_000, 10_000, 100_000):
            stats = DecodeStats()
            for i in range(3):
                sampler.sample_object(family, n, sampler.substream(9, i), stats=stats)
            assert stats.attempts >= 3
            bound = stats.attempts * 2 * (n + 2)
            assert stats.row_advances <= bound, (family, n, stats)
    report("criterion 7 PASS: row advances <= attempts * 2(n + 2) in all three families")


#: (size, objects per family) of the attempts gate; each family draws
#: from ``substream(12, i)``
ATTEMPT_SAMPLES = ((1_000, 1_000), (10_000, 150))


def test_criterion_7_attempts_per_object_match_the_acceptance_ratio():
    # attempts per object are geometric with mean r = M_n / F_n and
    # variance r(r - 1); the mean over k objects must lie within five of
    # its standard deviations of r.  At 10^3 (r about 1.077) that band
    # excludes 1, a sampler that never rejects; at 10^4 (r about 1.023)
    # it excludes a mean above 1.09
    lines = []
    for n, k in ATTEMPT_SAMPLES:
        marked = count(CountFamily.MARKED_WORDS, n)
        for family in sampler.FAMILY_MODES:
            r = marked / count(family, n)
            stats = DecodeStats()
            for i in range(k):
                sampler.sample_object(family, n, sampler.substream(12, i), stats=stats)
            mean = stats.attempts / k
            bound = 5 * math.sqrt(r * (r - 1) / k)
            assert abs(mean - r) <= bound, (family, n, mean, r, bound)
            lines.append(f"{family.value} n={n}: {mean:.4f} vs {r:.4f} +- {bound:.4f}")
    report("criterion 7 PASS: attempts per object; " + "; ".join(lines))


def test_criterion_7_permutomino_linear_time():
    t0 = time.perf_counter()
    p = sampler.sample_object(
        CountFamily.CONVEX_PERMUTOMINO, 10**4, sampler.RngStream(3)
    )
    t_one = time.perf_counter() - t0
    assert p.size == 10**4
    assert t_one < 2.0, f"permutomino n=1e4 took {t_one:.2f}s"

    # best of three timings of the same seeded draw at each size; a
    # quadratic boundary check fits an exponent near 2
    sizes = (2_000, 8_000, 32_000)
    best = []
    for n in sizes:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, n, sampler.RngStream(5))
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    slope = fitted_exponent(sizes, best)
    assert slope <= 1.4, f"fitted time exponent {slope:.3f}"
    report(
        f"criterion 7 (permutomino) PASS: one sample {t_one:.2f}s at n=1e4; "
        f"time exponent {slope:.3f} <= 1.4"
    )


def test_criterion_7_encode_linear_time():
    # best of three timings of encode on the same seeded square at each
    # size; a quadratic encoder fits an exponent near 2
    sizes = (2_000, 8_000, 32_000)
    best = []
    for n in sizes:
        cp = sampler.sample_object(CountFamily.SQUARE, n, sampler.RngStream(5))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            encode(cp)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    slope = fitted_exponent(sizes, best)
    assert slope <= 1.4, f"fitted time exponent {slope:.3f}"
    report(f"criterion 7 (encode) PASS: time exponent {slope:.3f} <= 1.4")


def test_criterion_7_getrandbits_linear_time():
    # best of three timings of the same seeded draw at each width; a
    # quadratic assembly of the words fits an exponent near 2
    widths = (2**15, 2**17, 2**19)
    best = []
    for k in widths:
        times = []
        for _ in range(3):
            rng = sampler.RngStream(5)
            t0 = time.perf_counter()
            rng.getrandbits(k)
            times.append(time.perf_counter() - t0)
        best.append(min(times))
    slope = fitted_exponent(widths, best)
    assert slope <= 1.4, f"fitted time exponent {slope:.3f}"
    report(f"criterion 7 (getrandbits) PASS: time exponent {slope:.3f} <= 1.4")


def test_supplementary_pattern_equivalence_n8():
    # square <=> avoiding the sixteen length-5 patterns, exhaustively to n=8
    t0 = time.perf_counter()
    for n in range(5, 9):
        for values in itertools.permutations(range(1, n + 1)):
            square = is_square(Permutation(values))
            hit = any(
                standardize_tuple(sub) in corpus.SQUARE_PATTERNS
                for sub in itertools.combinations(values, 5)
            )
            assert square == (not hit), values
    elapsed = time.perf_counter() - t0
    report(
        f"supplementary PASS: square <=> sixteen-pattern avoidance, "
        f"exhaustive n <= 8 ({elapsed:.1f}s)"
    )
