import hashlib
import itertools
import os
import pathlib
import subprocess
import sys
from collections import Counter
from math import comb

import pytest

import squareperm
from squareperm import cli, sampler
from squareperm.codec import (
    INTERIOR_PAIRS,
    DecodeMode,
    DecodeStats,
    Failure,
    MarkedWord,
    Success,
    decode,
    format_marked_word,
)
from squareperm.oracle import iter_marked_words
from squareperm.perm import (
    ColoredPermutation,
    Permutation,
    format_permutation_text,
    is_square,
    standardize_tuple,
)
from squareperm.permutomino import _from_decoded, check_boundary
from squareperm.sampler import (
    GridConfig,
    RngStream,
    _comb_unrank,
    exact_generic_count,
    exact_generic_polygon_count,
    sample_convex_polygon,
    sample_exterior_config,
    sample_marked_word,
    sample_object,
    substream,
)
from squareperm.series import FIRST_SIZE, CountFamily, DomainError, count


def test_rng_is_deterministic():
    a = RngStream(42)
    b = RngStream(42)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]
    assert RngStream(42).next_u64() != RngStream(43).next_u64()
    assert substream(42, 0).next_u64() != substream(42, 1).next_u64()


_M64 = (1 << 64) - 1


def _ref_mix(z):
    """The SplitMix64 finalizer, as README's determinism contract writes it."""
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class _RefStream:
    """The generator of README's determinism contract, written afresh from
    its text; ``rejected`` counts the draws ``randbelow`` retried."""

    def __init__(self, seed, stream=0):
        self.state = _ref_mix(_ref_mix(seed ^ 0x7C15D2E3A9B96F01) + stream * 0xD2B74407B1CE6E93)
        self.rejected = 0

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        return _ref_mix(self.state)

    def getrandbits(self, k):
        # little-endian: the first output is the least significant 64 bits
        data = b"".join(self.next_u64().to_bytes(8, "little") for _ in range((k + 63) // 64))
        return int.from_bytes(data, "little") & ((1 << k) - 1)

    def randbelow(self, bound):
        if bound == 1:  # one value, nothing drawn
            return 0
        while True:
            value = self.getrandbits(bound.bit_length())
            if value < bound:
                return value
            self.rejected += 1


#: (seed, stream) -> the first eight ``next_u64`` outputs
KNOWN_ANSWERS = {
    (0, 0): (
        0x6755BC014CA458E3, 0x67ACFE0B4ADDC9FC, 0xE9E8DF5280C537ED, 0x2B2519C1D8D674C1,
        0xF2C4841B622DCCC4, 0xB6F86260ABAD112C, 0xBD613ADDB1FF899E, 0x9F4EEA96C8FC50CF,
    ),
    (7, 0): (
        0xD94F9705CB9705DF, 0x0D50C137CE2E3FA4, 0x1017B80FBFCE76DE, 0x47291F82929FC0CD,
        0x20DA9808E5475DE7, 0xEBE2760B1F109D3C, 0x6FD68D5274CE7DD6, 0xE37C0E4B033634F1,
    ),
    (42, 3): (
        0x4F0BEF843F76AF45, 0x87B03AC0569A3831, 0x558AB3F3B8773F69, 0x9C6585AF2E927E77,
        0x4BFB448F597BFBA1, 0x155FAFB5A2D3C044, 0xFB824625F6B54DDB, 0x171BC2C890243460,
    ),
    (2**70, 2**40): (
        0xC2C9D5706A8AF9C0, 0xE0A357EC880CF304, 0x405528C0CFC9E66D, 0x63365F07512348BF,
        0xE81F056FDE4EE30A, 0x8361BA1747FC9FE9, 0xD525B89AAA9C6496, 0xC902801EBEFF8CCA,
    ),
}

RANDBELOW_BOUNDS = (
    1, 2, 3, 100, 224, 1024, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**200 + 1,
    count(CountFamily.MARKED_WORDS, 1000), count(CountFamily.MARKED_WORDS, 10**5),
)
#: odd and even word counts, full and partial top words, up to 31250 words
GETRANDBITS_WIDTHS = (
    0, 1, 63, 64, 65, 128, 129, 192, 193, 200, 255, 256, 257, 4095, 4097, 200_003, 2_000_000,
)


def test_rng_pinned_outputs():
    for (seed, stream), outputs in KNOWN_ANSWERS.items():
        for rng in (RngStream(seed, stream), substream(seed, stream), _RefStream(seed, stream)):
            assert tuple(rng.next_u64() for _ in range(8)) == outputs


@pytest.mark.parametrize("seed, stream", sorted(KNOWN_ANSWERS))
def test_rng_draws_match_the_reference(seed, stream):
    rng, ref = substream(seed, stream), _RefStream(seed, stream)
    for _ in range(4):
        for bound in RANDBELOW_BOUNDS:
            value = rng.randbelow(bound)
            assert 0 <= value < bound
            assert value == ref.randbelow(bound)
            assert rng.next_u64() == ref.next_u64()
        for k in GETRANDBITS_WIDTHS:
            assert rng.getrandbits(k) == ref.getrandbits(k)
            assert rng.next_u64() == ref.next_u64()
    assert ref.rejected > 0  # the retry path ran


def test_long_draw_is_pinned():
    # 31250 words: the sha256 of their little-endian bytes
    value = RngStream(0).getrandbits(2_000_000)
    assert hashlib.sha256(value.to_bytes(250_000, "little")).hexdigest() == (
        "5c87ca18628a63ccffcaabc3b0d8c7c61420916ec072dc948721c54dfdae98f9"
    )


def test_sample_marked_word_small():
    rng = RngStream(1)
    with pytest.raises(DomainError):
        sample_marked_word(1, rng)
    seen = {format_marked_word(sample_marked_word(2, rng)) for _ in range(64)}
    assert seen == {"XY,XY@1", "XY,XY@2"}


def test_sample_marked_word_n3_uniform():
    rng = RngStream(11)
    counts = Counter()
    draws = 100_000
    for _ in range(draws):
        w = sample_marked_word(3, rng)
        counts[format_marked_word(w)] += 1
    assert len(counts) == 10
    expected = draws / 10
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert chi2 < 30  # 9 degrees of freedom


def test_sample_marked_word_n4_covers_all():
    rng = RngStream(3)
    counts = Counter()
    for _ in range(20_000):
        counts[format_marked_word(sample_marked_word(4, rng))] += 1
    assert len(counts) == count(CountFamily.MARKED_WORDS, 4) == 48


def _unrank_by_divmod(idx, n):
    """Marked word number idx by a chain of divmods: 2 * 4^(n-2) words
    marked at an endpoint, then 2 * 4^(n-3) per interior position."""

    def letters(rest, k):
        return [INTERIOR_PAIRS[(rest >> (2 * d)) & 3] for d in range(k)]

    endpoint_block = 2 * 4 ** (n - 2)
    if idx < endpoint_block:
        which_end, rest = divmod(idx, 4 ** (n - 2))
        return (1 if which_end == 0 else n), letters(rest, n - 2)
    offset, rest = divmod(idx - endpoint_block, 2 * 4 ** (n - 3))
    ud, rest = divmod(rest, 4 ** (n - 3))
    others = letters(rest, n - 3)
    return 2 + offset, others[:offset] + ["UL" if ud == 0 else "DL"] + others[offset:]


class _FixedDraw:
    """Stands in for an RngStream whose next randbelow returns ``idx``."""

    def __init__(self, idx):
        self.idx = idx
        self.bound = None

    def randbelow(self, bound):
        self.bound = bound
        return self.idx


def _word_at(idx, n):
    draw = _FixedDraw(idx)
    word = sample_marked_word(n, draw)
    assert draw.bound == count(CountFamily.MARKED_WORDS, n)
    return word


def test_every_index_unranks_as_by_divmod():
    for n in range(2, 8):
        words = set()
        for idx in range(count(CountFamily.MARKED_WORDS, n)):
            word = _word_at(idx, n)
            assert (word.mark, list(word.letters[1:-1])) == _unrank_by_divmod(idx, n)
            assert word == MarkedWord(word.letters, word.mark)
            assert sampler._word_at(n, idx) == word
            words.add(word)
        assert words == set(iter_marked_words(n))


@pytest.mark.parametrize("n", [8, 50, 1000])
def test_block_edges_unrank_as_by_divmod(n):
    shift = 2 * (n - 3)
    for block in range(2 * n + 4):
        for idx in (block << shift, ((block + 1) << shift) - 1):
            word = _word_at(idx, n)
            assert (word.mark, list(word.letters[1:-1])) == _unrank_by_divmod(idx, n)


def test_word_count_is_a_shifted_linear_term():
    for n in range(3, 1001):
        assert (2 * n + 4) << (2 * (n - 3)) == count(CountFamily.MARKED_WORDS, n)


def test_sampler_module_keeps_no_growing_container():
    def sizes():
        return {
            name: len(value)
            for name, value in vars(sampler).items()
            if isinstance(value, (dict, list, set, bytearray))
        }

    before = sizes()
    rng = RngStream(5)
    for n in range(2, 602):
        sample_marked_word(n, rng)
    assert sizes() == before


def test_outcome_tables_pin_decode():
    for mode in DecodeMode:
        for n in range(2, sampler._TABLE_MAX_N + 1):
            table = sampler._outcome_table(mode, n)
            assert len(table) == count(CountFamily.MARKED_WORDS, n)
            for idx, entry in enumerate(table):
                word = sampler._word_at(n, idx)
                stats = DecodeStats()
                outcome = decode(word, mode, stats)
                if isinstance(outcome, Success):
                    obj = outcome.result
                    if mode is DecodeMode.PERMUTOMINO:
                        obj = _from_decoded(obj, word.letters)
                else:
                    assert isinstance(outcome, Failure)
                    obj = None
                assert entry == (obj, stats.row_advances)


def _sample_by_rejection_loop(family, n, rng, stats):
    """``sample_object`` without outcome tables: a word and a ``decode``
    per attempt."""
    if n == 1:
        stats.attempts += 1
        return ColoredPermutation(Permutation((1,)), frozenset())
    mode = sampler.FAMILY_MODES[family]
    while True:
        word = sample_marked_word(n, rng)
        outcome = decode(word, mode, stats)
        stats.attempts += 1
        if isinstance(outcome, Success):
            if family is CountFamily.CONVEX_PERMUTOMINO:
                return _from_decoded(outcome.result, word.letters)
            return outcome.result
        assert isinstance(outcome, Failure)


def test_tabled_sampling_matches_the_rejection_loop():
    for family in sampler.FAMILY_MODES:
        for n in range(FIRST_SIZE[family], sampler._TABLE_MAX_N + 3):
            if family is CountFamily.FULLY_INDEC and n in (2, 3):
                continue
            rng, ref_rng = RngStream(n, 1), RngStream(n, 1)
            for i in range(150):
                # every other call without a record, the tables' other branch
                stats = DecodeStats() if i % 2 else None
                obj = sample_object(family, n, rng, stats)
                ref_stats = DecodeStats()
                assert obj == _sample_by_rejection_loop(family, n, ref_rng, ref_stats)
                if stats is not None:
                    assert stats == ref_stats
                assert rng.next_u64() == ref_rng.next_u64()


def test_outcome_tables_stay_bounded():
    def sample_all():
        rng = RngStream(8)
        for family in sampler.FAMILY_MODES:
            for n in range(FIRST_SIZE[family], 41):
                if family is not CountFamily.FULLY_INDEC or n not in (2, 3):
                    sample_object(family, n, rng)
        return {
            name: len(value)
            for name, value in vars(sampler).items()
            if isinstance(value, (dict, list, set, bytearray))
        }

    sizes = sample_all()
    assert sample_all() == sizes
    tabled = {
        (mode, n) for mode in DecodeMode for n in range(2, sampler._TABLE_MAX_N + 1)
    }
    assert set(sampler._TABLES) <= tabled
    for (mode, n), table in sampler._TABLES.items():
        assert len(table) == count(CountFamily.MARKED_WORDS, n)


def test_sample_object_postconditions():
    from squareperm.perm import is_square, subclass_report

    rng = RngStream(9)
    for n in (1, 2, 5, 12):
        cp = sample_object(CountFamily.SQUARE, n, rng)
        assert is_square(cp.perm) and not cp.colored
    for n in (4, 9):
        cp = sample_object(CountFamily.FULLY_INDEC, n, rng)
        rep = subclass_report(cp.perm)
        assert rep.square and not rep.decomposable and not rep.co_decomposable
    for n in (2, 6, 11):
        p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, rng)
        assert p.size == n
        assert check_boundary(p.turnpoints).size == n


@pytest.mark.parametrize("n", [1000, 10_000])
def test_sampled_permutominoes_are_valid_and_canonical(n):
    from squareperm.permutomino import canonical_cycle, check_boundary

    for seed in range(3):
        p = sample_object(CountFamily.CONVEX_PERMUTOMINO, n, RngStream(seed))
        assert check_boundary(p.turnpoints).size == n
        assert canonical_cycle(p.turnpoints) == p.turnpoints


def test_sample_object_uniform_squares_n4():
    rng = RngStream(17)
    counts = Counter()
    draws = 48_000
    for _ in range(draws):
        counts[sample_object(CountFamily.SQUARE, 4, rng).perm.values] += 1
    assert len(counts) == 24
    expected = draws / 24
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert chi2 < 50  # 23 degrees of freedom


def test_sampling_determinism_across_objects():
    a = [
        format_permutation_text(sample_object(CountFamily.SQUARE, 8, substream(5, i)))
        for i in range(10)
    ]
    b = [
        format_permutation_text(sample_object(CountFamily.SQUARE, 8, substream(5, i)))
        for i in range(10)
    ]
    assert a == b


def test_exact_generic_counts():
    assert exact_generic_count(5, 5, 3) == 600
    assert exact_generic_count(3, 3, 3) == count(CountFamily.SQUARE, 3)
    assert exact_generic_polygon_count(4, 4, 2) == 36
    assert exact_generic_polygon_count(5, 5, 5) == count(CountFamily.CONVEX_PERMUTOMINO, 5)
    with pytest.raises(DomainError):
        exact_generic_count(4, 4, 5)
    with pytest.raises(DomainError):
        exact_generic_polygon_count(4, 4, 1)


def _check_grid_config(cfg: GridConfig) -> None:
    """Distinct columns and rows, every point on the grid, no interior point."""
    n = len(cfg.points)
    if len({x for x, _ in cfg.points}) < n or len({y for _, y in cfg.points}) < n:
        raise ValueError("points share a column or row")
    if not all(0 <= x < cfg.cols and 0 <= y < cfg.rows for x, y in cfg.points):
        raise ValueError("point off the grid")
    if not is_square(standardize_tuple([y for _, y in sorted(cfg.points)])):
        raise ValueError("configuration has an interior point")


def test_grid_samples_validate():
    for i in range(5):
        cfg = sample_exterior_config(40, 30, 6, substream(21, i))
        _check_grid_config(cfg)
        poly = sample_convex_polygon(40, 30, 6, substream(22, i))
        assert all(0 <= x < 40 and 0 <= y < 30 for x, y in poly.turnpoints)
        check_boundary(poly.turnpoints, reduced=False)
        assert poly.size == 6
    with pytest.raises(ValueError):
        _check_grid_config(GridConfig(3, 3, ((0, 0), (0, 1), (1, 2))))


def test_sample_stats_track_attempts():
    stats = DecodeStats()
    sample_object(CountFamily.SQUARE, 30, RngStream(1), stats=stats)
    assert stats.attempts >= 1
    assert stats.row_advances >= 1


class _CountingStream(RngStream):
    """An RngStream that counts its ``randbelow`` calls."""

    calls = 0

    def randbelow(self, bound):
        self.calls += 1
        return super().randbelow(bound)


@pytest.mark.parametrize("n", [5, 8])  # an outcome table, then the word path
@pytest.mark.parametrize("family", list(sampler.FAMILY_MODES), ids=lambda f: f.value)
def test_every_draw_goes_through_randbelow(family, n):
    rng, stats = _CountingStream(n), DecodeStats()
    for _ in range(40):
        sample_object(family, n, rng, stats)
    assert rng.calls == stats.attempts > 40


@pytest.mark.parametrize(
    "family, attempts, row_advances",
    [
        (CountFamily.SQUARE, 41, 1294),
        (CountFamily.FULLY_INDEC, 43, 1356),
        (CountFamily.CONVEX_PERMUTOMINO, 42, 1323),
    ],
)
def test_one_stats_record_gathers_many_samples(family, attempts, row_advances):
    # pinned from the sampler that copied decode's record into its own
    stats = DecodeStats()
    for i in range(20):
        sample_object(family, 30, substream(1, i), stats)
    assert (stats.attempts, stats.row_advances) == (attempts, row_advances)


def _comb_unrank_by_comb(rank, m, k):
    """The rank-th k-subset of 0..m-1, one comb() call per step."""
    out = []
    x = 0
    for i in range(k):
        while comb(m - 1 - x, k - 1 - i) <= rank:
            rank -= comb(m - 1 - x, k - 1 - i)
            x += 1
        out.append(x)
        x += 1
    return out


def test_comb_unrank_matches_comb_reference():
    for m in range(13):
        for k in range(m + 1):
            subsets = [_comb_unrank(r, m, k) for r in range(comb(m, k))]
            assert subsets == [_comb_unrank_by_comb(r, m, k) for r in range(comb(m, k))]
            assert subsets == [list(s) for s in itertools.combinations(range(m), k)]
    with pytest.raises(ValueError):
        _comb_unrank(comb(6, 2), 6, 2)
    with pytest.raises(ValueError):
        _comb_unrank(-1, 6, 2)


def test_empty_fully_indec_sizes_are_usage_errors():
    # child processes, so that a sampler that loops forever fails the test
    # at the timeout instead of hanging the suite
    src = str(pathlib.Path(squareperm.__file__).resolve().parents[1])
    for n in (2, 3):
        done = subprocess.run(
            [sys.executable, "-m", "squareperm.cli", "sample",
             "--family", "fully-indec", "--n", str(n)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error:") and "fully indecomposable" in done.stderr
        with pytest.raises(DomainError):
            sample_object(CountFamily.FULLY_INDEC, n, RngStream(0))
    assert count(CountFamily.FULLY_INDEC, 2) == count(CountFamily.FULLY_INDEC, 3) == 0
    assert all(count(CountFamily.FULLY_INDEC, n) > 0 for n in range(4, 200))


def test_fully_indec_size_one_is_the_one_permutation(capsys):
    for family in (CountFamily.SQUARE, CountFamily.FULLY_INDEC):
        cp = sample_object(family, 1, RngStream(0))
        assert cp.perm.values == (1,) and not cp.colored
    assert count(CountFamily.FULLY_INDEC, 1) == 1
    assert cli.main(["sample", "--family", "fully-indec", "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n" and captured.err == ""


#: sha256 of the stdout of ``squareperm sample --family FAMILY --n 100000
#: --count 1 --seed 0``, as text and with ``--json``.  The seed-0 word
#: decodes in both modes, so the two text lines are the same square.
LARGE_SQUARE_DIGESTS = {
    ("square", False): "4c2f314c098c9ec9ceeb8b8810b66899d812db07c0e39c0f6bb1efc6626fe0be",
    ("square", True): "ef05158408bf318b6141ddb648e6f0b70c34a318f75b1a387d67088666017fec",
    ("fully-indec", False): "4c2f314c098c9ec9ceeb8b8810b66899d812db07c0e39c0f6bb1efc6626fe0be",
    ("fully-indec", True): "28ba741d05f1dc4085e753dd259eddff835d88a43cd52a709955a4098f5d35ad",
}


@pytest.mark.parametrize("family, as_json", sorted(LARGE_SQUARE_DIGESTS))
def test_large_sample_square_output_digest(capsys, family, as_json):
    argv = ["sample", "--family", family, "--n", "100000", "--count", "1", "--seed", "0"]
    assert cli.main(argv + ["--json"] * as_json) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_SQUARE_DIGESTS[family, as_json]
