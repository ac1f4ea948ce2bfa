import itertools
from collections import Counter

import pytest

import corpus
from squareperm import codec
from squareperm.codec import (
    BadFrame,
    DecodeMode,
    DecodeStats,
    Failure,
    FailureKind,
    InternalContradiction,
    InvalidMark,
    MarkedWord,
    Success,
    WordSyntaxError,
    decode,
    encode,
    format_marked_word,
    parse_marked_word,
)
from squareperm.oracle import _PREFIX_CLASS, _SQUARE_PAIRS, iter_marked_words
from squareperm.perm import (
    ColoredPermutation,
    NotSquare,
    Permutation,
    is_co_decomposable,
    is_decomposable,
    is_triangular,
)


def word(text):
    return parse_marked_word(text)


def test_parse_and_format():
    w = word("XY,UR,UL,DR,XY@3")
    assert w.size == 5 and w.mark == 3
    assert format_marked_word(w) == "XY,UR,UL,DR,XY@3"
    assert word("XY,XY@2").size == 2


def test_word_to_json():
    from squareperm.codec import marked_word_to_json

    w = word("XY,UR,UL,DR,XY@3")
    data = marked_word_to_json(w)
    assert data == {"letters": ["XY", "UR", "UL", "DR", "XY"], "mark": 3}


def test_parse_errors():
    with pytest.raises(InvalidMark):
        word("XY,UR,XY@2")  # row 2 reads R
    with pytest.raises(InvalidMark):
        word("XY,XY@5")
    with pytest.raises(InvalidMark, match="mark -1 out of range"):
        word("XY,UL,XY@-1")
    with pytest.raises(BadFrame):
        MarkedWord(("UL", "XY"), 1)
    # the parser hands its stripped tokens to MarkedWord, the one letter check
    with pytest.raises(WordSyntaxError, match="bad interior letter 'ZZ' at 2"):
        word("XY,ZZ,XY@1")
    with pytest.raises(BadFrame):
        word("ZZ,UL,XY@2")
    with pytest.raises(WordSyntaxError):
        word("@1")
    assert word(" XY , UL ,XY @2") == MarkedWord(("XY", "UL", "XY"), 2)
    with pytest.raises(WordSyntaxError):
        word("XY,UL,XY")
    with pytest.raises(WordSyntaxError):
        MarkedWord(("XY", "XY", "XY"), 1)


@pytest.mark.parametrize("mark", ["2_0", "\uff12", "\u00b2", "+2", "--2", "-", "", "0x2", "2.0"])
def test_mark_is_ascii_decimal(mark):
    # a full-width 2, a superscript 2 and 2_0 are no ASCII decimal
    with pytest.raises(WordSyntaxError, match="bad mark"):
        word(f"XY,UL,XY@{mark}")


def test_encode_examples():
    assert format_marked_word(encode(Permutation((1, 2)))) == "XY,XY@1"
    assert format_marked_word(encode(Permutation((2, 1)))) == "XY,XY@2"
    assert format_marked_word(encode(Permutation((3, 5, 4, 1, 2)))) == "XY,UR,UL,DR,XY@3"
    assert format_marked_word(encode(Permutation((2, 1, 3)))) == "XY,DL,XY@2"
    colored = ColoredPermutation(Permutation((1, 2, 3)), frozenset({2}))
    assert format_marked_word(encode(colored)) == "XY,DR,XY@1"
    assert format_marked_word(encode(Permutation((1, 2, 3)))) == "XY,UL,XY@1"


def test_encode_rejects_interior_points():
    with pytest.raises(NotSquare):
        encode(Permutation((1, 4, 3, 2, 5)))


def test_decode_success_examples():
    out = decode(word("XY,UR,UL,DR,XY@3"))
    assert isinstance(out, Success)
    assert out.result.perm.values == (3, 5, 4, 1, 2)
    out = decode(word("XY,UL,XY@1"))
    assert out.result.perm.values == (1, 2, 3)
    # a longer worked decode, checked by encode round-trip
    out = decode(word("XY,DL,DL,UL,UR,UL,UR,XY@3"))
    assert isinstance(out, Success)
    assert out.result.perm.values == (3, 2, 1, 4, 6, 8, 7, 5)
    assert out.result.perm.values[0] == 3
    assert encode(out.result) == word("XY,DL,DL,UL,UR,UL,UR,XY@3")


def test_decode_failure_examples():
    out = decode(word("XY,DL,XY@1"))
    assert isinstance(out, Failure)
    assert (out.stop_index, out.kind, out.pair) == (2, FailureKind.SW, ("D", "L"))
    assert out.prefix.values == (1,)
    out = decode(word("XY,DR,XY@1"))
    assert (out.kind, out.pair) == (FailureKind.SW, ("D", "R"))
    out = decode(word("XY,UR,XY@3"))
    assert (out.stop_index, out.kind, out.pair) == (2, FailureKind.NW, ("U", "R"))
    assert out.prefix.values == (1,)
    out = decode(word("XY,DL,XY@3"))
    assert (out.kind, out.pair) == (FailureKind.NW, ("D", "L"))


def test_n3_census():
    outcomes = {}
    for w in iter_marked_words(3):
        outcomes[format_marked_word(w)] = decode(w)
    assert len(outcomes) == 10
    successes = {
        text: o.result.perm.values
        for text, o in outcomes.items()
        if isinstance(o, Success)
    }
    failures = {text: o for text, o in outcomes.items() if isinstance(o, Failure)}
    assert len(successes) == 6 and len(failures) == 4
    assert set(successes.values()) == set(itertools.permutations((1, 2, 3)))
    kinds = sorted(o.kind.value for o in failures.values())
    assert kinds == ["NW", "NW", "SW", "SW"]


def test_mode_examples():
    out = decode(word("XY,UL,XY@1"), DecodeMode.FULLY_INDEC)
    assert isinstance(out, Failure) and out.stop_index == 2
    out = decode(word("XY,DR,XY@1"), DecodeMode.PERMUTOMINO)
    assert isinstance(out, Success)
    assert out.result.perm.values == (1, 2, 3)
    assert out.result.colored == {2}
    # the colored word fails as a plain square decode
    out = decode(word("XY,DR,XY@1"), DecodeMode.SQUARE)
    assert isinstance(out, Failure)


def test_cursor_semantics_round_trips():
    # the right-lower search must resume from the path cursor, not from
    # the previous point's row
    w = encode(Permutation((1, 4, 2, 3)))
    assert format_marked_word(w) == "XY,UR,DR,XY@1"
    assert decode(w).result.perm.values == (1, 4, 2, 3)
    # used rows above the cursor are skipped
    w = encode(Permutation((2, 1, 4, 3)))
    assert decode(w).result.perm.values == (2, 1, 4, 3)


@pytest.mark.parametrize("n", range(2, 8))
def test_round_trip_square_exhaustive(n):
    for p in corpus.squares(n):
        out = decode(encode(p))
        assert isinstance(out, Success)
        assert out.result.perm.values == p.values
        assert out.result.colored == frozenset()


@pytest.mark.parametrize("n", range(2, 8))
def test_round_trip_fully_indec(n):
    for p in corpus.squares(n):
        if is_decomposable(p.values) or is_co_decomposable(p.values):
            continue
        out = decode(encode(p), DecodeMode.FULLY_INDEC)
        assert isinstance(out, Success) and out.result.perm.values == p.values


@pytest.mark.parametrize("n", range(2, 7))
def test_round_trip_colored_permutomino_mode(n):
    for cp in corpus.convex_members(n):
        out = decode(encode(cp), DecodeMode.PERMUTOMINO)
        assert isinstance(out, Success)
        assert out.result == cp


def test_round_trip_random_large():
    from squareperm.sampler import RngStream, sample_object
    from squareperm.series import CountFamily

    for n in (1000, 100_000):
        cp = sample_object(CountFamily.SQUARE, n, RngStream(2026))
        w = encode(cp)
        out = decode(w)
        assert isinstance(out, Success)
        assert out.result == cp


def test_linear_row_advances():
    from squareperm.sampler import RngStream, sample_marked_word

    rng = RngStream(5)
    for n in (100, 1000, 10_000):
        stats = DecodeStats()
        decode(sample_marked_word(n, rng), stats=stats)
        assert stats.row_advances <= 5 * n


def test_decode_adds_to_its_stats_record():
    # one late NW failure and one success, each with row advances
    words = [
        word("XY,UL,UL,UL,UL,UR,DL,UL,UL,DR,DR,XY@7"),
        word("XY,DL,DL,UL,UR,UL,UR,XY@3"),
    ]
    singles = []
    for w in words:
        stats = DecodeStats()
        decode(w, DecodeMode.SQUARE, stats)
        singles.append(stats.row_advances)
    assert isinstance(decode(words[0]), Failure) and isinstance(decode(words[1]), Success)
    assert min(singles) > 0
    both = DecodeStats()
    for w in words:
        decode(w, DecodeMode.SQUARE, both)
    assert both == DecodeStats(attempts=0, row_advances=sum(singles))


def test_decode_core_matches_decode():
    # every marked word of length 2-8 in every mode: the core's compact
    # outcome, read through codec's shared helpers, is the public outcome,
    # and a letter set-up shared by the words of one letter sequence, as
    # the audits share it, gives the same outcome and row advances
    for n in range(2, 9):
        letters = shared = None
        for w in iter_marked_words(n):
            if w.letters is not letters:
                if shared is not None:  # the core only reads the set-up
                    assert shared == codec._letter_rows(letters)
                letters = w.letters
                shared = codec._letter_rows(letters)
            for mode in DecodeMode:
                core_stats, stats, shared_stats = DecodeStats(), DecodeStats(), DecodeStats()
                core = codec._decode(w.letters, w.mark, mode, core_stats)
                again = codec._decode(list(w.letters), w.mark, mode, shared_stats, shared)
                assert again == core, (w, mode)
                outcome = decode(w, mode, stats)
                assert core_stats == stats == shared_stats, (w, mode)
                assert type(core) is tuple, (w, mode)
                kind, index, rows, colored = core
                if kind is None:
                    assert isinstance(outcome, Success) and index == n
                    assert rows[1:] == list(outcome.result.perm.values)
                    assert frozenset(colored) == outcome.result.colored
                    assert codec._colored(rows, colored) == outcome.result
                else:
                    assert isinstance(outcome, Failure), (w, mode)
                    assert (kind, index) == (outcome.kind, outcome.stop_index)
                    assert colored is None
                    pair, prefix = codec._stop(w.letters, index, kind, rows)
                    assert (pair, prefix) == (outcome.pair, outcome.prefix.values)
                    assert codec._stop(w.letters, index, kind, rows, False) == (pair, None)


def test_no_internal_contradictions_small():
    for n in range(2, 7):
        for w in iter_marked_words(n):
            for mode in DecodeMode:
                assert not isinstance(decode(w, mode), InternalContradiction)


@pytest.mark.parametrize("mode", list(DecodeMode))
def test_stop_pair_law(mode):
    # an SW stop at column i reports (u_i, v_i), an NW stop (u_i, v_(n-i+1))
    failures = 0
    for n in range(2, 8):
        for w in iter_marked_words(n):
            outcome = decode(w, mode)
            if not isinstance(outcome, Failure):
                continue
            failures += 1
            i = outcome.stop_index
            row = i if outcome.kind is FailureKind.SW else n - i + 1
            assert outcome.pair == (w.letters[i - 1][0], w.letters[row - 1][1]), w
    assert failures > 0


def _placed_rows(outcome, n):
    """The rows a decode placed in columns 1, 2, ..., and the column it
    stopped at (n + 1 for a success); an NW prefix is shifted back up."""
    if isinstance(outcome, Success):
        return list(outcome.result.perm.values), n + 1
    i = outcome.stop_index
    shift = n - i + 1 if outcome.kind is FailureKind.NW else 0
    return [v + shift for v in outcome.prefix.values], i


def _first_block(rows, n, stop, kinds):
    """(column, kind) of the first column i <= stop whose prefix rows fill
    the top-left block (NW) or the bottom-left one (SW), among ``kinds``."""
    for i in range(2, min(stop, n) + 1):
        prefix = rows[: i - 1]
        if FailureKind.NW in kinds and min(prefix) == n - i + 2:
            return i, FailureKind.NW
        if FailureKind.SW in kinds and max(prefix) == i - 1:
            return i, FailureKind.SW
    return None


def test_modes_differ_only_by_their_stops():
    # FULLY_INDEC and PERMUTOMINO place SQUARE's rows and stop at the first
    # column, up to SQUARE's own stop, whose prefix fills one of their
    # blocks; PERMUTOMINO also goes on past SQUARE's SW refusal of a row i
    # reading R, with the colored fixed point i
    both = {FailureKind.NW, FailureKind.SW}
    seen = Counter()
    for n in range(2, 8):
        for w in iter_marked_words(n):
            square = decode(w)
            rows, stop = _placed_rows(square, n)

            fully = decode(w, DecodeMode.FULLY_INDEC)
            block = _first_block(rows, n, stop, both)
            if block is None:
                assert fully == square, w
            else:
                assert (fully.stop_index, fully.kind) == block, w
                seen["fully-indec", block[1]] += 1

            permutomino = decode(w, DecodeMode.PERMUTOMINO)
            block = _first_block(rows, n, stop, {FailureKind.NW})
            if block is not None:
                assert (permutomino.stop_index, permutomino.kind) == block, w
                seen["permutomino", block[1]] += 1
            elif isinstance(square, Failure) and square.pair == ("D", "R"):
                assert square.kind is FailureKind.SW
                p_rows, p_stop = _placed_rows(permutomino, n)
                assert p_stop > stop and p_rows[:stop] == rows + [stop], w
                if isinstance(permutomino, Success):
                    assert stop in permutomino.result.colored
                seen["permutomino", "colored"] += 1
            else:
                assert permutomino == square, w
    assert len(seen) == 4  # every case above is met


#: the letter pairs of each mode's stops, by kind, over all words of
#: length <= 7; the SQUARE table of bijection_audit is exact there
_ALL_PAIRS = {("U", "L"), ("U", "R"), ("D", "L"), ("D", "R"), ("X", "Y")}
_STOP_PAIRS = {
    DecodeMode.SQUARE: _SQUARE_PAIRS,
    DecodeMode.FULLY_INDEC: {FailureKind.SW: _ALL_PAIRS, FailureKind.NW: _ALL_PAIRS},
    DecodeMode.PERMUTOMINO: {FailureKind.SW: {("D", "L")}, FailureKind.NW: _ALL_PAIRS},
}


@pytest.mark.parametrize("mode", list(DecodeMode))
def test_stop_prefix_classes_and_pairs(mode):
    # the per-mode analogues of the SQUARE-only checks of bijection_audit:
    # an NW prefix is lower-right-free triangular, an SW one upper-right-free
    pairs = {kind: set() for kind in FailureKind}
    for n in range(2, 8):
        for w in iter_marked_words(n):
            outcome = decode(w, mode)
            if isinstance(outcome, Failure):
                pairs[outcome.kind].add(outcome.pair)
                assert is_triangular(outcome.prefix, _PREFIX_CLASS[outcome.kind]), w
    assert pairs == _STOP_PAIRS[mode]
