import hashlib
import json
import sys
import time

import pytest

import squareperm
from squareperm.cli import (
    COUNT_MAX_N,
    GRID_MAX_SIDE,
    GRID_MAX_TOTAL_SIZE,
    RENDER_ASCII_MAX_SIZE,
    SAMPLE_MAX_COUNT,
    SAMPLE_MAX_N,
    SAMPLE_MAX_TOTAL_SIZE,
    SERIES_MAX_ORDER,
    _DECIMAL_SPLIT_BITS,
    _SAMPLE_RATE_MAX_N,
    _SERIES,
    _check_sample_work,
    decimal_text,
    main,
)
from squareperm.sampler import FAMILY_MODES
from squareperm.series import BoundExceeded, CountFamily, count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--family", "square", "--n", "5")
    assert code == 0 and out.strip() == "104"
    code, out, _ = run(capsys, "count", "--family", "convex-permutomino", "--n", "4")
    assert code == 0 and out.strip() == "18"


def test_count_past_the_int_to_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--family", "square", "--n", "20000")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    digits = out.strip()
    assert len(digits) > 4300 and digits.isdigit()
    value = 0
    for i in range(0, len(digits), 1000):  # chunks stay under the limit
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == count(CountFamily.SQUARE, 20000)


def _digits_mod(digits: str, modulus: int) -> int:
    """Horner's rule over chunks of a digit string, each under the
    int-to-str digit limit."""
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = (value * pow(10, len(chunk), modulus) + int(chunk)) % modulus
    return value


def test_count_a_million_prints_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--family", "square", "--n", "1000000")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert elapsed < 15.0, f"count --n 1000000 took {elapsed:.2f} s"
    assert sys.get_int_max_str_digits() == limit
    digits = out.strip()
    assert digits.isdigit() and len(digits) > 600_000
    P = (1 << 61) - 1
    assert _digits_mod(digits, P) == count(CountFamily.SQUARE, 10**6) % P


def test_decimal_text_matches_str():
    limit = sys.get_int_max_str_digits()
    edge = _DECIMAL_SPLIT_BITS
    values = [0, 1]
    for k in range(edge - 3, 2 * edge + 4):
        values += [2**k - 1, 2**k, 2**k + 1]
    digits_at_edge = edge * 30103 // 100000  # 2^edge ~ 10^(0.30103 edge)
    for k in range(digits_at_edge - 3, 2 * digits_at_edge + 4):
        values += [10**k - 1, 10**k, 10**k + 1]
    for v in values:
        assert decimal_text(v) == str(v), v
    assert sys.get_int_max_str_digits() == limit


def test_count_above_the_size_limit_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--family", "square", "--n", str(COUNT_MAX_N + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(COUNT_MAX_N) in err


def _assert_limit_fails_fast(capsys, limit, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"is limited to {limit}," in err


def test_series_above_the_order_limit_fails_fast(capsys):
    _assert_limit_fails_fast(
        capsys, SERIES_MAX_ORDER,
        "series", "--which", "sq", "--order", str(SERIES_MAX_ORDER + 1),
    )


@pytest.mark.parametrize("which", sorted(_SERIES))
def test_series_at_a_negative_order_is_an_error(capsys, which):
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "series", "--which", which, "--order", "-1", *flags)
        assert code == 2 and out == "" and err.startswith("error:"), flags


@pytest.mark.parametrize("which", sorted(_SERIES))
def test_series_order_contract(capsys, which):
    # the output at order k is the first k + 1 lines of the output at order k + 1
    code, text3, _ = run(capsys, "series", "--which", which, "--order", "3")
    assert code == 0
    code, json3, _ = run(capsys, "series", "--which", which, "--order", "3", "--json")
    assert code == 0
    lines3 = text3.splitlines(keepends=True)
    coeffs3 = json.loads(json3)["coefficients"]
    for k in (0, 1, 2):
        code, out, err = run(capsys, "series", "--which", which, "--order", str(k))
        assert (code, err) == (0, "") and out == "".join(lines3[: k + 1]), k
        code, out, err = run(
            capsys, "series", "--which", which, "--order", str(k), "--json"
        )
        assert (code, err) == (0, ""), k
        assert json.loads(out) == {
            "order": k,
            "coefficients": {n: c for n, c in coeffs3.items() if int(n) <= k},
        }, k


def test_sample_above_the_size_limit_fails_fast(capsys):
    _assert_limit_fails_fast(
        capsys, SAMPLE_MAX_N,
        "sample", "--family", "square", "--n", str(SAMPLE_MAX_N + 1),
    )


def test_sample_above_the_count_limit_fails_fast(capsys):
    _assert_limit_fails_fast(
        capsys, SAMPLE_MAX_COUNT,
        "sample", "--family", "square", "--n", "5",
        "--count", str(SAMPLE_MAX_COUNT + 1),
    )


def test_sample_above_the_total_size_limit_fails_fast(capsys):
    # each flag is within its own limit, but together they would run for days
    _assert_limit_fails_fast(
        capsys, SAMPLE_MAX_TOTAL_SIZE,
        "sample", "--family", "square", "--n", str(SAMPLE_MAX_N),
        "--count", str(SAMPLE_MAX_COUNT),
    )


def test_sample_bounds_the_words_it_expects_to_draw(capsys):
    # n x count is within the limit, but 11.2 words are drawn per object
    start = time.perf_counter()
    _assert_limit_fails_fast(
        capsys, SAMPLE_MAX_TOTAL_SIZE,
        "sample", "--family", "fully-indec", "--n", "5", "--count", "100000",
    )
    assert time.perf_counter() - start < 0.5


def test_sample_work_is_compared_exactly():
    # 24 words per fully indecomposable square of size 4: M_4 / F_4 = 48 / 2
    most = SAMPLE_MAX_TOTAL_SIZE // (4 * 24)
    _check_sample_work(CountFamily.FULLY_INDEC, 4, most)
    with pytest.raises(BoundExceeded, match=f"is limited to {SAMPLE_MAX_TOTAL_SIZE},"):
        _check_sample_work(CountFamily.FULLY_INDEC, 4, most + 1)


@pytest.mark.parametrize("family", list(FAMILY_MODES))
def test_sample_work_check_is_quick_at_every_size(family):
    for n in (1, 2, 5, 1000, _SAMPLE_RATE_MAX_N, _SAMPLE_RATE_MAX_N + 1, SAMPLE_MAX_N):
        start = time.perf_counter()
        _check_sample_work(family, n, 1)
        assert time.perf_counter() - start < 0.1, n


@pytest.mark.parametrize("family", list(FAMILY_MODES))
def test_words_per_object_only_fall_past_the_exact_size(family):
    # the check weighs larger sizes by M_m / F_m at m = _SAMPLE_RATE_MAX_N
    m = _SAMPLE_RATE_MAX_N
    words = CountFamily.MARKED_WORDS
    for n in (m + 1, 2 * m, 5 * m):
        assert count(words, n) * count(family, m) <= count(words, m) * count(family, n), n


#: seconds allowed for ``series --order SERIES_MAX_ORDER --json``, set at about
#: 1.5x the slowest time of the engine that divided by each failure series'
#: denominator (sq 3.9-5.3 s, t-nw 2.2-2.8 s); with the failure series summed
#: in closed form into in-place accumulators and the word series built from
#: binomials it takes sq 0.66-0.79 s and t-nw 0.54-0.55 s through ``cli.main``,
#: against sq 0.84-0.99 s and t-nw 0.60-0.64 s with running powers of
#: (1+x)(1+y) and copied sums on the same machine (3 fresh processes each,
#: 2 cores, Python 3.11.7); the product-and-reciprocal engine took minutes
SERIES_AT_LIMIT_BUDGET_S = {"sq": 8.0, "t-nw": 4.2}

#: sha256 of the stdout of ``series --which W --order SERIES_MAX_ORDER --json``,
#: recorded from the engine that solved each division in its own loop
SERIES_AT_LIMIT_SHA256 = {
    "sq": "4a90879005d07cd2793258cea5bf982f44bafdc19c892c77b87faaf033a2478b",
    "t-nw": "3784fc0c2de9867b86b7b0486aef9dfa4894f86bc322a36ac8905577bc15fce4",
}


@pytest.mark.parametrize("which", sorted(SERIES_AT_LIMIT_BUDGET_S))
def test_series_at_the_order_limit_is_affordable(capsys, which):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "series", "--which", which, "--order", str(SERIES_MAX_ORDER), "--json"
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < SERIES_AT_LIMIT_BUDGET_S[which], f"{which} took {elapsed:.2f} s"
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_AT_LIMIT_SHA256[which]
    data = json.loads(out)
    assert data["order"] == SERIES_MAX_ORDER
    if which == "sq":
        sums = {int(n): sum(c.values()) for n, c in data["coefficients"].items()}
        for n in range(2, SERIES_MAX_ORDER + 1):
            assert sums.pop(n) == count(CountFamily.SQUARE, n), n
        assert sums == {}  # t^0 and t^1 are zero


def test_sample_grid_above_the_points_limit_fails_fast(capsys):
    _assert_limit_fails_fast(
        capsys, SAMPLE_MAX_N,
        "sample-grid", "--cols", str(GRID_MAX_SIDE), "--rows", str(GRID_MAX_SIDE),
        "--points", str(SAMPLE_MAX_N + 1),
    )


def test_sample_grid_above_the_side_limit_fails_fast(capsys):
    for cols, rows in ((GRID_MAX_SIDE + 1, 10), (10, GRID_MAX_SIDE + 1), (10**8, 10**8)):
        _assert_limit_fails_fast(
            capsys, GRID_MAX_SIDE,
            "sample-grid", "--cols", str(cols), "--rows", str(rows), "--points", "2",
            "--polygon",
        )


def test_sample_grid_above_the_total_size_limit_fails_fast(capsys):
    # each flag is within its own limit, but 10^8 small items would run for
    # hours, and two items at the side limit for about 10 s
    for side, points, count in ((50, 10, 10**8), (GRID_MAX_SIDE, 50_000, 2)):
        _assert_limit_fails_fast(
            capsys, GRID_MAX_TOTAL_SIZE,
            "sample-grid", "--cols", str(side), "--rows", str(side),
            "--points", str(points), "--count", str(count), "--polygon",
        )


def test_render_ascii_above_the_size_limit_fails_fast(tmp_path, capsys):
    # the ASCII picture has Theta(n^2) characters; 20000 entries fit in one
    # command-line argument and would ask for about 8 * 10^8 of them
    from squareperm.perm import parse_permutation_text
    from squareperm.permutomino import format_permutomino_text, from_colored_permutation

    def identity(n):
        return ",".join(map(str, range(1, n + 1)))

    big = identity(RENDER_ASCII_MAX_SIZE + 1)
    permutomino = format_permutomino_text(from_colored_permutation(parse_permutation_text(big)))
    out = tmp_path / "picture"
    cases = (("--perm", big), ("--perm", identity(20_000)), ("--permutomino", permutomino))
    for flag, text in cases:
        _assert_limit_fails_fast(
            capsys, RENDER_ASCII_MAX_SIZE,
            "render", flag, text, "--format", "ascii", "--out", str(out),
        )
        assert not out.exists()
        # the SVG picture is O(n) and stays unbounded
        assert run(capsys, "render", flag, text, "--format", "svg", "--out", str(out))[0] == 0
        out.unlink()


def test_encode_decode(capsys):
    code, out, _ = run(capsys, "encode", "--perm", "3,5,4,1,2")
    assert code == 0 and out.strip() == "XY,UR,UL,DR,XY@3"
    code, out, _ = run(capsys, "encode", "--perm", "1,2*,3")
    assert code == 0 and out.strip() == "XY,DR,XY@1"
    code, out, _ = run(
        capsys, "decode", "--word", "XY,UR,UL,DR,XY@3", "--mode", "square"
    )
    assert code == 0 and out.strip() == "3,5,4,1,2"
    code, out, _ = run(capsys, "decode", "--word", "XY,DL,XY@1", "--mode", "square")
    assert code == 1 and "SW" in out
    code, out, _ = run(
        capsys, "decode", "--word", "XY,DR,XY@1", "--mode", "permutomino", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"status": "success", "perm": "1,2*,3"}


def test_usage_errors(capsys):
    code, _, err = run(capsys, "encode", "--perm", "1,bogus")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "decode", "--word", "XY,UR,XY@2")
    assert code == 2
    with pytest.raises(SystemExit) as info:
        main(["count", "--family", "nope", "--n", "3"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "number", ["2_0", "\uff12", "+2", pytest.param("7" * 5000, id="5000-digits")]
)
def test_every_text_parser_refuses_odd_integers(capsys, number, tmp_path):
    # the three parsers read integers one way: ASCII decimal after an
    # optional -; 2_0 and a full-width 2 were read as 20 and 2 before, and
    # a numeral past the interpreter's int-from-str digit limit ended in
    # the interpreter's own message
    out = str(tmp_path / "picture.svg")
    calls = [
        (["decode", "--word", f"XY,UL,XY@{number}"], f"bad mark {number!r}"),
        (["encode", "--perm", f"1,{number}"], f"bad permutation entry {number!r}"),
        (["classify", "--perm", f"1,{number}"], f"bad permutation entry {number!r}"),
        (
            ["render", "--permutomino", f"0,1;1,1;1,0;0,{number}", "--out", out],
            f"bad turnpoint {'0,' + number!r}",
        ),
    ]
    for argv, message in calls:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    assert not (tmp_path / "picture.svg").exists()


def test_series_output(capsys):
    code, out, _ = run(capsys, "series", "--which", "sq", "--order", "3")
    assert code == 0
    assert "t^3: 3*x^3*y^3 + x^3*y^2 + x^2*y^3 + x^2*y^2" in out
    code, out, _ = run(capsys, "series", "--which", "narayana", "--order", "3", "--json")
    data = json.loads(out)
    assert data["coefficients"]["3"] == {"0,2": 1, "1,1": 3, "2,0": 1}


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--perm", "3,5,4,1,2", "--json")
    data = json.loads(out)
    assert data["square"] is True
    assert data["upper_count"] == 4 and data["left_count"] == 3


def test_sample_deterministic_bytes(capsys):
    args = ["sample", "--family", "square", "--n", "9", "--count", "5",
            "--seed", "13", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["n"] == 9 and len(data["items"]) == 5


def test_sample_permutomino(capsys):
    code, out, _ = run(
        capsys, "sample", "--family", "convex-permutomino", "--n", "4",
        "--count", "2", "--seed", "3",
    )
    assert code == 0
    from squareperm.permutomino import parse_permutomino_text

    for line in out.strip().splitlines():
        assert parse_permutomino_text(line).size == 4


def test_sample_grid(capsys):
    code, out, _ = run(
        capsys, "sample-grid", "--cols", "20", "--rows", "15", "--points", "4",
        "--seed", "2", "--count", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["cols"] == 20 for line in lines)
    code, out, _ = run(
        capsys, "sample-grid", "--cols", "20", "--rows", "15", "--points", "4",
        "--seed", "2", "--polygon",
    )
    assert code == 0
    assert len(json.loads(out)["turnpoints"]) == 8


def test_render(tmp_path, capsys):
    target = tmp_path / "perm.svg"
    code, _, _ = run(
        capsys, "render", "--perm", "3,5,4,1,2", "--format", "svg",
        "--out", str(target),
    )
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
    again = tmp_path / "again.svg"
    run(capsys, "render", "--perm", "3,5,4,1,2", "--format", "svg", "--out", str(again))
    assert again.read_text() == body  # deterministic styling

    art = tmp_path / "p.txt"
    code, _, _ = run(
        capsys, "render", "--permutomino", "0,1;1,1;1,2;2,2;2,0;0,0",
        "--format", "ascii", "--out", str(art),
    )
    assert code == 0
    assert "+" in art.read_text()


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "FAIL" not in out


#: sha256 of ``verify --max-n 8 --json`` stdout, recorded before the suite's
#: plan moved from ``cli`` into ``oracle``
VERIFY_8_JSON_SHA256 = "d509bcad5715d2a999cd7e604837e82c3a577f64ef4eb02e3100e6bc00ddd4bc"


def test_verify_output_is_pinned(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "8", "--json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_8_JSON_SHA256
    data = json.loads(out)
    assert data["failures"] == []
    code, text, _ = run(capsys, "verify", "--max-n", "8")
    assert code == 0 and text.splitlines() == data["checks"]
    # every exhaustive check stops at n = 8, so a larger --max-n adds nothing
    assert run(capsys, "verify", "--max-n", "9", "--json")[1] == out


@pytest.mark.parametrize("max_n", ["0", "-3"])
@pytest.mark.parametrize("as_json", [False, True])
def test_verify_below_size_one_is_an_error(capsys, max_n, as_json):
    argv = ["verify", "--max-n", max_n] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: --max-n must be at least 1, got {max_n}\n"


def test_verify_runs_each_brute_scan_once(capsys, monkeypatch):
    # at --max-n 5 every audit (n = 2..5 in each mode) reuses the members'
    # values that a count check read: 4 families at n = 1..5, colored
    # permutations at 2..5
    from squareperm import oracle

    calls = []
    scan = oracle._member_values

    def counted(family, n):
        calls.append((family, n))
        return scan(family, n)

    monkeypatch.setattr(oracle, "_member_values", counted)
    code, out, _ = run(capsys, "verify", "--max-n", "5")
    assert code == 0 and "FAIL" not in out
    assert len(calls) == len(set(calls))
    assert len(calls) == 4 * 5 + 4


def test_verify_builds_the_words_of_each_length_once(capsys, monkeypatch):
    # every mode's audit of one length decodes the same runs of letters
    # and marks
    from squareperm import oracle

    lengths = []
    letter_marks = oracle._letter_marks

    def counted(n):
        lengths.append(n)
        return letter_marks(n)

    monkeypatch.setattr(oracle, "_letter_marks", counted)
    code, out, _ = run(capsys, "verify", "--max-n", "5")
    assert code == 0 and "FAIL" not in out
    assert lengths == [2, 3, 4, 5]


def test_the_shared_parser_carries_nothing_between_calls(capsys):
    from squareperm.cli import _build_parser

    assert _build_parser() is _build_parser()
    argv = ["series", "--which", "m", "--order", "3"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["order"] == 3
    code, text, _ = run(capsys, *argv)
    assert code == 0 and not text.startswith("{") and text.count("\n") == 4

    with pytest.raises(SystemExit) as info:
        main(["count", "--family", "nope", "--n", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run(capsys, "count", "--family", "square", "--n", "5") == (0, "104\n", "")

    assert run(capsys, "verify", "--max-n", "3")[0] == 0
    assert run(capsys, "verify") == run(capsys, "verify", "--max-n", "6")
    code, out, _ = run(capsys, "sample", "--n", "5", "--count", "3", "--seed", "2")
    assert code == 0 and len(out.splitlines()) == 3
    code, out, _ = run(capsys, "sample", "--n", "5")
    assert code == 0 and out.splitlines() == [out.strip()] and "," in out


def test_sample_grid_polygon_pinned(capsys):
    code, out, _ = run(
        capsys, "sample-grid", "--cols", "30", "--rows", "25", "--points", "6",
        "--polygon", "--seed", "4", "--count", "2",
    )
    assert code == 0
    assert out.splitlines() == [
        '{"cols": 30, "rows": 25, "turnpoints": [[2, 19], [5, 19], [5, 22], '
        '[26, 22], [26, 21], [24, 21], [24, 16], [23, 16], [23, 11], [20, 11], '
        '[20, 3], [2, 3]]}',
        '{"cols": 30, "rows": 25, "turnpoints": [[1, 17], [21, 17], [21, 24], '
        '[23, 24], [23, 16], [24, 16], [24, 5], [19, 5], [19, 2], [3, 2], '
        '[3, 14], [1, 14]]}',
    ]


@pytest.mark.parametrize(
    "family, least", [("square", 1), ("fully-indec", 1), ("convex-permutomino", 2)]
)
def test_sample_below_the_least_size_names_it(capsys, family, least):
    code, out, err = run(capsys, "sample", "--family", family, "--n", str(least - 1))
    assert code == 2 and out == ""
    assert err == f"error: sampling {family} starts at size {least}\n"


def test_negative_count_is_a_usage_error(capsys):
    for argv in (
        ["sample", "--n", "5", "--count", "-3"],
        ["sample-grid", "--cols", "5", "--rows", "5", "--points", "2", "--count", "-3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--count" in err


#: every name ``import squareperm`` exports; adding or removing one is a
#: change of the public API
PUBLIC_NAMES = {
    "BivariateSeries", "BoundExceeded", "ColoredPermutation", "Corner",
    "CountFamily", "DecodeMode", "DecodeStats", "DomainError", "Failure",
    "FailureKind", "GridConfig", "GridPolygon", "InternalContradiction",
    "MarkedWord", "NotSquare", "Permutation", "Permutomino", "RngStream",
    "Slope", "SubclassReport", "Success", "count", "decode", "encode",
    "exact_generic_count", "exact_generic_polygon_count", "format_marked_word",
    "format_permutation_text", "format_permutomino_text", "free_fixed_points",
    "from_colored_permutation", "is_square", "marked_word_series",
    "narayana_series", "parse_marked_word", "parse_permutation_text",
    "parse_permutomino_text", "sample_convex_polygon", "sample_exterior_config",
    "sample_marked_word", "sample_object", "side_profile",
    "square_refined_series", "subclass_report", "substream",
    "to_colored_permutation",
    # the submodules the package imports
    "codec", "perm", "permutomino", "polyxy", "sampler", "series",
}


def test_public_names_are_pinned():
    assert set(squareperm.__all__) == PUBLIC_NAMES
