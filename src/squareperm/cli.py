"""Command-line front end.

Exit codes: 0 success, 1 a well-formed negative result (a decode
failure, a failed verification), 2 usage or format errors.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys

from . import oracle, render, sampler, series
from .codec import (
    DecodeMode,
    Failure,
    Success,
    decode,
    encode,
    format_marked_word,
    marked_word_to_json,
    parse_marked_word,
)
from .perm import (
    Corner,
    Slope,
    format_permutation_text,
    parse_permutation_text,
    subclass_report,
)
from .permutomino import format_permutomino_text, parse_permutomino_text
from .series import BoundExceeded, CountFamily, DomainError

_SAMPLE_FAMILIES = tuple(family.value for family in sampler.FAMILY_MODES)


#: ``series --which`` name -> builder of order; each looks its function up in
#: its module when called, so a rebound module attribute is honoured
_SERIES = {
    "narayana": lambda order: series.narayana_series(order),
    "w": lambda order: series.free_word_series(order),
    "m": lambda order: series.marked_word_series(order),
    "sq": lambda order: series.square_refined_series(order),
    "t-nw": lambda order: series.nw_failure_series(order),
    "t-sw": lambda order: series.sw_failure_series(order),
    "cp": lambda order: oracle.refined_series_by_enumeration(
        CountFamily.CONVEX_PERMUTOMINO, order
    ),
    "fully-indec": lambda order: oracle.refined_series_by_enumeration(
        CountFamily.FULLY_INDEC, order
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later
    ``main`` call: a build takes 1.1-1.6 ms and a parse 0.02-0.04 ms
    (2 cores, Python 3.11.7).  Each parse fills a new namespace, so no
    call's values reach the next."""
    parser = argparse.ArgumentParser(
        prog="squareperm",
        description="Square permutations, convex permutominoes, marked words: "
        "count, encode, decode, sample, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact family count")
    p.add_argument("--family", required=True, choices=[f.value for f in CountFamily])
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("series", help="print a truncated series")
    p.add_argument("--which", required=True, choices=list(_SERIES))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("encode", help="marked word of a colored square permutation")
    p.add_argument("--perm", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("decode", help="decode a marked word")
    p.add_argument("--word", required=True)
    p.add_argument(
        "--mode", default="square", choices=[m.value for m in DecodeMode]
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="records and subclass flags")
    p.add_argument("--perm", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sample", help="uniform random objects")
    p.add_argument("--family", default="square", choices=_SAMPLE_FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sample-grid", help="uniform generic grid configurations")
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--polygon", action="store_true")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("render", help="write an ASCII or SVG picture")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm")
    group.add_argument("--permutomino")
    p.add_argument("--format", default="ascii", choices=["ascii", "svg"])
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the brute-force audit suite")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--json", action="store_true")
    return parser


#: largest ``count --n``: SQUARE at this size takes about 7 s to count and
#: print on 2 cores (Python 3.11.7), and the cost grows faster than n
COUNT_MAX_N = 4_000_000

#: largest ``series --order``; ``sq``, the slowest, takes 1.2-1.4 s end to
#: end at 45 and 2.0-2.5 s at 48 (3 runs each, 2 cores, Python 3.11.7),
#: growing about as order^4.7
SERIES_MAX_ORDER = 45

#: largest ``sample --n`` and ``sample-grid --points``; one object at 10^6
#: takes about 0.5-0.8 s in an 84-85 MiB peak RSS (square, fully
#: indecomposable) to 1.5-1.8 s in 294-296 MiB (convex permutomino), end
#: to end on 2 cores (Python 3.11.7)
SAMPLE_MAX_N = 1_000_000

#: largest ``sample --count``; items are printed as they are made, and
#: 10^5 objects take about 0.7-1.2 s at n = 1 and 0.8-1.6 s (median 1.0 s)
#: at n = 5, in a flat 18 MiB (end to end, 2 cores, Python 3.11.7)
SAMPLE_MAX_COUNT = 100_000

#: largest expected work of ``sample``: ``--n`` times ``--count`` times the
#: marked words drawn per object, M_n / F_n for a family of F_n members.
#: The slowest calls it allows, convex permutominoes at n = 7, 8 and 9 with
#: counts 85379, 77500 and 71451, the first sizes sampled without an
#: outcome table, take 2.4-2.5, 2.2-2.3 and 2.1-2.2 s (3 runs each, stdout
#: to /dev/null, no bytecode caches, on a quiet machine; a loaded one has
#: stretched such calls to 10 s); one object at n = 10^6 takes 0.5-1.8 s
#: (end to end, 2 cores, Python 3.11.7)
SAMPLE_MAX_TOTAL_SIZE = 1_500_000

#: past this size the acceptance rate F_n / M_n of every sampled family
#: only rises, so ``sample`` weighs larger sizes by the rate here, which
#: overstates their work by under 1%; counting the family at 10^6 alone
#: takes 0.4 s, at this size 0.02 s (2 cores, Python 3.11.7)
_SAMPLE_RATE_MAX_N = 100_000

#: largest ``sample-grid --cols`` and ``--rows``; choosing the lines takes
#: O(cols + rows) big-integer steps, about 6 s at 10^5 with 50000 points
GRID_MAX_SIDE = 100_000

#: largest ``sample-grid --count`` times ``(--cols + --rows + --points)``,
#: one item at the side limit; end to end (2 cores, Python 3.11.7), one item
#: at sides 10^5 takes 4.5-4.9 s with 50000 points, 0.4-0.6 s with 10^5;
#: 50000 polygons at sides 2 take 3.1 s, 100000 configs at sides 1 2.2 s
GRID_MAX_TOTAL_SIZE = 300_000

#: largest permutation or permutomino ``render --format ascii`` draws; the
#: picture has Theta(n^2) characters.  End to end at this size a permutation
#: takes about 0.24-0.27 s in 33 MiB and a permutomino 0.25-0.33 s in 57 MiB
#: (n = 3000: 0.23-0.30 s in 52 MiB and 0.40-0.52 s in 103 MiB; 2 cores,
#: Python 3.11.7), so the permutomino's memory sets the limit
RENDER_ASCII_MAX_SIZE = 2000

#: integers of at most this many bits convert to Decimal directly
_DECIMAL_SPLIT_BITS = 2048


def decimal_text(value: int) -> str:
    """Decimal digits of ``value`` >= 0 in subquadratic time.

    The integer is split by bits, each half converted recursively, and the
    halves joined as hi * 2^w + lo in exact Decimal arithmetic, whose big
    multiplications are fast.  Unlike ``str(int)`` it is not subject to
    the interpreter's int-to-str digit limit, which it leaves untouched.
    """
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2^w, memoised for this call
        if w not in powers:
            if w <= _DECIMAL_SPLIT_BITS:
                powers[w] = decimal.Decimal(1 << w)
            else:
                powers[w] = power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:  # 0 <= n < 2^w
        if w <= _DECIMAL_SPLIT_BITS:
            return decimal.Decimal(n)
        low_w = w >> 1
        hi = n >> low_w
        return convert(hi, w - low_w) * power(low_w) + convert(
            n - (hi << low_w), low_w
        )

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))


def _check_limit(flag: str, value: int, limit: int) -> None:
    if value > limit:
        raise BoundExceeded(f"{flag} is limited to {limit}, got {value}")


def _show(args, data, lines) -> int:
    """Print ``data()`` as key-sorted JSON under ``--json``, else each line
    of ``lines()``; only the format asked for is built."""
    if args.json:
        print(json.dumps(data(), sort_keys=True))
    else:
        for line in lines():
            print(line)
    return 0


def _cmd_count(args) -> int:
    _check_limit("count --n", args.n, COUNT_MAX_N)
    print(decimal_text(series.count(CountFamily(args.family), args.n)))
    return 0


def _cmd_series(args) -> int:
    _check_limit("series --order", args.order, SERIES_MAX_ORDER)
    s = _SERIES[args.which](args.order)
    return _show(
        args, lambda: series.series_to_json(s), lambda: series.series_lines(s)
    )


def _cmd_encode(args) -> int:
    cp = parse_permutation_text(args.perm)
    word = encode(cp)
    return _show(
        args, lambda: marked_word_to_json(word), lambda: [format_marked_word(word)]
    )


def _failure_json(outcome: Failure) -> dict:
    return {
        "status": "failure",
        "stop_index": outcome.stop_index,
        "kind": outcome.kind.value,
        "prefix": list(outcome.prefix.values),
        "pair": list(outcome.pair),
        "suffix_u": outcome.suffix_u,
        "suffix_v": outcome.suffix_v,
    }


def _cmd_decode(args) -> int:
    word = parse_marked_word(args.word)
    outcome = decode(word, DecodeMode(args.mode))
    if isinstance(outcome, Success):
        if args.json:
            print(
                json.dumps(
                    {
                        "status": "success",
                        "perm": format_permutation_text(outcome.result),
                    }
                )
            )
        else:
            print(format_permutation_text(outcome.result))
        return 0
    if isinstance(outcome, Failure):
        if args.json:
            print(json.dumps(_failure_json(outcome)))
        else:
            print(
                f"failure at {outcome.stop_index} ({outcome.kind.value}): "
                f"prefix {','.join(map(str, outcome.prefix.values))}, "
                f"pair ({outcome.pair[0]},{outcome.pair[1]})"
            )
        return 1
    print(f"internal contradiction: {outcome.diagnostic}", file=sys.stderr)
    return 1


def _cmd_classify(args) -> int:
    cp = parse_permutation_text(args.perm)
    report = subclass_report(cp)
    return _show(
        args,
        lambda: {
            "perm": format_permutation_text(cp),
            "square": report.square,
            "triangular": {c.value: report.triangular[c] for c in Corner},
            "parallel": {s.value: report.parallel[s] for s in Slope},
            "decomposable": report.decomposable,
            "co_decomposable": report.co_decomposable,
            "upper_count": report.upper_count,
            "left_count": report.left_count,
        },
        lambda: [
            f"square: {report.square}",
            *(f"triangular[{c.value} free]: {report.triangular[c]}" for c in Corner),
            *(f"parallel[{s.value}]: {report.parallel[s]}" for s in Slope),
            f"decomposable: {report.decomposable}",
            f"co-decomposable: {report.co_decomposable}",
            f"upper points: {report.upper_count}",
            f"left points: {report.left_count}",
        ],
    )


def _check_count(count: int) -> None:
    if count < 0:
        raise DomainError(f"--count must be at least 0, got {count}")


def _check_sample_work(family: CountFamily, n: int, count: int) -> None:
    """BoundExceeded unless n x count x M_n / F_n is within
    SAMPLE_MAX_TOTAL_SIZE, compared in exact integers.  A size below the
    family's first member is left for ``sample_object`` to name."""
    size = n * count
    _check_limit("sample --n times --count", size, SAMPLE_MAX_TOTAL_SIZE)
    if n < series.FIRST_SIZE[CountFamily.MARKED_WORDS]:
        return  # the one permutation of size 1 is made without a word
    m = min(n, _SAMPLE_RATE_MAX_N)
    words = series.count(CountFamily.MARKED_WORDS, m)
    members = series.count(family, m)
    if members and size * words > SAMPLE_MAX_TOTAL_SIZE * members:
        raise BoundExceeded(
            "sample --n times --count times the words drawn per object is limited "
            f"to {SAMPLE_MAX_TOTAL_SIZE}, got {size * words // members}"
        )


def _cmd_sample(args) -> int:
    _check_count(args.count)
    _check_limit("sample --n", args.n, SAMPLE_MAX_N)
    _check_limit("sample --count", args.count, SAMPLE_MAX_COUNT)
    family = CountFamily(args.family)
    _check_sample_work(family, args.n, args.count)
    fmt = (
        format_permutomino_text
        if family is CountFamily.CONVEX_PERMUTOMINO
        else format_permutation_text
    )
    items = (
        fmt(sampler.sample_object(family, args.n, sampler.substream(args.seed, i)))
        for i in range(args.count)
    )
    if not args.json:
        for item in items:
            print(item)
        return 0
    # the JSON object is written item by item, so only one item is held;
    # the first is made before any output, so an error prints nothing
    head, tail = json.dumps(
        {"family": family.value, "items": [], "n": args.n, "seed": args.seed},
        sort_keys=True,
    ).split("[]")
    first = next(items, None)
    out = sys.stdout
    out.write(head + "[")
    if first is not None:
        out.write(json.dumps(first))
        for item in items:
            out.write(", " + json.dumps(item))
    out.write("]" + tail + "\n")
    return 0


def _cmd_sample_grid(args) -> int:
    _check_count(args.count)
    _check_limit("sample-grid --points", args.points, SAMPLE_MAX_N)
    _check_limit("sample-grid --cols", args.cols, GRID_MAX_SIDE)
    _check_limit("sample-grid --rows", args.rows, GRID_MAX_SIDE)
    _check_limit(
        "sample-grid --count times (--cols + --rows + --points)",
        args.count * (args.cols + args.rows + args.points),
        GRID_MAX_TOTAL_SIZE,
    )
    for i in range(args.count):
        rng = sampler.substream(args.seed, i)
        if args.polygon:
            obj = sampler.sample_convex_polygon(args.cols, args.rows, args.points, rng)
        else:
            obj = sampler.sample_exterior_config(args.cols, args.rows, args.points, rng)
        print(json.dumps(obj.to_json(), sort_keys=True))
    return 0


def _cmd_render(args) -> int:
    if args.perm is not None:
        obj = parse_permutation_text(args.perm)
        draw_svg, draw_ascii = render.svg_permutation, render.ascii_permutation
    else:
        obj = parse_permutomino_text(args.permutomino)
        draw_svg, draw_ascii = render.svg_permutomino, render.ascii_permutomino
    if args.format == "svg":
        text = draw_svg(obj)
    else:
        _check_limit("render --format ascii size", obj.size, RENDER_ASCII_MAX_SIZE)
        text = draw_ascii(obj) + "\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.max_n < 1:
        raise DomainError(f"--max-n must be at least 1, got {args.max_n}")
    checks, audits = oracle.verify(args.max_n)
    reports = []
    for name, ok, detail in checks:
        line = f"{'ok' if ok else 'FAIL'}: {name}"
        reports.append(f"{line} ({detail})" if detail and not ok else line)
    failures = [name for name, ok, _ in checks if not ok]
    data = {"checks": reports, "failures": failures, "audits": audits}
    _show(args, lambda: data, lambda: reports)
    return 1 if failures else 0


_HANDLERS = {
    "count": _cmd_count,
    "series": _cmd_series,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "classify": _cmd_classify,
    "sample": _cmd_sample,
    "sample-grid": _cmd_sample_grid,
    "render": _cmd_render,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
