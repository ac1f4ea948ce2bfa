"""Span recorder that measures the package's layers from the outside.

Nothing in the package is edited.  ``Tracer.install`` rebinds every
module-level name through which one layer calls another (for example
``sampler.decode`` or ``permutomino.check_boundary``) to a wrapper that
records a span, and ``Tracer.uninstall`` puts every original back.  The
random stream is observed through ``CountingRng``, an ``RngStream``
subclass the benchmark passes as ``rng``; it draws the same bits.

Spans are held in flat arrays (start, end, parent, name, operation id)
and written out when the run ends.  A layer's self time is its span
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

from squareperm import cli, codec, oracle, perm, permutomino, polyxy, sampler, series
from squareperm.codec import Failure, FailureKind, Success

_MODULES = (cli, codec, oracle, perm, permutomino, polyxy, sampler, series)

#: span names whose self time is reported, in report order
SPAN_NAMES = (
    "sampler.sample_object",
    "sampler.sample_marked_word",
    "sampler.randbelow",
    "codec.decode.success",
    "codec.decode.failure",
    "codec.encode",
    "permutomino.check_boundary",
    "permutomino.canonical_cycle",
    "permutomino.to_colored_permutation",
    "permutomino.from_colored_permutation",
    "series.count",
    "series.square_refined_series",
    "series.reciprocal",
    "series.mul",
    "oracle.bijection_audit",
    "oracle.brute_enumerate",
    "oracle.enumerate_permutominoes",
    "cli.format",
    "cli.main",
)

#: exact work counters, in report order
COUNTER_NAMES = (
    "sampler.randbelow.calls",
    "sampler.rng_words",
    "sampler.attempts",
    "codec.decode.failure.calls",
    "codec.decode.failure.sw",
    "codec.decode.failure.nw",
    "codec.decode.success.calls",
    "codec.decode.row_advances",
    "permutomino.check_boundary.calls",
    "permutomino.turnpoints",
    "series.count.calls",
    "polyxy.p_mul.calls",
    "polyxy.p_mul.term_products",
    "oracle.words_decoded",
)


class Tracer:
    """In-memory span store plus work counters for one traced pass."""

    def __init__(self) -> None:
        self.op = 0  # id shared by the spans of one benchmark operation
        self.active = False
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._op = array("q")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def enter(self, name: str) -> None:
        stack = self._stack
        idx = len(self._start)
        self._parent.append(stack[-1] if stack else -1)
        self._name.append(self._name_id(name))
        self._op.append(self.op)
        self._end.append(0)
        stack.append(idx)
        self._child_ns.append(0)
        self._start.append(time.perf_counter_ns())

    def exit(self, rename: str | None = None) -> None:
        end = time.perf_counter_ns()
        idx = self._stack.pop()
        child = self._child_ns.pop()
        self._end[idx] = end
        if rename is not None:
            self._name[idx] = self._name_id(rename)
        duration = end - self._start[idx]
        if self._child_ns:
            self._child_ns[-1] += duration
        self.self_ns[self._names[self._name[idx]]] += duration - child

    def write_spans(self, path) -> None:
        """Tab-separated spans: op, index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self._names
            for i in range(len(self._start)):
                out.write(
                    f"{self._op[i]}\t{i}\t{self._parent[i]}\t{names[self._name[i]]}"
                    f"\t{self._start[i]}\t{self._end[i]}\n"
                )

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name: str, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def _decode(self, fn, from_oracle: bool):
        tracer = self

        def wrapper(word, mode=codec.DecodeMode.SQUARE, stats=None):
            if not tracer.active:
                return fn(word, mode, stats)
            own = codec.DecodeStats() if stats is None else stats
            counts = tracer.counts
            if from_oracle:
                counts["oracle.words_decoded"] += 1
            tracer.enter("codec.decode")
            outcome = None
            try:
                outcome = fn(word, mode, own)
            finally:
                if isinstance(outcome, Success):
                    tracer.exit("codec.decode.success")
                    counts["codec.decode.success.calls"] += 1
                else:
                    tracer.exit("codec.decode.failure")
                    counts["codec.decode.failure.calls"] += 1
                    if isinstance(outcome, Failure):
                        kind = "sw" if outcome.kind is FailureKind.SW else "nw"
                        counts[f"codec.decode.failure.{kind}"] += 1
            counts["codec.decode.row_advances"] += own.row_advances
            return outcome

        wrapper.__wrapped__ = fn
        return wrapper

    def _p_mul(self, fn):
        tracer = self

        def wrapper(a, b):
            if tracer.active:
                counts = tracer.counts
                counts["polyxy.p_mul.calls"] += 1
                counts["polyxy.p_mul.term_products"] += len(a) * len(b)
            return fn(a, b)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind_everywhere(self, original, make_wrapper) -> None:
        """Point every package-level name bound to ``original`` at a wrapper."""
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, make_wrapper(module))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")

        def bump(name):
            def count(counts, _args):
                counts[name] += 1

            return count

        def boundary(counts, args):
            counts["permutomino.check_boundary.calls"] += 1
            counts["permutomino.turnpoints"] += len(args[0])

        spanned = {
            sampler.sample_object: ("sampler.sample_object", bump("sampler.objects")),
            sampler.sample_marked_word: (
                "sampler.sample_marked_word",
                bump("sampler.attempts"),
            ),
            codec.encode: ("codec.encode", None),
            permutomino.check_boundary: ("permutomino.check_boundary", boundary),
            permutomino.canonical_cycle: ("permutomino.canonical_cycle", None),
            permutomino.to_colored_permutation: (
                "permutomino.to_colored_permutation",
                None,
            ),
            permutomino.from_colored_permutation: (
                "permutomino.from_colored_permutation",
                None,
            ),
            series.count: ("series.count", bump("series.count.calls")),
            series.square_refined_series: ("series.square_refined_series", None),
            series.reciprocal: ("series.reciprocal", None),
            oracle.bijection_audit: ("oracle.bijection_audit", None),
            oracle.brute_enumerate: ("oracle.brute_enumerate", None),
            oracle.enumerate_permutominoes: ("oracle.enumerate_permutominoes", None),
            perm.format_permutation_text: ("cli.format", None),
            permutomino.format_permutomino_text: ("cli.format", None),
            polyxy.format_poly: ("cli.format", None),
            cli.main: ("cli.main", None),
        }
        for original, (name, count) in spanned.items():
            self._rebind_everywhere(
                original, lambda _m, o=original, n=name, c=count: self._spanned(n, o, c)
            )
        decode = codec.decode
        self._rebind_everywhere(decode, lambda m: self._decode(decode, m is oracle))
        p_mul = polyxy.p_mul
        self._rebind_everywhere(p_mul, lambda _m: self._p_mul(p_mul))
        mul = series.BivariateSeries.__mul__
        self._saved.append((series.BivariateSeries, "__mul__", mul))
        series.BivariateSeries.__mul__ = self._spanned("series.mul", mul)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def make_counting_rng(tracer: Tracer):
    """An RngStream subclass that reports draws to ``tracer``.

    It produces the same bits as RngStream: it only counts the 64-bit
    words drawn and records a span around each ``randbelow``.
    """

    class CountingRng(sampler.RngStream):
        def getrandbits(self, k: int) -> int:
            if k > 0 and tracer.active:
                tracer.counts["sampler.rng_words"] += (k + 63) // 64
            return super().getrandbits(k)

        def randbelow(self, bound: int) -> int:
            if not tracer.active:
                return super().randbelow(bound)
            tracer.counts["sampler.randbelow.calls"] += 1
            tracer.enter("sampler.randbelow")
            try:
                return super().randbelow(bound)
            finally:
                tracer.exit()

    return CountingRng


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (s) and counters, zero for layers not reached."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = tracer.self_ns.get(name, 0) / 1e9
    for name in COUNTER_NAMES:
        out[name] = tracer.counts.get(name, 0)
    objects = tracer.counts.get("sampler.objects", 0)
    attempts = tracer.counts.get("sampler.attempts", 0)
    out["sampler.acceptance"] = objects / attempts if attempts else 0.0
    return out
