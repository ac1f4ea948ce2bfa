"""The benchmark's workloads: inputs from the seed, the timed items, and
the independent checks on their output.  An operation, the unit of the
end-to-end metrics, is ``group`` consecutive items.

Every sampling item i draws from ``substream(seed, i)``, as
``squareperm sample`` does, so item i is the same object whatever ran
before it.  ``smoke=True`` shrinks every size so that the whole set runs
in seconds; the smoke test uses it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time

from squareperm import cli, codec, permutomino, sampler, series
from squareperm.codec import DecodeMode
from squareperm.series import CountFamily

import checks
from checks import require

#: stream index of the warm-up call, far from the measured items
WARMUP_STREAM = 1 << 40

_MODES = {
    CountFamily.SQUARE: DecodeMode.SQUARE,
    CountFamily.FULLY_INDEC: DecodeMode.FULLY_INDEC,
    CountFamily.CONVEX_PERMUTOMINO: DecodeMode.PERMUTOMINO,
}


class SampleWorkload:
    """``sample_object`` at a fixed size, optionally followed by ``encode``.

    A timed item is what ``squareperm sample`` does per object (draw,
    decode, build, format the text line), plus a timed ``encode`` of the
    result when ``encode`` is set.  Items cycle through ``families``.
    """

    def __init__(self, name, families, n, encode, pin_items, trace_items, cap, group=1):
        self.name = name
        self.families = families
        self.n = n
        self.encode = encode
        self.group = group  # items per operation
        self.pin_items = pin_items  # items covered by the pinned digest
        self.trace_items = trace_items  # items in each pass of a traced run
        self.cap = cap  # most items one run may measure

    def prepare(self, seed: int) -> None:
        """The user's set-up: imports are done; fill caches with one call."""
        self.run(seed, WARMUP_STREAM)

    def run(self, seed: int, i: int, rng_type=None):
        family = self.families[i % len(self.families)]
        rng = sampler.substream(seed, i) if rng_type is None else rng_type(seed, i)
        start = time.perf_counter()
        obj = sampler.sample_object(family, self.n, rng)
        word = codec.encode(obj) if self.encode else None
        if family is CountFamily.CONVEX_PERMUTOMINO:
            text = cli.format_permutomino_text(obj)
        else:
            text = cli.format_permutation_text(obj)
        elapsed = time.perf_counter() - start
        return elapsed, (family, obj, word, text)

    def phase(self, out) -> None:
        return None

    def text(self, out) -> str:
        _family, _obj, word, text = out
        if word is not None:
            text += " " + codec.format_marked_word(word)
        return text + "\n"

    def check(self, out) -> None:
        family, obj, word, _text = out
        n = self.n
        if family is CountFamily.CONVEX_PERMUTOMINO:
            values = checks.check_permutomino(obj.turnpoints, n)
            cp = permutomino.to_colored_permutation(obj)
            require(cp.perm.values == values, "colored permutation is not the black points")
        else:
            cp, values = obj, obj.perm.values
            require(not cp.colored, "a plain permutation carries colored points")
        checks.check_permutation(values, n)
        checks.check_square(values)
        if family is not CountFamily.SQUARE:
            require(not checks.is_co_decomposable(values), "co-decomposable")
        if family is CountFamily.FULLY_INDEC:
            require(not checks.is_decomposable(values), "decomposable")
        word = codec.encode(cp) if word is None else word
        back = codec.decode(word, _MODES[family])
        require(
            isinstance(back, codec.Success) and back.result == cp,
            "decode(encode(x)) differs from x",
        )


class ExactWorkload:
    """Counting, series and verification through ``cli.main``.

    One operation is one pass of commands, each an item of its own, so that
    calibration bursts can run between them: ``count`` for every family at
    a small and a mid size through the CLI and at a large size through the
    library (the CLI cannot print integers of more than 4300 digits), plus
    ``count(SQUARE, n)`` near 10^5; the ``sq``, ``m`` and ``t-nw`` series;
    and ``verify``.  The seed picks the count sizes; the series orders and
    ``--max-n`` are fixed so that every pass costs about the same.
    """

    name = "exact"
    SERIES = ("sq", "m", "t-nw")

    def __init__(self, smoke: bool):
        self.series_order = 8 if smoke else 20
        self.verify_max_n = 4 if smoke else 7
        self.n_ranges = (
            ((3, 20), (100, 200), (300, 400), (500, 600))
            if smoke
            else ((3, 60), (1000, 4000), (30_000, 35_000), (95_000, 100_000))
        )
        self.counts = 3 * len(CountFamily) + 1  # count items per pass
        self.group = self.counts + len(self.SERIES) + 1  # items per pass
        self.pin_items = self.group
        self.trace_items = self.group
        self.cap = 1000 * self.group
        self.binom = checks.ModBinomials()
        # the series and verify text does not depend on the seed
        self.fixed_digest = FIXED_DIGEST[smoke]

    def prepare(self, seed: int) -> None:
        _run_cli(["count", "--family", "square", "--n", "10"])

    def count_sizes(self, seed: int, p: int):
        """(family, n, through the CLI?) for each count of pass p."""
        rnd = random.Random(f"exact:{seed}:{p}")
        small, mid, large, huge = self.n_ranges
        out = []
        for family in CountFamily:
            out.append((family, rnd.randint(*small), True))
            out.append((family, rnd.randint(*mid), True))
            out.append((family, rnd.randint(*large), False))
        out.append((CountFamily.SQUARE, rnd.randint(*huge), False))
        return out

    def phase(self, out) -> str:
        return out[0]

    def run(self, seed: int, i: int, rng_type=None):
        k = i % self.group
        if k < self.counts:
            family, n, via_cli = self.count_sizes(seed, i // self.group)[k]
            start = time.perf_counter()
            if via_cli:
                value = _run_cli(["count", "--family", family.value, "--n", str(n)])
            else:
                value = series.count(family, n)
            return time.perf_counter() - start, ("count_s", (family, n, value))
        k -= self.counts
        if k < len(self.SERIES):
            which = self.SERIES[k]
            argv = ["series", "--which", which, "--order", str(self.series_order)]
            phase = "series_s"
        else:
            which = "verify"
            argv = ["verify", "--max-n", str(self.verify_max_n)]
            phase = "verify_s"
        start = time.perf_counter()
        result = _run_cli(argv)
        return time.perf_counter() - start, (phase, (which, result))

    def text(self, out) -> str:
        phase, result = out
        if phase != "count_s":
            return result[1][1]
        family, n, value = result
        # hex, because decimal text of these integers passes the
        # interpreter's default int-to-str digit limit
        shown = value[1] if isinstance(value, tuple) else hex(value) + "\n"
        return f"count {family.value} {n}: {shown}"

    def check(self, out) -> None:
        phase, result = out
        if phase == "count_s":
            family, n, value = result
            if isinstance(value, tuple):
                code, stdout, stderr = value
                require(code == 0, f"count {family.value} {n} exited {code}: {stderr}")
                value = int(stdout)
            want = checks.count_mod(family.value, n, self.binom)
            require(value % checks.P == want, f"count {family.value} n={n} is wrong")
            return
        which, (code, stdout, stderr) = result
        require(code == 0, f"{which} exited {code}: {stderr}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        require(digest == self.fixed_digest[which], f"{which} text digest {digest}")
        if which == "verify":
            require("FAIL" not in stdout, "verify reported a failure")
            return
        sums = checks.series_sums(stdout)
        require(sorted(sums) == list(range(self.series_order + 1)), f"{which} order")
        for n in range(self.series_order + 1):
            if which == "sq":
                # the series starts at t^2, where marked words start
                want = checks.square_by_census(n) if n >= 2 else 0
                require(sums[n] == want, f"sq series at t^{n}")
            elif which == "m":
                require(sums[n] == checks.marked_words(n), f"m series at t^{n}")


#: sha256 of each series and of the verify output, per smoke flag; they
#: equal the digests of the same ``squareperm series`` and ``verify`` runs
FIXED_DIGEST = {
    False: {
        "sq": "7b96ce0b6af5488d851eaf4552a52f4be3be494b4d57190781a1d4f515a3153e",
        "m": "38645bfcbc1187a523c5a28e166e0da05cce7d6c90cb4e6dfdc61ec80c904bf6",
        "t-nw": "3251ae772dc2910252e07e49c69430df944033eb32687bc1f56552430e927258",
        "verify": "9d446af5882475f736b9464bae2f520eb33bf1e4f201e0a47f002c539f558438",
    },
    True: {
        "sq": "58fb558a9a5bbafcfc9696fdb47da32865bdd360354661051213fc5c2cb6b9a9",
        "m": "4df3801f00ae566792e459c6622c74f9367ae694520e1949b7c62899d022d5b9",
        "t-nw": "1267295ec60f4511099bb93e9194d1bc67eb0ca18b198020209487071e189d53",
        "verify": "3d30c4074dc8f967f3f3b8a5c338e2c8b6062a3e05d1892a59d29f30d7cce4a6",
    },
}


def _run_cli(argv):
    """``squareperm <argv>`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def make(name: str, smoke: bool = False):
    if name == "sample-small":
        return SampleWorkload(
            name, (CountFamily.SQUARE,), 5, False,
            pin_items=2000, trace_items=2000 if smoke else 20_000,
            cap=100_000 if smoke else 600_000, group=10,
        )
    if name == "sample-large":
        return SampleWorkload(
            name, (CountFamily.SQUARE, CountFamily.FULLY_INDEC),
            1000 if smoke else 100_000, True,
            pin_items=4, trace_items=4 if smoke else 16, cap=10_000,
        )
    if name == "sample-permutomino":
        return SampleWorkload(
            name, (CountFamily.CONVEX_PERMUTOMINO,), 60 if smoke else 1000, False,
            pin_items=3, trace_items=3 if smoke else 6, cap=10_000,
        )
    if name == "exact":
        return ExactWorkload(smoke)
    raise KeyError(name)


NAMES = ("sample-small", "sample-large", "sample-permutomino", "exact")
