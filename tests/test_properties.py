"""Property tests of the codec, the parsers and the command line, with
hypothesis (skipped where it is absent)."""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from squareperm import cli  # noqa: E402
from squareperm.codec import (  # noqa: E402
    INTERIOR_PAIRS,
    DecodeMode,
    InternalContradiction,
    MarkedWord,
    Success,
    decode,
    encode,
    format_marked_word,
    parse_marked_word,
)
from squareperm.perm import parse_permutation_text  # noqa: E402
from squareperm.permutomino import (  # noqa: E402
    format_permutomino_text,
    from_colored_permutation,
    parse_permutomino_text,
    to_colored_permutation,
)
from squareperm.sampler import FAMILY_MODES, sample_object, substream  # noqa: E402
from squareperm.series import CountFamily  # noqa: E402


# Few examples, derandomized and with no example database, so these
# property tests are reproducible and add only a few seconds to the suite.
_PROPERTY = settings(max_examples=40, derandomize=True, database=None, deadline=None)


@_PROPERTY
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(2, 1000))
def test_sampled_objects_round_trip(seed, n):
    for family, mode in FAMILY_MODES.items():
        if family is CountFamily.FULLY_INDEC and n < 4:
            continue  # no fully indecomposable square of size 2 or 3
        x = sample_object(family, n, substream(seed, 0))
        if family is CountFamily.CONVEX_PERMUTOMINO:
            cp = to_colored_permutation(x)
            assert from_colored_permutation(cp) == x
        else:
            cp = x
        assert decode(encode(cp), mode) == Success(cp)


@st.composite
def marked_words(draw, max_size=200):
    n = draw(st.integers(2, max_size))
    interior = st.lists(st.sampled_from(INTERIOR_PAIRS), min_size=n - 2, max_size=n - 2)
    letters = ("XY", *draw(interior), "XY")
    marks = [m for m in range(1, n + 1) if letters[m - 1][1] in "LY"]
    return MarkedWord(letters, draw(st.sampled_from(marks)))


@settings(_PROPERTY, max_examples=100)
@given(w=marked_words())
def test_random_words_never_contradict(w):
    for mode in DecodeMode:
        assert not isinstance(decode(w, mode), InternalContradiction)


#: text near each parser's grammar, and text of any kind
_TEXT = st.one_of(
    st.text(alphabet="0123456789,;*@- XYUDLR", max_size=40),
    st.lists(st.integers(-3, 9), max_size=9).map(lambda v: ",".join(map(str, v))),
    st.text(max_size=20),
)

@settings(_PROPERTY, max_examples=200)
@given(text=_TEXT)
def test_text_parsers_raise_only_value_errors(text):
    for parse in (parse_permutation_text, parse_marked_word, parse_permutomino_text):
        try:
            parse(text)
        except ValueError:
            pass


_SMALL = st.integers(-20, 20).map(str)
_FLAG = None  # an option that takes no value
_PERM = st.one_of(
    st.integers(1, 8)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda values: ",".join(map(str, values))),
    _TEXT,
)
_WORD = st.one_of(marked_words(max_size=12).map(format_marked_word), _TEXT)
_PERMUTOMINO = st.one_of(
    st.tuples(st.integers(2, 8), st.integers(0, 99)).map(
        lambda t: format_permutomino_text(
            sample_object(CountFamily.CONVEX_PERMUTOMINO, t[0], substream(t[1], 0))
        )
    ),
    _TEXT,
)

#: every subcommand's options, each with the values drawn for it; the
#: options argparse requires come first, ``required`` of them
_COMMANDS = {
    "count": (2, [("--family", st.sampled_from([f.value for f in CountFamily])),
                  ("--n", _SMALL)]),
    "series": (2, [("--which", st.sampled_from(sorted(cli._SERIES))), ("--order", _SMALL),
                   ("--json", _FLAG)]),
    "encode": (1, [("--perm", _PERM), ("--json", _FLAG)]),
    "decode": (1, [("--word", _WORD), ("--mode", st.sampled_from([m.value for m in DecodeMode])),
                   ("--json", _FLAG)]),
    "classify": (1, [("--perm", _PERM), ("--json", _FLAG)]),
    "sample": (1, [("--n", _SMALL), ("--family", st.sampled_from(cli._SAMPLE_FAMILIES)),
                   ("--count", _SMALL), ("--seed", _SMALL), ("--json", _FLAG)]),
    "sample-grid": (3, [("--cols", _SMALL), ("--rows", _SMALL), ("--points", _SMALL),
                        ("--polygon", _FLAG), ("--count", _SMALL), ("--seed", _SMALL)]),
    "render": (1, [("--out", st.sampled_from(["", "x"])), ("--perm", _PERM),
                   ("--permutomino", _PERMUTOMINO),
                   ("--format", st.sampled_from(["ascii", "svg"]))]),
    "verify": (0, [("--max-n", st.integers(-20, 6).map(str)), ("--json", _FLAG)]),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, options = _COMMANDS[command]
    argv = [command]
    for i, (name, values) in enumerate(options):
        # a required option is left out one time in eight, any other half the time
        if draw(st.integers(0, 7)) >= (1 if i < required else 4):
            argv.append(name if values is None else f"{name}={draw(values)}")
    return argv


@settings(_PROPERTY, max_examples=100)
@given(argv=_argvs())
def test_cli_ends_in_an_exit_code_never_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("--out=", "--out=" + os.path.join(tmp, "")) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
