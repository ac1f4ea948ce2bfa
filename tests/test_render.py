"""Byte-for-byte goldens of ``squareperm render``.

Each picture is pinned by the sha256 of the file the command writes, in
both formats, so a change to how the record paths or the boundary are
computed cannot move a single character unnoticed.
"""

import hashlib
import tracemalloc

import pytest

from squareperm import render, sampler
from squareperm.cli import main
from squareperm.perm import Permutation, as_colored, format_permutation_text
from squareperm.permutomino import format_permutomino_text, to_colored_permutation
from squareperm.series import CountFamily

#: seed of the sampled pictures; item 0 of this stream is a convex
#: permutomino whose colored permutation has one colored point (29)
SEED = 11


def _sampled(family):
    return sampler.sample_object(family, 40, sampler.substream(SEED, 0))


def _argv(case):
    if case == "perm-35412":
        return ["--perm", "3,5,4,1,2"]
    if case == "square-40":
        return ["--perm", format_permutation_text(_sampled(CountFamily.SQUARE))]
    p = _sampled(CountFamily.CONVEX_PERMUTOMINO)
    if case == "colored-40":
        return ["--perm", format_permutation_text(to_colored_permutation(p))]
    return ["--permutomino", format_permutomino_text(p)]


GOLDEN_SHA256 = {
    ("perm-35412", "svg"): "93c66355884b14bdb7e4f737310689ff2b36d7d0d20526117478b8ec93b9e3c1",
    ("perm-35412", "ascii"): "eb4e8a8771078eb166db2b8f7366a16b2047edff319b3de321a39898941ec919",
    ("square-40", "svg"): "a38d02ef8fa84038d0e41f8748b601114c1bfa9b3b2398dfb7e03430b2ca2927",
    ("square-40", "ascii"): "f943528627af845c6327967d5ed20e95b3fd26234820bb8af3d9392634d8369c",
    ("colored-40", "svg"): "a03c780f07989ca36231f104f0654713dfaa52dce158e407d56f483ce9fe9c51",
    ("colored-40", "ascii"): "e464d8cd84aee59cdbe959d8c9e539c0e05ba7fae6211cec44551e02b6d069e7",
    ("permutomino-40", "svg"): "348f6688f69c3c188cbe265a14d348f5d7eaeda89c147b30f7183cf60bd2407d",
    ("permutomino-40", "ascii"): "fa9b1fbff050e1b2a7009d630fa62c872c5a4cd630211803850ea0527cbae70e",
}


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN_SHA256))
def test_render_matches_its_golden(tmp_path, capsys, case, fmt):
    out = tmp_path / f"{case}.{fmt}"
    assert main(["render", *_argv(case), "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[case, fmt]


def test_ascii_permutomino_memory_is_linear_in_its_characters():
    # (2n+1)^2 = 4 MB of characters at n = 1000: one byte per cell peaks
    # near 9 MiB, one string pointer per cell near 36 MiB
    p = sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, 1000, sampler.substream(SEED, 0))
    tracemalloc.start()
    try:
        text = render.ascii_permutomino(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("+") == 2 * p.size
    assert peak < 16 * 2**20


def _ascii_permutation_per_cell(perm):
    """Reference picture: one string per cell, every cell compared."""
    cp = as_colored(perm)
    values = cp.perm.values
    n = len(values)
    rows = []
    for y in range(n, 0, -1):
        row = []
        for x in range(1, n + 1):
            if values[x - 1] == y:
                row.append("*" if x in cp.colored else "o")
            else:
                row.append(".")
        rows.append(" ".join(row))
    return "\n".join(rows)


def test_ascii_permutation_matches_the_per_cell_renderer():
    pictures = [Permutation((1,)), Permutation((2, 1)), Permutation((3, 5, 4, 1, 2))]
    for i in range(20):
        rng = sampler.substream(SEED, i)
        pictures.append(sampler.sample_object(CountFamily.SQUARE, 1 + i, rng))
        pictures.append(
            to_colored_permutation(
                sampler.sample_object(CountFamily.CONVEX_PERMUTOMINO, 2 + 3 * i, rng)
            )
        )
    assert any(as_colored(perm).colored for perm in pictures)
    for perm in pictures:
        assert render.ascii_permutation(perm) == _ascii_permutation_per_cell(perm)
