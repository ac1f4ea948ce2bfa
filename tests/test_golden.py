"""Byte-for-byte replay of recorded CLI runs.

``golden_cli.json`` holds, for each command below, its argv, exit code,
stdout and stderr.  The test replays every command through ``cli.main``
and compares all four.  To record the file again from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from squareperm import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")


def _commands() -> list[list[str]]:
    out = []
    for family in ("square", "fully-indec", "convex-permutomino"):
        for n in (5, 12, 60):
            argv = ["sample", "--family", family, "--n", str(n), "--count", "3",
                    "--seed", "7"]
            out += [argv, argv + ["--json"]]
    grid = ["sample-grid", "--cols", "30", "--rows", "25", "--points", "6",
            "--count", "2", "--seed", "5"]
    out += [grid, grid + ["--polygon"]]
    for which in ("narayana", "w", "m", "sq", "t-nw", "t-sw", "cp", "fully-indec"):
        argv = ["series", "--which", which, "--order", "6"]
        out += [argv, argv + ["--json"]]
    for argv in (
        ["count", "--family", "square", "--n", "5"],
        ["count", "--family", "convex-permutomino", "--n", "4"],
        ["encode", "--perm", "3,5,4,1,2"],
        ["encode", "--perm", "1,2*,3"],
        ["encode", "--perm", "3,5,4,1,2", "--json"],
        ["encode", "--perm", "1,4,3,2,5"],
        ["decode", "--word", "XY,UR,UL,DR,XY@3", "--mode", "square"],
        ["decode", "--word", "XY,DL,XY@1", "--mode", "square"],
        ["decode", "--word", "XY,DL,XY@1"],
        ["decode", "--word", "XY,DL,XY@1", "--json"],
        ["decode", "--word", "XY,DR,XY@1", "--mode", "permutomino", "--json"],
    ):
        out.append(argv)
    # decode failures of both kinds in every mode; the NW suffix_v is "Y"
    # plus relabelled rows, and a stop at the last column leaves both
    # suffixes empty
    for word, mode in (
        ("XY,UL,UR,XY@4", "square"),
        ("XY,UR,DL,UL,DL,DR,XY@7", "square"),
        ("XY,DR,DL,UL,UR,XY@6", "square"),
        ("XY,DR,DR,UR,UL,DR,XY@1", "square"),
        ("XY,DR,DR,DL,DL,XY@4", "square"),
        ("XY,UL,UL,XY@1", "fully-indec"),
        ("XY,DR,DR,UR,UL,DR,XY@1", "fully-indec"),
        ("XY,DR,DR,UR,DL,UR,XY@7", "fully-indec"),
        ("XY,UL,UL,XY@2", "fully-indec"),
        ("XY,DR,DR,DR,DL,XY@5", "fully-indec"),
        ("XY,DL,DR,UL,DR,UL,XY@1", "permutomino"),
        ("XY,DR,DR,UR,DL,UR,XY@7", "permutomino"),
        ("XY,DL,DR,UL,UL,XY@5", "permutomino"),
    ):
        out.append(["decode", "--word", word, "--mode", mode, "--json"])
    for argv in (
        ["classify", "--perm", "3,5,4,1,2"],
        ["classify", "--perm", "3,5,4,1,2", "--json"],
        ["verify", "--max-n", "5", "--json"],
    ):
        out.append(argv)
    return out


def _run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }


@pytest.fixture(scope="module")
def recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recording_covers_every_command(recorded):
    assert [case["argv"] for case in recorded] == _commands()


@pytest.mark.parametrize("index", range(len(_commands())))
def test_cli_output_matches_recording(recorded, index):
    case = recorded[index]
    assert _run(case["argv"]) == case


if __name__ == "__main__":
    cases = [_run(argv) for argv in _commands()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
