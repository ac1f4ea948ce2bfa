"""Set-up probe: import the package, make the warm-up call, report.

``run.py`` launches this in a fresh interpreter and passes the
``time.perf_counter()`` reading taken just before the launch (the clock is
system-wide on Linux).  The probe prints "ready", the seconds from launch
to the end of its warm-up call, which is the set-up a user pays before the
first call of a workload (interpreter start, imports, cache fills), and
the machine speed measured right afterwards in this same process.
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--since", type=float, required=True)
    args = parser.parse_args()
    workloads.make(args.workload, args.smoke).prepare(args.seed)
    elapsed = time.perf_counter() - args.since
    print("ready", elapsed, run.machine_speed(), flush=True)


if __name__ == "__main__":
    main()
