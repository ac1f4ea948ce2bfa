"""Layered benchmark for the squareperm package.

Run from the repository root:

    python3 perfbench/run.py --workload sample-small --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer self times and work counters from a traced pass (see
README.md in this directory).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A copy of
the result, with the run environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
CHUNK_S = 0.25  # operation time per throughput sample
CAL_S = 0.05  # length of one calibration burst
PROBE_TIMEOUT_S = 60

#: sha256 of the first ``pin_items`` output lines at DEFAULT_SEED, per
#: (workload, smoke).  For the sample workloads without an encoded word the
#: lines are exactly ``squareperm sample --seed 0 --count <pin_items>``.
PINNED = {
    ("sample-small", False): "d0944513c1e18abf40adbee9931eb743b6947a246896f0f3e3023d1871d02e2e",
    ("sample-large", False): "0174255c8fbcf439004fe447f0ef489729992117a029ff4d772c1fd7cce21f0e",
    ("sample-permutomino", False): "4523ab1808cb733d83ab4ad46fad6abb5287d8ec4dffc401cfb5220edb42b769",
    ("exact", False): "2168f48678694b07e5a166c1474bd647823649b7e8bf559947b6613d05c1ad7c",
    ("sample-small", True): "d0944513c1e18abf40adbee9931eb743b6947a246896f0f3e3023d1871d02e2e",
    ("sample-large", True): "f20f11bd57b9f6179fe9b02d5a78bd01fd2fd217c9adc6e07889225abb48cc7d",
    ("sample-permutomino", True): "9e4c155cf222604a4be4571902219fb3743c323a22039cf4d4dffaa7ff1eb6b5",
    ("exact", True): "18f3d19d51bba034ccdac8a0705fc4c6cb83ad1a9e6151fa8d725f4f96aace14",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes and one set-up probe"
    )
    return parser.parse_args(argv)


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""

    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": read("/proc/loadavg").split()[:3],
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(args) -> list[float]:
    """Seconds from launching a fresh interpreter to its first timed call,
    scaled by the machine speed that the probe measures right afterwards."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        since = time.perf_counter()
        with subprocess.Popen(cmd + ["--since", repr(since)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            report = proc.stdout.read().split()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or len(report) != 3 or report[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(float(report[1]) * float(report[2]))
    return times


class Pass:
    """Latencies, outputs and failures of one closed-loop pass."""

    def __init__(self, cap: int):
        self.latency = array("d", bytes(8 * cap))  # allocated up front: RSS stays flat
        self.timed = 0
        self.attempted = 0
        self.failed_items: set[int] = set()
        self.errors: list[str] = []
        self.speeds: list[float] = []  # machine_speed() per chunk
        self.phases: dict[str, float] = {}  # summed item time per phase
        self.hash = hashlib.sha256()
        self.pin_digest = None

    @property
    def failed(self) -> int:
        return len(self.failed_items)

    def fail(self, i: int, message: str) -> None:
        self.failed_items.add(i)
        if len(self.errors) < 5:
            self.errors.append(message)

    def item(self, workload, seed, i, rng_type=None, check=True, tracer=None) -> float:
        """Run, record and check item i; return its operation time."""
        self.attempted += 1
        try:
            elapsed, out = workload.run(seed, i, rng_type)
        except Exception:
            self.fail(i, f"item {i} raised:\n{traceback.format_exc()}")
            return 0.0
        if tracer is not None:
            tracer.active = False
        try:
            self.latency[self.timed] = elapsed
            self.timed += 1
            phase = workload.phase(out)
            if phase is not None:
                self.phases[phase] = self.phases.get(phase, 0.0) + elapsed
            self.hash.update(workload.text(out).encode())
            if i + 1 == workload.pin_items:
                self.pin_digest = self.hash.hexdigest()
            if check:
                workload.check(out)
        except Exception as exc:
            self.fail(i, f"item {i} failed its check: {exc!r}")
        finally:
            if tracer is not None:
                tracer.active = True
        return elapsed

    def operations(self, group: int) -> list[float]:
        """Latency of each operation: the sum over its ``group`` items."""
        lat = self.latency[: self.timed]
        return [sum(lat[k : k + group]) for k in range(0, len(lat), group)]

    def total_s(self) -> float:
        return sum(self.latency[: self.timed])


def quantile_ms(values: list[float], q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0] * 1e3
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] * 1e3


def _small_kernel() -> int:
    """Fixed pure-Python work on small objects: ints, tuples, a dict."""
    acc = 0
    seen: dict[int, int] = {}
    items = []
    for i in range(1000):
        pair = (i, i * 7 & 1023)
        seen[pair[1]] = seen.get(pair[1], 0) + 1
        items.append(pair)
        acc += len(items) ^ i
    return acc


def _large_kernel() -> int:
    """Fixed work on a list too large for the fast caches: build and sort."""
    values = [i * 7 for i in range(30_000)]
    return len(sorted(values, key=lambda v: v % 1009))


#: (kernel, calls per second on the reference machine)
KERNELS = ((_small_kernel, 4000.0), (_large_kernel, 160.0))


def machine_speed() -> float:
    """This interpreter's current speed relative to the reference machine:
    the geometric mean over KERNELS of rate / reference rate, each kernel
    run for CAL_S / len(KERNELS) seconds."""
    product = 1.0
    for kernel, reference in KERNELS:
        calls = 0
        start = time.perf_counter()
        while True:
            kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= CAL_S / len(KERNELS):
                break
        product *= calls / elapsed / reference
    return product ** (1 / len(KERNELS))


def measure(workload, args) -> Pass:
    """Closed loop, one caller: each item starts when the previous returns.

    Items run in chunks of about CHUNK_S seconds of operation time, and a
    short calibration burst runs between chunks.  The speed of a chunk is
    the mean of the bursts around it; its latencies are multiplied and its
    throughput divided by that speed, which removes most of the drift of a
    shared machine (see README.md).
    """
    run = Pass(workload.cap)
    deadline = time.perf_counter() + args.seconds
    i = 0

    def more():  # whole operations only
        return i % workload.group or (
            i < workload.cap
            and (i < workload.pin_items or time.perf_counter() < deadline)
        )

    before = machine_speed()
    while more():
        first = run.timed
        work = 0.0
        while work < CHUNK_S and more():
            work += run.item(workload, args.seed, i)
            i += 1
        after = machine_speed()
        speed = (before + after) / 2
        before = after
        if run.timed > first:
            run.speeds.append(speed)
            for k in range(first, run.timed):
                run.latency[k] *= speed
    return run


def traced(workload, args):
    """An untraced and a traced pass over the same items; per-layer metrics."""
    import tracer as tracer_mod  # imports the package, so after the path is set

    items = workload.trace_items
    plain = Pass(items)
    for i in range(items):
        plain.item(workload, args.seed, i)
    tracer = tracer_mod.Tracer()
    rng_type = tracer_mod.make_counting_rng(tracer)
    spans = Pass(items)
    with tracer:
        for i in range(items):
            tracer.op = i
            spans.item(workload, args.seed, i, rng_type, check=False, tracer=tracer)
    metrics = tracer_mod.layer_metrics(tracer)
    metrics["trace.overhead"] = plain.total_s() / spans.total_s()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}.tsv")
    if spans.hash.hexdigest() != plain.hash.hexdigest():
        plain.fail(items - 1, "traced outputs differ from untraced outputs")
    plain.failed_items |= spans.failed_items
    plain.errors += spans.errors
    return plain, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "squareperm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    try:
        workload = workloads.make(args.workload, args.smoke)
    except KeyError:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()

    setup = [] if args.trace else measure_setup(args)
    workload.prepare(args.seed)
    tails = {}  # reported, not gated: few runs have ten operations past p90
    if args.trace:
        run, metrics = traced(workload, args)
        spec = bench["per_layer"]
    else:
        run = measure(workload, args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops = run.operations(workload.group)
        spec = bench["end_to_end"]
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(ops) / sum(ops),
            "op_p50_ms": quantile_ms(ops, 0.50),
            "peak_rss_mb": peak_rss_mb,
        }
        for q in (0.90, 0.99):
            tails[f"op_p{round(q * 100)}_ms"] = quantile_ms(ops, q)

    pinned = PINNED[(workload.name, args.smoke)]
    if args.seed == DEFAULT_SEED and run.pin_digest != pinned:
        run.fail(workload.pin_items - 1,
                 f"output digest {run.pin_digest} differs from the pinned {pinned}")

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "items": run.timed,
        "failed_ratio": run.failed / run.attempted,
        "setup_samples_s": setup,
        "machine_speed_median": statistics.median(run.speeds) if run.speeds else None,
        "output_digest": run.hash.hexdigest(),
        "pin_digest": run.pin_digest,
        "phases_mean_s": {
            k: v * workload.group / run.timed for k, v in run.phases.items()
        },
        "tails_ms": tails,
        "errors": run.errors,
        "env": env,
    }
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec
        },
    }
    OUT.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "detail": detail}, indent=1))

    for error in run.errors:
        print(error, file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} items={run.timed} "
          f"env={json.dumps(env)}")
    for key, value in detail["phases_mean_s"].items():
        print(f"# {key} = {value:.6g} s (mean per operation, not normalised)")
    for key, value in tails.items():
        print(f"# {key} = {value:.6g} ms ({len(ops)} operations)")
    print(f"# failed_ratio = {detail['failed_ratio']} ratio")
    for m in spec:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
