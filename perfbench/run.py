"""tmisim benchmark runner.

Runs one workload closed-loop from a single client (one op at a time,
no extra threads) against the tmisim sources in ``src/`` next to this
directory, checks every op's output, and prints every metric by name
with its unit. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 3

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
op twice, untraced and then traced, and reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("backend", "primitives", "messages", "actors", "sim",
           "adversary", "verifier", "cli")
SETUP_REPEATS = 11
WARMUP_S = 0.5


def load_tmisim():
    """Import tmisim afresh and return its modules by name."""
    for name in [m for m in sys.modules if m == "tmisim" or m.startswith("tmisim.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"tmisim.{name}") for name in MODULES}
    mods["tmisim"] = sys.modules["tmisim"]
    mods["backend"].active_name()
    return SimpleNamespace(**mods)


def setup(workload_cls, seed, workdir):
    """Set up SETUP_REPEATS times; returns the last workload and the times."""
    times = []
    for _ in rounds(0, SETUP_REPEATS):
        gc.collect()  # drop the previous set-up's modules before peak_rss_mb grows
        start = time.perf_counter()
        t = load_tmisim()
        workload = workload_cls(t, seed, workdir)
        times.append(time.perf_counter() - start)
    return t, workload, times


class Loop:
    """Runs a workload's ops round after round, checking each."""

    def __init__(self, workload):
        self.workload = workload
        self.runs = 0
        self.failed = 0
        self.errors = []

    def timed(self, op, call):
        """Run and check one op; returns (nanoseconds in ``call``, ok)."""
        self.runs += 1
        start = time.perf_counter_ns()
        try:
            result = call(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            return (time.perf_counter_ns() - start,
                    self._error(f"raised {type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter_ns() - start
        try:
            ok = self.workload.check(op, result)
        except Exception as exc:
            return elapsed, self._error(f"check raised {type(exc).__name__}: {exc}")
        if not ok:
            self._error("failed its output check")
        return elapsed, ok

    def _error(self, message):
        if len(self.errors) < 5:
            self.errors.append(f"run {self.runs} {message}")
        return False


def warm_up(workload):
    loop = Loop(workload)
    deadline = time.perf_counter() + WARMUP_S
    ops = workload.ops
    while time.perf_counter() < deadline:
        _elapsed, ok = loop.timed(ops[loop.runs % len(ops)], workload.run)
        loop.failed += not ok
    return loop


def rounds(seconds, minimum=1):
    """Yield at least ``minimum`` rounds and more until ``seconds`` pass,
    each round pinned to the next CPU.

    Each CPU's speed drifts with other tenants' load, for seconds to
    minutes at a time, and the scheduler keeps a busy thread on one CPU.
    Rounds rotate over the CPUs this process may use, so that one slow
    CPU does not set a whole run's figures.
    """
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    number = 0
    try:
        while number < minimum or time.perf_counter() < deadline:
            os.sched_setaffinity(0, {cpus[number % len(cpus)]})
            yield number
            number += 1
    finally:
        os.sched_setaffinity(0, cpus)


def measure(workload, seconds):
    """Whole rounds until ``seconds`` pass; each op's fastest run, in ns.

    An op's fastest run over rounds spread across the measurement, and
    across CPUs, is the estimate of its cost that the machine's drift
    disturbs least.
    """
    loop = Loop(workload)
    best = [None] * len(workload.ops)
    for _ in rounds(seconds):
        for i, op in enumerate(workload.ops):
            elapsed, ok = loop.timed(op, workload.run)
            loop.failed += not ok
            best[i] = elapsed if best[i] is None else min(best[i], elapsed)
    return loop, best


def measure_traced(t, workload, seconds):
    """Whole rounds in which each op runs untraced, then traced."""
    tracer = tracing.Tracer(t)
    loop = Loop(workload)
    untraced_ns = 0
    for _ in rounds(seconds):
        for op in workload.ops:
            elapsed, ok = loop.timed(op, workload.run)
            untraced_ns += elapsed
            tracer.op += 1
            tracer.install()
            try:
                _elapsed, traced_ok = loop.timed(
                    op, lambda o: tracer.call(tracing.OP_SPAN, workload.run, (o,), {}))
            finally:
                tracer.restore()
            loop.failed += not (ok and traced_ok)
    return loop, tracer, untraced_ns


def end_to_end(best_ns, setup_times):
    ms = [x / 1e6 for x in best_ns]
    return {
        "throughput_ops_per_s": (len(ms) / (sum(ms) / 1e3), "ops/s"),
        "latency_ms_p50": (statistics.median(ms), "ms"),
        "latency_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_workload(args):
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        t, workload, setup_times = setup(workloads.WORKLOADS[args.workload],
                                         args.seed, workdir)
        warm = warm_up(workload)
        if args.trace:
            loop, tracer, untraced_ns = measure_traced(t, workload, args.seconds)
            metrics = tracing.layer_metrics(tracer, untraced_ns)
            if args.spans:
                tracer.write(args.spans)
            attempted = tracer.op + 1
        else:
            loop, best = measure(workload, args.seconds)
            metrics = end_to_end(best, setup_times)
            attempted = loop.runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ops = loop.failed
    for message in warm.errors + loop.errors:
        print(f"error: {args.workload}: {message}", file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, backend "
          f"{t.backend.active_name()}, {attempted} ops measured in "
          f"{attempted // len(workload.ops)} rounds of {len(workload.ops)}, "
          f"{warm.runs} warm-up ops")
    if not args.trace:
        print(f"{args.workload} failed_ratio = {failed_ops / attempted:.6g} "
              f"ratio ({failed_ops}/{attempted} ops failed)")
    for name, (value, unit) in metrics.items():
        note = f" (n={len(workload.ops)})" if name.startswith("latency_ms_") else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    result = {
        "correct": failed_ops == 0 and warm.failed == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description="tmisim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span "
                        "to this file as JSON lines")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tmisim" / "__init__.py").is_file():
        print(f"error: no tmisim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
