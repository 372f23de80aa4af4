"""Closed-loop timing, latency summaries, set-up probes and the environment record."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from .workloads import PLAIN, Workload

ROOT = Path(__file__).resolve().parent.parent
WARMUP_S = 1.0
# Set-up probes spread evenly over the run: one before the timed loop, one
# after it and the rest between its segments, so that the median samples the
# host's state across the whole run rather than at one moment.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10


@dataclass
class LoopResult:
    latencies_ns: list[int] = field(default_factory=list)
    # (pool index, digest or None when the call raised)
    outputs: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    items: int = 0
    seconds: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Items completed per second of timed wall time."""
        return self.items / self.seconds

    def extend(self, other: "LoopResult") -> None:
        self.latencies_ns += other.latencies_ns
        self.outputs += other.outputs
        self.errors += other.errors
        self.items += other.items
        self.seconds += other.seconds


def _timed_calls(wl: Workload, tr, start: int, count: int, result: LoopResult | None) -> None:
    for i in range(start, start + count):
        index = i % len(wl.pool)
        entry = wl.pool[index]
        t0 = perf_counter_ns()
        try:
            out = wl.call(entry, tr)
        except Exception as exc:  # a failed call is counted, not fatal
            t1 = perf_counter_ns()
            if result is not None:
                result.errors.append(f"{type(exc).__name__}: {exc}")
                result.outputs.append((index, None))
                result.latencies_ns.append(t1 - t0)
            continue
        t1 = perf_counter_ns()
        if result is not None:
            result.latencies_ns.append(t1 - t0)
            result.outputs.append((index, wl.digest(out)))


def closed_loop(wl: Workload, seconds: float, tr=PLAIN, warmup_s: float = WARMUP_S) -> LoopResult:
    """Warm up for ``warmup_s`` (at least one pass unless 0), then time whole passes until ``seconds`` have passed."""
    calls = 0
    warm_end = perf_counter() + warmup_s
    while warmup_s and (calls == 0 or perf_counter() < warm_end):
        _timed_calls(wl, tr, calls, wl.block, None)
        calls += wl.block
    gc.collect()
    result = LoopResult()
    start = perf_counter()
    while result.seconds < seconds:
        _timed_calls(wl, tr, calls, wl.block, result)
        calls += wl.block
        result.items += wl.block * wl.items_per_call
        result.seconds = perf_counter() - start
    return result


def check_outputs(wl: Workload, result: LoopResult) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, messages); a raising or wrong call fails all its items."""
    messages = list(result.errors)
    failed_calls = 0
    for index, out in result.outputs:
        problem = "raised" if out is None else wl.check(index, out)
        if problem is not None:
            failed_calls += 1
            if out is not None:
                messages.append(problem)
    return len(result.outputs) * wl.items_per_call, failed_calls * wl.items_per_call, messages


def latency_summary(latencies_ns: list[int]) -> dict:
    """Median, and the tail: the highest percentile up to the 99th with TAIL_BEYOND calls above it.

    Past the 99th percentile of thousands of sub-millisecond calls the tail
    measures the host's pauses, not the program.
    """
    ordered = sorted(latencies_ns)
    count = len(ordered)
    summary = {"calls": count, "p50_ms": statistics.median(ordered) / 1e6}
    beyond = max(TAIL_BEYOND, math.ceil(count / 100))
    if count > beyond:
        summary["tail_ms"] = ordered[count - beyond - 1] / 1e6
        summary["tail_percentile"] = 100.0 * (count - beyond) / count
    return summary


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (setup_probe.py).

    The calling process has already imported everything the probe imports, so
    the bytecode cache and the page cache are warm.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def probed_loop(wl: Workload, seconds: float, seed: int) -> tuple[LoopResult, list[float]]:
    """The untraced timed loop in SETUP_PROBES - 1 segments, with a set-up probe before, between and after them.

    Only the first segment warms up, so that splitting the loop adds little to the
    length of a run.
    """
    segments = SETUP_PROBES - 1
    result = LoopResult()
    setup = [setup_seconds(wl.name, seed)]
    for k in range(segments):
        result.extend(closed_loop(wl, seconds / segments, warmup_s=WARMUP_S if k == 0 else 0.0))
        setup.append(setup_seconds(wl.name, seed))
    return result, setup


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    cpu = [line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo") if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l3": l3.read_text().strip() if l3.exists() else None,
        "cpu": cpu[0] if cpu else platform.machine(),
    }
