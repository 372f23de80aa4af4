"""Benchmark of momentcpt on four closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload test_small --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the details. Workloads, metrics and
their rationale are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("test_small", "test_large", "experiment_gamma", "critval_d2")
# One BLAS thread: a single client on a shared 2-core host, and the library's
# own matrices are at most 5 x 5.
BLAS_THREADS = "1"


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _detail(key, value):
    print(f"# {key}: {json.dumps(value)}")


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "momentcpt" / "__init__.py").is_file():
        print(f"error: momentcpt sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(ROOT)]

    import momentcpt

    if Path(momentcpt.__file__).resolve().parent != (SRC / "momentcpt").resolve():
        print(f"error: imported momentcpt from {momentcpt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import layers, measure, workloads
    from perfbench.tracing import Tracer

    _detail("environment", measure.environment())
    if args.trace:
        wl = workloads.build(args.workload, args.seed)
        tracer = Tracer()
        metrics, attempted, failed, problems = layers.traced_run(wl, args.seconds, tracer)
        spans = ROOT / "perfbench" / "out" / f"spans_{args.workload}_seed{args.seed}.csv"
        tracer.write(spans)
        _detail("spans", {"count": len(tracer.spans), "file": str(spans.relative_to(ROOT))})
        units = layers.PER_LAYER
    else:
        wl = workloads.build(args.workload, args.seed)
        loop, setup = measure.probed_loop(wl, args.seconds, args.seed)
        rss = measure.peak_rss_mb()
        attempted, failed, problems = measure.check_outputs(wl, loop)
        latency = measure.latency_summary(loop.latencies_ns)
        _detail("setup_s_samples", setup)
        _detail("latency", latency)
        _detail("loop", {"items": loop.items, "seconds": loop.seconds, "calls_per_pass": wl.block})
        if wl.name == "test_small":
            by_n = {}
            for (index, _), ns in zip(loop.outputs, loop.latencies_ns):
                sample = wl.pool[index]
                if sample.model.name == "gamma":
                    by_n.setdefault(sample.n, []).append(ns / 1e6)
            _detail("gamma_p50_ms_by_n", {n: statistics.median(v) for n, v in sorted(by_n.items())})
        metrics = {
            "ops_per_s": loop.ops_per_s,
            "latency_tail_ms": latency.get("tail_ms"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "success_rate": 1.0 - failed / attempted,
        }
        units = {
            "ops_per_s": "1/s",
            "latency_tail_ms": "ms",
            "setup_s": "s",
            "peak_rss_mb": "MB",
            "success_rate": "ratio",
        }
        _detail("error_rate", failed / attempted)
    for message in problems[:5]:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
