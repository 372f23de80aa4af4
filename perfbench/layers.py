"""The traced run: per-layer metrics of models, estimator, zprocess, limits and montecarlo.

Every traced run prints every metric in PER_LAYER. A layer the workload does
not call reads 0. Times are self times (a span's duration minus its child
spans) unless the name says otherwise; ``_ms`` values are per ``run_test``
call, or per replication where noted.
"""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter_ns

import numpy as np

from momentcpt import (
    build_state,
    get_model,
    lookup_critical_value,
    mme,
    run_experiment,
    run_test,
    sigma_hat,
    simulate_bridge_sup,
    t_path,
)

from . import measure
from .tracing import Tracer, self_times
from .workloads import (
    CRITVAL_DIM,
    CRITVAL_GRID,
    CRITVAL_LEVELS,
    CRITVAL_REPLICATIONS,
    LEVEL,
    PLAIN,
    Workload,
    call_critval,
    replay_experiment,
)

FAILURE_TYPES = ("DegenerateSample", "OutOfDomain", "NoConvergence", "SingularJacobian", "SingularCovariance")

PER_LAYER = {
    "models.psi_calls": "count",
    "models.mean_calls": "count",
    "models.psi_ms": "ms",
    "models.mean_ms": "ms",
    "models.sample_ms": "ms",
    "estimator.mme_ms": "ms",
    "estimator.newton_iters": "count",
    "estimator.newton_share": "ratio",
    "zprocess.sigma_ms": "ms",
    "zprocess.prefix_ms": "ms",
    "zprocess.path_ms": "ms",
    "zprocess.overhead_ms": "ms",
    "zprocess.run_test_ms": "ms",
    "zprocess.bytes_computed": "B",
    "zprocess.peak_alloc_mb": "MB",
    "montecarlo.harness_ms": "ms",
    "montecarlo.failed_reps": "count",
    **{f"montecarlo.failed_reps.{name}": "count" for name in FAILURE_TYPES},
    "limits.draw_us": "us",
    "limits.quantile_ms": "ms",
    "limits.bytes_per_draw_computed": "B",
    "limits.ops_per_byte_computed": "1/B",
    "limits.lookup_us": "us",
    "bench.untraced_ops_per_s": "1/s",
    "bench.traced_ops_per_s": "1/s",
    "bench.trace_overhead_pct": "%",
}

# The pieces of run_test, called in _analyze's order; run_test adds the table
# lookup, input validation and the report.
PIECES = {
    "limits.lookup_critical_value": "limits.lookup_us",
    "estimator.mme": "estimator.mme_ms",
    "zprocess.sigma_hat": "zprocess.sigma_ms",
    "zprocess.build_state": "zprocess.prefix_ms",
    "zprocess.t_path": "zprocess.path_ms",
    "models.psi": "models.psi_ms",
    "models.mean": "models.mean_ms",
}

# Computed bytes per call of each piece, for n observations of a d-dimensional
# moment map in float64: full reads and writes of the length-n and (n, d)
# arrays each piece makes at this revision. Cache hits are ignored.
PASS_BYTES = {
    "models.psi": lambda n, d: 8 * (n + n * d),  # read x, write psi(x)
    "estimator.mme": lambda n, d: 8 * 4 * n * d,  # mean, centre (r+w), gram
    "zprocess.sigma_hat": lambda n, d: 8 * 3 * n * d,  # centre (r+w), gram
    "zprocess.build_state": lambda n, d: 8 * 2 * n * d,  # cumsum (r+w)
    # arange, outer, subtract, divide, triangular solve, quadratic form,
    # clamp and argmax
    "zprocess.t_path": lambda n, d: 8 * (12 * n * d + 6 * n),
}

# Per bridge draw of the float32 kernel on a grid of G points in d
# dimensions: normals written, cumsum read+write, endpoint removal
# read+write, squared norm read+write and max read; and its arithmetic
# (cumsum adds, scale-and-subtract, multiply-add, compare).
BRIDGE_BYTES = lambda g, d: 4 * (6 * g * d + 2 * g)  # noqa: E731
BRIDGE_OPS = lambda g, d: 5 * g * d + g  # noqa: E731

DECOMPOSE_REPS = {"test_small": 15, "test_large": 3, "experiment_gamma": 3}
EXPERIMENT_DECOMPOSE_SAMPLES = 100
EXPERIMENT_TRACE_ROUNDS = 3
CRITVAL_TRACE_CALLS = 5


def _path_and_argmax(state, theta, sigma, model):
    path = t_path(state, theta, sigma, model)
    return path, int(np.argmax(path))


def _compose(tr, data, model):
    tr.call("limits.lookup_critical_value", lookup_critical_value, model.dim, LEVEL)
    estimate = tr.call("estimator.mme", mme, data, model)
    sigma = tr.call("zprocess.sigma_hat", sigma_hat, data, estimate.theta, model)
    state = tr.call("zprocess.build_state", build_state, data, model)
    path, _ = tr.call("zprocess.t_path", _path_and_argmax, state, estimate.theta, sigma, model)
    return estimate, path


def _calls_under(tr: Tracer, start: int, child: str, parent: str) -> float:
    spans = tr.spans
    parents = sum(1 for s in spans[start:] if s[3] == parent)
    children = sum(1 for s in spans[start:] if s[3] == child and s[1] >= 0 and spans[s[1]][3] == parent)
    return children / parents


def decompose(tr: Tracer, samples, reps: int) -> tuple[dict, int, list[str]]:
    """run_test split into its public pieces, averaged over samples (median of reps each).

    Returns the metrics, the number of composed paths checked against
    run_test and the disagreements.
    """
    problems = []
    per_sample = []
    for data, model in samples:
        traced = tr.traced_model(model)
        reference_path = run_test(data, model, level=LEVEL).t_path
        estimate, path = _compose(tr, data, traced)
        if not np.array_equal(path, reference_path):
            problems.append(f"composed path differs from run_test on a sample of {model.name} n={data.shape[0]}")
        start = tr.mark()
        tr.call("zprocess.run_test", run_test, data, traced, level=LEVEL)
        psi_calls = _calls_under(tr, start, "models.psi", "zprocess.run_test")
        mean_calls = _calls_under(tr, start, "models.mean", "zprocess.run_test")

        pieces = {metric: [] for metric in PIECES.values()}
        run_ns = []
        for _ in range(reps):
            start = tr.mark()
            tr.call("bench.compose", _compose, tr, data, traced)
            totals, calls = self_times(tr.spans[start:])
            for name, metric in PIECES.items():
                pieces[metric].append(totals.get(name, 0))
            t0 = perf_counter_ns()
            run_test(data, model, level=LEVEL)
            run_ns.append(perf_counter_ns() - t0)
        n, d = data.shape[0], model.dim
        bytes_computed = sum(calls[name] * size(n, d) for name, size in PASS_BYTES.items())

        tracemalloc.start()
        run_test(data, model, level=LEVEL)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        row = {metric: statistics.median(v) / 1e6 for metric, v in pieces.items()}
        row["zprocess.run_test_ms"] = statistics.median(run_ns) / 1e6
        # validation and the report: what run_test spends outside its pieces
        row["zprocess.overhead_ms"] = row["zprocess.run_test_ms"] - sum(row[m] for m in PIECES.values())
        row["limits.lookup_us"] *= 1e3
        row["models.psi_calls"] = psi_calls
        row["models.mean_calls"] = mean_calls
        row["estimator.newton_iters"] = estimate.iterations
        row["zprocess.bytes_computed"] = bytes_computed
        row["zprocess.peak_alloc_mb"] = peak / 2**20
        per_sample.append((estimate.method == "newton", row))

    metrics = {k: statistics.fmean(row[k] for _, row in per_sample) for k in per_sample[0][1]}
    metrics["zprocess.peak_alloc_mb"] = max(row["zprocess.peak_alloc_mb"] for _, row in per_sample)
    mme_total = sum(row["estimator.mme_ms"] for _, row in per_sample)
    metrics["estimator.newton_share"] = sum(row["estimator.mme_ms"] for newton, row in per_sample if newton) / mme_total
    return metrics, len(per_sample), problems


def _experiment_layers(tr: Tracer, wl: Workload) -> tuple[dict, int, list[str]]:
    config = wl.pool[0]
    crit = lookup_critical_value(get_model(config.model).dim, config.level)
    # run_experiment and its replay alternate, so host drift hits both alike
    experiment_ns, sample_ns, run_test_ns, problems = [], [], [], []
    for _ in range(EXPERIMENT_TRACE_ROUNDS):
        t0 = perf_counter_ns()
        tr.call("montecarlo.run_experiment", run_experiment, config, jobs=1)
        experiment_ns.append(perf_counter_ns() - t0)
        start = tr.mark()
        digest, kept = replay_experiment(config, crit, tr, keep=EXPERIMENT_DECOMPOSE_SAMPLES)
        totals, _ = self_times(tr.spans[start:])
        sample_ns.append(totals["models.sample"])
        run_test_ns.append(sum(s[5] - s[4] for s in tr.spans[start:] if s[3] == "zprocess.run_test"))
        problem = wl.check(0, digest)
        if problem is not None:
            problems.append(f"traced replay: {problem}")

    model = get_model(config.model)
    metrics, checks, more = decompose(tr, [(data, model) for data in kept], DECOMPOSE_REPS[wl.name])
    per_rep = 1e6 * config.m
    metrics["models.sample_ms"] = statistics.median(sample_ns) / per_rep
    metrics["zprocess.run_test_ms"] = statistics.median(run_test_ns) / per_rep
    # run_experiment's own time per replication beyond sampling and testing
    metrics["montecarlo.harness_ms"] = (
        statistics.median(experiment_ns) / per_rep - metrics["models.sample_ms"] - metrics["zprocess.run_test_ms"]
    )
    failures = digest[2]
    metrics["montecarlo.failed_reps"] = sum(failures.values())
    for name in FAILURE_TYPES:
        metrics[f"montecarlo.failed_reps.{name}"] = failures.get(name, 0)
    return metrics, checks + EXPERIMENT_TRACE_ROUNDS, problems + more


def _critval_layers(tr: Tracer, wl: Workload) -> tuple[dict, int, list[str]]:
    draw_ns, total_ns, problems = [], [], []
    for seed in wl.pool[:CRITVAL_TRACE_CALLS]:
        # critical_value spawns one child seed per chunk of 1000 draws
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        t0 = perf_counter_ns()
        draws = tr.call("limits.simulate_bridge_sup", simulate_bridge_sup, CRITVAL_DIM, CRITVAL_GRID, rng, CRITVAL_REPLICATIONS)
        t1 = perf_counter_ns()
        table = call_critval(seed, tr)
        t2 = perf_counter_ns()
        draw_ns.append(t1 - t0)
        total_ns.append(t2 - t1)
        draws = np.sort(draws)
        if any(float(np.quantile(draws, 1.0 - lvl)) != table.quantiles[lvl] for lvl in CRITVAL_LEVELS):
            problems.append(f"critical_value(seed={seed}) differs from quantiles of its own draws")
    return {
        "limits.draw_us": statistics.median(draw_ns) / CRITVAL_REPLICATIONS / 1e3,
        # what critical_value adds to its draws: seeding, sorting and quantiles
        "limits.quantile_ms": (statistics.median(total_ns) - statistics.median(draw_ns)) / 1e6,
        "limits.bytes_per_draw_computed": BRIDGE_BYTES(CRITVAL_GRID, CRITVAL_DIM),
        "limits.ops_per_byte_computed": BRIDGE_OPS(CRITVAL_GRID, CRITVAL_DIM) / BRIDGE_BYTES(CRITVAL_GRID, CRITVAL_DIM),
    }, CRITVAL_TRACE_CALLS, problems


def traced_run(wl: Workload, seconds: float, tr: Tracer) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics, attempted and failed items, and problem messages."""
    # Alternate untraced and traced halves twice so drift on a shared host
    # hits both sides alike.
    untraced, traced = measure.LoopResult(), measure.LoopResult()
    for _ in range(2):
        for result, tracer in ((untraced, PLAIN), (traced, tr)):
            result.extend(measure.closed_loop(wl, seconds / 4, tracer))
    attempted = failed = 0
    problems = []
    for result in (untraced, traced):
        a, f, p = measure.check_outputs(wl, result)
        attempted, failed, problems = attempted + a, failed + f, problems + p

    metrics = dict.fromkeys(PER_LAYER, 0)
    if wl.name.startswith("test_"):
        more, checks, extra = decompose(tr, [(s.data, s.model) for s in wl.pool], DECOMPOSE_REPS[wl.name])
    elif wl.name == "experiment_gamma":
        more, checks, extra = _experiment_layers(tr, wl)
    else:
        more, checks, extra = _critval_layers(tr, wl)
    metrics.update(more)
    # each check made while splitting the layers counts as one item
    attempted += checks
    failed += len(extra)
    problems += extra

    metrics["bench.untraced_ops_per_s"] = untraced.ops_per_s
    metrics["bench.traced_ops_per_s"] = traced.ops_per_s
    metrics["bench.trace_overhead_pct"] = 100.0 * (1.0 - traced.ops_per_s / untraced.ops_per_s)
    return metrics, attempted, failed, problems
