"""The four workloads: inputs made from the seed, the timed call, its output check.

Every workload is a closed loop with one client in one process: the next call
starts when the previous one returns. A call's inputs are generated before
timing; the loop walks the pool in order and wraps around.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Any, Callable

import numpy as np

from momentcpt import (
    EstimationError,
    ExperimentConfig,
    MomentModel,
    affine_transform,
    bernoulli_model,
    critical_value,
    exponential_model,
    gamma_model,
    get_model,
    normal_model,
    poisson_model,
    run_experiment,
    run_test,
)

from . import reference

LEVEL = 0.05


def _pair(x):
    return np.column_stack((x, x * x))


def _single(x):
    return x[:, None]


_AFFINE_A = np.array([[2.0, 0.0], [1.0, 1.0]])
_AFFINE_B = np.array([3.0, -1.0])


def _affine_pair(x):
    return _pair(x) @ _AFFINE_A.T + _AFFINE_B


def _rough_gamma() -> MomentModel:
    # How a user might write gamma without the closed-form inverse: mme then
    # runs damped Newton from alpha = 1, lam = 1 / m1 (4-6 iterations).
    return dataclasses.replace(
        gamma_model(),
        name="gamma~newton",
        inverse_mean=None,
        init_guess=lambda m: np.array([1.0, 1.0 / m[0]]),
    )


@dataclasses.dataclass(frozen=True)
class Family:
    """A model with the benchmark's own moment map for the reference."""

    model: MomentModel
    moments: Callable[[np.ndarray], np.ndarray]
    theta0: tuple
    theta1: tuple


SMALL_FAMILIES = (
    Family(gamma_model(), _pair, (2.0, 1.0), (2.0, 0.5)),
    Family(normal_model(), _pair, (0.0, 1.0), (0.0, 2.0)),
    Family(poisson_model(), _single, (3.0,), (4.0,)),
    Family(exponential_model(), _single, (1.0,), (2.0,)),
    Family(bernoulli_model(), _single, (0.3,), (0.5,)),
    Family(affine_transform(normal_model(), _AFFINE_A, _AFFINE_B), _affine_pair, (0.0, 1.0), (0.0, 2.0)),
    Family(_rough_gamma(), _pair, (2.0, 1.0), (2.0, 0.5)),
)
SMALL_SIZES = (100, 500, 10_000)
SMALL_USTAR = 0.5

LARGE_FAMILY = Family(gamma_model(), _pair, (1.0, 0.01), (1.0, 0.05))
LARGE_N = 1_000_000
LARGE_USTAR = 0.75

# ROADMAP / table5.json at u* = 0.75; the config seed changes per call.
EXPERIMENT = dict(model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=500, m=2000, level=LEVEL)
EXPERIMENT_SEEDS = 4

CRITVAL_DIM = 2
CRITVAL_LEVELS = (0.10, 0.05, 0.01)
CRITVAL_GRID = 10_000
# One seed chunk of the simulator (chunks hold 1000 draws); about 0.4 s a call
# on a 2-core host, so a run holds enough calls for a tail percentile.
CRITVAL_REPLICATIONS = 500
CRITVAL_SEEDS = 4096


@dataclasses.dataclass(frozen=True)
class Sample:
    family: Family
    n: int
    data: np.ndarray

    @property
    def model(self) -> MomentModel:
        return self.family.model


def make_sample(rng, family: Family, n: int, ustar: float | None) -> Sample:
    k = n if ustar is None else math.floor(ustar * n)
    data = np.concatenate((family.model.sample(family.theta0, rng, k), family.model.sample(family.theta1, rng, n - k)))
    return Sample(family, n, data)


class Plain:
    """Calls straight through; the traced run swaps in a Tracer."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def traced_model(self, model):
        return model


PLAIN = Plain()


@dataclasses.dataclass
class Workload:
    name: str
    pool: list
    # (pool entry, tracer) -> output; tracer is PLAIN when untraced
    call: Callable[[Any, Any], Any]
    # output -> the small value kept for the check
    digest: Callable[[Any], Any]
    # (pool index, digest) -> error message, or None when correct
    check: Callable[[int, Any], str | None]
    items_per_call: int
    # calls per pass; the timed loop stops at a pass boundary, so every run
    # holds the same mix
    block: int = 1


def _call_test(sample: Sample, tr):
    return tr.call("zprocess.run_test", run_test, sample.data, tr.traced_model(sample.model), level=LEVEL)


def _digest_test(report):
    return report.t_stat, report.k_hat, report.reject


def _test_checker(pool: list[Sample], table) -> Callable:
    paths: dict[int, np.ndarray] = {}

    def check(index, out):
        sample = pool[index]
        if index not in paths:
            paths[index] = reference.statistic_path(sample.family.moments(sample.data))
        crit = table[sample.model.dim, LEVEL][0]
        return reference.check_test_report(paths[index], crit, *out)

    return check


def test_small(rng, table) -> Workload:
    pool = [
        make_sample(rng, family, n, SMALL_USTAR if change else None)
        for family in SMALL_FAMILIES
        for n in SMALL_SIZES
        for change in (True, False)
    ]
    pool = [pool[i] for i in rng.permutation(len(pool))]
    return Workload("test_small", pool, _call_test, _digest_test, _test_checker(pool, table), 1, block=len(pool))


def test_large(rng, table) -> Workload:
    pool = [make_sample(rng, LARGE_FAMILY, LARGE_N, LARGE_USTAR), make_sample(rng, LARGE_FAMILY, LARGE_N, None)]
    return Workload("test_large", pool, _call_test, _digest_test, _test_checker(pool, table), 1)


def replay_experiment(config: ExperimentConfig, crit: float, tr=PLAIN, keep: int = 0):
    """The experiment redone from its documented seed streams, one replication at a time.

    Returns the digest ``run_experiment`` should match (failure counts
    included) and the first ``keep`` samples.
    """
    model = get_model(config.model)
    n_head = math.floor(config.ustar * config.n)
    u_hats, rejects, kept = [], 0, []
    failures: Counter[str] = Counter()
    for child in np.random.SeedSequence([config.seed, config.n]).spawn(config.m):
        rng = np.random.default_rng(child)
        head = tr.call("models.sample", model.sample, config.theta0, rng, n_head)
        tail = tr.call("models.sample", model.sample, config.theta1, rng, config.n - n_head)
        data = np.concatenate((head, tail))
        if len(kept) < keep:
            kept.append(data)
        try:
            report = tr.call("zprocess.run_test", run_test, data, model, level=config.level, critical_value=crit)
        except EstimationError as exc:
            failures[type(exc).__name__] += 1
            continue
        u_hats.append(report.u_hat)
        rejects += report.reject
    counts, _ = np.histogram(u_hats, bins=config.histogram_bins, range=(0.0, 1.0))
    digest = (rejects / len(u_hats), len(u_hats), dict(failures), counts.tolist(), crit)
    return digest, kept


def _digest_experiment(result):
    return (
        result.rejection_rate,
        result.n_completed,
        dict(result.failure_counts),
        result.histogram_counts.tolist(),
        result.critical_value,
    )


def experiment_gamma(rng, table) -> Workload:
    seeds = rng.choice(2**31, size=EXPERIMENT_SEEDS, replace=False)
    pool = [ExperimentConfig(seed=int(s), **EXPERIMENT) for s in seeds]
    crit = table[get_model(EXPERIMENT["model"]).dim, LEVEL][0]
    replays: dict[int, tuple] = {}

    def check(index, out):
        if index not in replays:
            replays[index] = replay_experiment(pool[index], crit)[0]
        if out != replays[index]:
            return f"run_experiment gave {out[:3]} but the seed-stream replay gives {replays[index][:3]}"
        return None

    def call(config, tr):
        return tr.call("montecarlo.run_experiment", run_experiment, config, jobs=1)

    return Workload("experiment_gamma", pool, call, _digest_experiment, check, EXPERIMENT["m"])


def call_critval(seed, tr):
    return tr.call(
        "limits.critical_value",
        critical_value,
        CRITVAL_DIM,
        CRITVAL_LEVELS,
        replications=CRITVAL_REPLICATIONS,
        grid=CRITVAL_GRID,
        seed=seed,
        jobs=1,
    )


def critval_d2(rng, table) -> Workload:
    pool = [int(s) for s in rng.choice(2**31, size=CRITVAL_SEEDS, replace=False)]

    def digest(result):
        return result.replications, result.grid_points, dict(result.quantiles), dict(result.standard_errors)

    def check(index, out):
        reps, grid, quantiles, errors = out
        if (reps, grid) != (CRITVAL_REPLICATIONS, CRITVAL_GRID):
            return f"table reports {reps} replications on grid {grid}"
        return reference.check_critical_values(table, CRITVAL_DIM, reps, quantiles, errors)

    return Workload("critval_d2", pool, call_critval, digest, check, CRITVAL_REPLICATIONS)


WORKLOADS = {w.__name__: w for w in (test_small, test_large, experiment_gamma, critval_d2)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), reference.read_table())
