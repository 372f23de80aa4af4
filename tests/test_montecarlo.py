"""Experiment harness, alternative oracle, and convergence diagnostics."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcpt import (
    EstimationError,
    ExperimentConfig,
    SingularCovariance,
    affine_transform,
    alternative_oracle,
    bernoulli_model,
    consistency_diagnostics,
    exponential_model,
    gamma_model,
    get_model,
    load_config,
    lookup_critical_value,
    mme,
    normal_model,
    poisson_model,
    run_experiment,
    run_test,
    sup_zn_gap,
)
from momentcpt import limits, models, montecarlo
from momentcpt.montecarlo import _location_stats
from momentcpt.zprocess import _floor_index

from conftest import positive_mean_normal, run_fresh


def make_config(**overrides):
    base = dict(
        model="gamma",
        theta0=(1.0, 1.0),
        n=60,
        m=20,
        level=0.05,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_happy_path_and_coercion(self):
        config = make_config(theta0=[1, 1])
        assert config.theta0 == (1.0, 1.0)
        assert not config.has_change
        # numpy integers are stored as Python ints: same config, same streams
        config = make_config(n=np.int64(50), m=np.int64(4), seed=np.int64(7))
        assert [type(config.n), type(config.m), type(config.seed)] == [int] * 3
        assert config == make_config(n=50, m=4, seed=7)

    @pytest.mark.parametrize(
        "overrides,key",
        [
            (dict(n=0), "n"),
            (dict(m=0), "m"),
            (dict(level=1.0), "level"),
            (dict(seed=-1), "seed"),
            (dict(histogram_bins=-1), "histogram_bins"),
            (dict(ustar=0.5), "together"),
            (dict(theta1=(2.0, 1.0)), "together"),
            (dict(theta1=(2.0, 1.0), ustar=1.0), "ustar"),
            (dict(theta1=(1.0, 1.0), ustar=0.5), "theta1"),
            (dict(model=["gamma"]), "'model'"),
            (dict(theta0=5), "'theta0'"),
            (dict(theta0="12"), "'theta0'"),
            (dict(theta0=(1.0, "x")), "'theta0'"),
            (dict(theta1=[0.5, "x"], ustar=0.5), "'theta1'"),
            (dict(n=50.0), "'n'"),
            (dict(n=True), "'n'"),
            (dict(m=True), "'m'"),
            (dict(seed=1.5), "'seed'"),
            (dict(histogram_bins="x"), "'histogram_bins'"),
            (dict(histogram_bins=2.5), "'histogram_bins'"),
            (dict(level="0.05"), "'level'"),
            (dict(level=True), "'level'"),
            (dict(theta1=(2.0, 1.0), ustar=[0.5, "x"]), "'ustar'"),
        ],
    )
    def test_bad_values_name_the_key(self, overrides, key):
        with pytest.raises(ValueError, match=key):
            make_config(**overrides)

    def test_model_dependent_checks(self):
        with pytest.raises(ValueError, match="model"):
            make_config(model="weibull")
        with pytest.raises(ValueError, match="theta0"):
            make_config(theta0=(-1.0, 1.0))
        with pytest.raises(ValueError, match="theta1"):
            make_config(theta1=(-2.0, 1.0), ustar=0.5)
        with pytest.raises(ValueError, match="'n'"):
            make_config(n=3)


class TestAlternativeOracle:
    def test_exponential_pseudo_true_value(self):
        oracle = alternative_oracle(exponential_model(), (1.0,), (2.0,), 0.5)
        np.testing.assert_allclose(oracle.theta_star, [4.0 / 3.0], rtol=1e-12)
        np.testing.assert_allclose(oracle.sigma_star, [[0.625]])
        np.testing.assert_allclose(oracle.lambda_star, 1.6)

    def test_mean_curve_matches_mixture_exactly(self):
        g = gamma_model()
        theta0, theta1, ustar = (1.0, 0.01), (1.0, 0.05), 0.75
        oracle = alternative_oracle(g, theta0, theta1, ustar)
        mixed = ustar * g.mean(np.asarray(theta0)) + (1 - ustar) * g.mean(
            np.asarray(theta1)
        )
        np.testing.assert_allclose(g.mean(oracle.theta_star), mixed, rtol=1e-10)

    def test_equal_parameters_give_zero_drift(self):
        oracle = alternative_oracle(gamma_model(), (2.0, 1.0), (2.0, 1.0), 0.3)
        np.testing.assert_allclose(oracle.theta_star, [2.0, 1.0])
        grid = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(oracle.drift(grid), np.zeros((11, 2)))

    def test_drift_is_a_tent_peaking_at_ustar(self):
        e = exponential_model()
        oracle = alternative_oracle(e, (1.0,), (2.0,), 0.6)
        grid = np.linspace(0, 1, 101)
        norms = np.linalg.norm(oracle.drift(grid), axis=1)
        assert norms[0] == 0.0 and norms[-1] == 0.0
        peak = 0.6 * 0.4 * abs(e.mean((1.0,))[0] - e.mean((2.0,))[0])
        np.testing.assert_allclose(norms.max(), peak, rtol=1e-12)
        np.testing.assert_allclose(norms[60], peak, rtol=1e-12)

    def test_detection_bound_hand_value(self):
        oracle = alternative_oracle(exponential_model(), (1.0,), (2.0,), 0.5)
        np.testing.assert_allclose(oracle.detection_bound(100), 2.5, rtol=1e-12)

    def test_rejects_bad_ustar(self):
        with pytest.raises(ValueError):
            alternative_oracle(gamma_model(), (1.0, 1.0), (2.0, 1.0), 1.0)

    def test_names_a_theta_whose_mean_overflows(self):
        # inside gamma's domain, but alpha^2 / lam^2 = 1e320
        with pytest.raises(ValueError, match=r"mean\(theta\) is not finite .*1e\+150"):
            alternative_oracle(gamma_model(), (1e150, 1e-10), (1.0, 1.0), 0.5)

    def test_moments_whose_squares_overflow_are_served(self):
        # |mixed|^2 and |gap|^2 overflow, but theta*, the drift and the bound
        # are finite, as run_test is on moments of this size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = alternative_oracle(poisson_model(), (1e155,), (2e155,), 0.5)
            bound = oracle.detection_bound(100)
            drift = oracle.drift(np.array([0.25, 0.5]))
        np.testing.assert_allclose(oracle.theta_star, [1.5e155], rtol=1e-12)
        np.testing.assert_allclose(drift, [[-1.25e154], [-2.5e154]], rtol=1e-12)
        np.testing.assert_allclose(bound, 100 * 0.0625 * (1e155 / 1.5e155) * 1e155, rtol=1e-12)

    def test_names_a_covariance_that_overflows(self):
        # a finite mixed moment, but cov(theta1) holds 2 a (a + 1) (2 a + 3) / lam^4 = 6e310
        with pytest.raises(ValueError, match=r"mixture covariance overflows .*1e-80.*'gamma'"):
            alternative_oracle(gamma_model(), (1.0, 1.0), (1e-10, 1e-80), 0.5)

    def test_singular_mixture_covariance(self):
        flat = replace(exponential_model(), cov=lambda theta: np.zeros((1, 1)))
        with pytest.raises(SingularCovariance, match="mixture covariance"):
            alternative_oracle(flat, (1.0,), (2.0,), 0.5)


@given(
    u_hats=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40
    ),
    ustar=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=100, deadline=None)
def test_location_stats_rmse_identity(u_hats, ustar):
    u = np.asarray(u_hats)
    mean, sd, rmse = _location_stats(u, ustar)
    m = u.size
    lhs = rmse**2
    rhs = sd**2 * (m - 1) / m + (mean - ustar) ** 2
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + lhs)


class TestRunExperiment:
    def test_same_config_reproduces_exactly(self):
        config = make_config(m=30)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.rejection_rate == b.rejection_rate
        np.testing.assert_array_equal(a.u_hats, b.u_hats)
        np.testing.assert_array_equal(a.histogram_counts, b.histogram_counts)
        c = run_experiment(replace(config, seed=8))
        assert not np.array_equal(a.u_hats, c.u_hats)

    def test_jobs_do_not_change_the_result(self):
        config = make_config(n=50, m=600)
        serial = run_experiment(config, jobs=1)
        parallel = run_experiment(config, jobs=2)
        assert serial.rejection_rate == parallel.rejection_rate
        assert serial.n_failed == parallel.n_failed
        assert np.array_equal(serial.t_stats, parallel.t_stats, equal_nan=True)
        assert np.array_equal(serial.u_hats, parallel.u_hats, equal_nan=True)
        np.testing.assert_array_equal(
            serial.histogram_counts, parallel.histogram_counts
        )

    @pytest.mark.parametrize("jobs", [0, -5, 1.5, True])
    def test_bad_jobs_are_rejected_before_any_work(self, monkeypatch, jobs):
        monkeypatch.setattr(montecarlo, "_run_tasks", lambda *args: pytest.fail("ran"))
        monkeypatch.setattr(limits, "_run_tasks", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 1"):
            run_experiment(make_config(), jobs=jobs)
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 1"):
            limits.critical_value(1, 0.05, replications=100, grid=10, jobs=jobs)

    def test_no_change_experiment_has_no_location_stats(self):
        result = run_experiment(make_config(m=25))
        assert result.u_hat_mean is None
        assert result.u_hat_sd is None
        assert result.u_hat_rmse is None
        assert result.histogram_counts.sum() == result.n_completed
        assert result.u_hats.shape == result.t_stats.shape == result.rejects.shape == (25,)

    def test_size_is_near_the_nominal_level(self):
        result = run_experiment(make_config(n=100, m=400, seed=12))
        assert result.n_failed == 0
        assert result.rejection_rate <= 0.08

    def test_power_grows_with_sample_size(self):
        rates = []
        for n in (50, 100, 400):
            config = make_config(
                theta1=(2.0, 1.0), ustar=0.5, n=n, m=300, seed=33
            )
            rates.append(run_experiment(config).rejection_rate)
        assert rates[0] < rates[1] < rates[2]

    def test_location_concentrates_at_the_change(self):
        config = make_config(
            theta0=(1.0, 0.01),
            theta1=(1.0, 0.05),
            ustar=0.75,
            n=500,
            m=150,
            seed=44,
        )
        result = run_experiment(config)
        assert abs(result.u_hat_mean - 0.75) < 0.05
        assert result.u_hat_rmse < 0.1
        # modal histogram bin straddles ustar (bin 37 covers [0.74, 0.76))
        assert int(np.argmax(result.histogram_counts)) == 37
        # without bins only the histogram and the config differ
        flat = run_experiment(replace(config, histogram_bins=0))
        assert flat.histogram_counts is None and flat.histogram_edges is None
        for field in dataclasses.fields(result):
            if field.name not in ("config", "histogram_counts", "histogram_edges"):
                np.testing.assert_array_equal(
                    getattr(flat, field.name), getattr(result, field.name)
                )

    def test_failed_replications_are_counted_not_aggregated(self):
        config = ExperimentConfig(
            model="bernoulli",
            theta0=(0.2,),
            n=8,
            m=60,
            seed=5,
        )
        result = run_experiment(config)
        assert result.n_failed > 0
        assert result.n_completed + result.n_failed == 60
        assert sum(result.failure_counts.values()) == result.n_failed
        assert "DegenerateSample" in result.failure_counts
        assert np.isnan(result.u_hats).sum() == result.n_failed
        assert result.histogram_counts.sum() == result.n_completed

    def test_all_failed_replications_raise(self):
        config = ExperimentConfig(model="bernoulli", theta0=(1e-9,), n=5, m=10)
        with pytest.raises(
            EstimationError,
            match=r"all 10 replications failed: \{'DegenerateSample': 10\}",
        ):
            run_experiment(config)
        with pytest.raises(EstimationError, match="all replications failed"):
            sup_zn_gap(bernoulli_model(), (1e-9,), n=5, reps=10)

    def test_critical_value_is_checked_as_run_test_checks_it(self, monkeypatch, tmp_path):
        # a NaN table value used to give critical_value=nan and no rejection
        config = make_config(m=5)
        data = np.random.default_rng(0).gamma(1.0, 1.0, 60)
        row = limits.TableRow(float("nan"), 0.0, 100, 10, 1)
        monkeypatch.setattr(limits, "default_table", lambda: {(2, 0.05): row})
        for call in (lambda: run_experiment(config), lambda: run_test(data, gamma_model())):
            with pytest.raises(ValueError, match="critical_value must not be NaN"):
                call()
        monkeypatch.undo()
        bad = tmp_path / "bad.txt"
        bad.write_text("2 0.05 -inf 0.01 100 10 1\n")
        for call in (
            lambda: run_experiment(config, table=bad),
            lambda: run_test(data, gamma_model(), table=bad),
        ):
            with pytest.raises(ValueError, match="line 1: value must be finite, got -inf"):
                call()


def _newton_gamma():
    return dataclasses.replace(
        gamma_model(),
        name="gamma_newton",
        inverse_mean=None,
        init_guess=lambda m: np.array([1.0, 1.0 / m[0]]),
    )


def _reference_sample(model, theta0, theta1, ustar, n, rng):
    """One replication's sample, drawn with the public ``model.sample``."""
    if theta1 is None:
        return model.sample(theta0, rng, n)
    n_head = _floor_index(ustar, n)
    head = model.sample(theta0, rng, n_head)
    return np.concatenate([head, model.sample(theta1, rng, n - n_head)])


def _replay(config):
    """The experiment redone one replication at a time through run_test."""
    model = get_model(config.model)
    crit = lookup_critical_value(model.dim, config.level)
    u_hats, t_stats, rejects = [], [], []
    failures = Counter()
    for child in np.random.SeedSequence([config.seed, config.n]).spawn(config.m):
        rng = np.random.default_rng(child)
        data = _reference_sample(
            model, config.theta0, config.theta1, config.ustar, config.n, rng
        )
        try:
            report = run_test(data, model, level=config.level, critical_value=crit)
        except EstimationError as exc:
            failures[type(exc).__name__] += 1
            u_hats.append(np.nan)
            t_stats.append(np.nan)
            rejects.append(False)
            continue
        u_hats.append(report.u_hat)
        t_stats.append(report.t_stat)
        rejects.append(report.reject)
    return np.array(u_hats), np.array(t_stats), np.array(rejects), dict(failures)


def _affine_normal():
    return affine_transform(normal_model(), [[2.0, 1.0], [0.5, 3.0]], [1.0, -2.0])


# models the replay tests register next to the shipped five
TEST_MODELS = {
    "gamma_newton": _newton_gamma,
    "normal~affine": _affine_normal,
    "normal+domain": positive_mean_normal,
}


# m = 300 spans two worker tasks of 250 replications
BLOCK_CONFIGS = {
    "gamma": dict(model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=200, m=300),
    "exponential": dict(model="exponential", theta0=(1.0,), theta1=(2.0,), ustar=0.5, n=60, m=300),
    "normal": dict(model="normal", theta0=(0.0, 1.0), n=40, m=300),
    "poisson": dict(model="poisson", theta0=(0.3,), n=12, m=300),
    "bernoulli": dict(model="bernoulli", theta0=(0.4,), n=30, m=300),
    "gamma_newton": dict(model="gamma_newton", theta0=(2.0, 1.0), theta1=(2.0, 0.5), ustar=0.5, n=80, m=300),
    "bernoulli_n8": dict(model="bernoulli", theta0=(0.2,), n=8, m=60, seed=5),
    "normal~affine": dict(model="normal~affine", theta0=(1.0, 2.0), theta1=(1.0, 4.0), ustar=0.5, n=50, m=300),
    # some rows have a non-positive mean and no fit
    "normal+domain": dict(model="normal+domain", theta0=(0.1, 1.0), n=30, m=300),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CONFIGS))
def test_block_engine_matches_a_run_test_replay(name, monkeypatch):
    for model_name, factory in TEST_MODELS.items():
        monkeypatch.setitem(models._REGISTRY, model_name, factory)
    config = ExperimentConfig(**{"seed": 11, **BLOCK_CONFIGS[name]})
    result = run_experiment(config)
    u_hats, t_stats, rejects, failures = _replay(config)
    np.testing.assert_array_equal(result.u_hats, u_hats)  # NaN where failed
    assert np.array_equal(result.t_stats, t_stats, equal_nan=True)
    np.testing.assert_array_equal(result.rejects, rejects)
    assert result.failure_counts == failures
    if name in ("poisson", "bernoulli_n8", "normal+domain"):
        assert failures  # the failing rows are exercised


def _numpy_streams(entropy, reps):
    """The PCG64 ``(state, inc)`` of each spawned child, through public numpy."""
    states = [
        np.random.default_rng(child).bit_generator.state
        for child in np.random.SeedSequence(entropy).spawn(reps)
    ]
    assert all(s["has_uint32"] == 0 and s["uinteger"] == 0 for s in states)
    return [(s["state"]["state"], s["state"]["inc"]) for s in states]


# one to seven 32-bit words; 2**200 + 7 spills past the 4-word entropy pool
SCHEDULE_SEEDS = {"0": 0, "1": 1, "2^32-1": 2**32 - 1, "2^32": 2**32, "2^64+3": 2**64 + 3, "2^200+7": 2**200 + 7}


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS.values(), ids=SCHEDULE_SEEDS)
@pytest.mark.parametrize("n,reps", [(1, 1), (8, 3), (500, 40), (2**33 + 1, 2)])
def test_seed_schedule_matches_numpy_spawn(seed, n, reps):
    blocks = montecarlo._seed_blocks(seed, n, reps)
    assert [s for block in blocks for s in block] == _numpy_streams([seed, n], reps)


SAMPLE_CASES = {
    "gamma": (gamma_model(), (2.0, 1.0), (2.0, 0.5), 0.5),
    "exponential": (exponential_model(), (1.0,), None, 0.5),
    "normal": (normal_model(), (0.0, 1.0), (1.0, 2.0), 0.3),
    "poisson": (poisson_model(), (3.0,), (4.0,), 0.75),
    "bernoulli": (bernoulli_model(), (0.4,), None, 0.5),
    "normal~affine": (_affine_normal(), (1.0, 2.0), (1.0, 4.0), 0.5),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_CASES))
def test_sample_block_draws_what_each_spawned_generator_draws(name):
    model, theta0, theta1, ustar = SAMPLE_CASES[name]
    seed, n, reps = 2**64 + 3, 37, 9
    (streams,) = montecarlo._seed_blocks(seed, n, reps)
    # a generator in another state: each stream resets it
    rng = np.random.default_rng(12345)
    block = montecarlo._sample_block(model, theta0, theta1, ustar, n, streams, rng, None)
    for row, child in zip(block, np.random.SeedSequence([seed, n]).spawn(reps)):
        rng = np.random.default_rng(child)
        expected = _reference_sample(model, theta0, theta1, ustar, n, rng)
        np.testing.assert_array_equal(row, expected)


def test_gamma_experiment_outputs_are_pinned():
    config = ExperimentConfig(
        model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=500, m=2000, seed=1
    )
    result = run_experiment(config)

    def digest(values):
        return hashlib.sha256(values.tobytes()).hexdigest()

    assert digest(result.t_stats) == "1455aff6f43e0b1d46901c2326deb746c8134ce1389d8c70000999d095d60423"
    assert digest(result.u_hats) == "685d127d38992e979e4e8ea9a0eaecb31e1cd9706e2b48b415586dc15ee0ff59"


def test_closed_form_fits_take_one_call_per_block(monkeypatch):
    calls = Counter()

    def counting_gamma():
        base = gamma_model()

        def inverse_mean(m):
            calls["inverse_mean"] += 1
            return base.inverse_mean(m)

        def mean(theta):
            calls["mean"] += 1
            return base.mean(theta)

        return replace(base, name="gamma_counting", mean=mean, inverse_mean=inverse_mean)

    monkeypatch.setitem(models._REGISTRY, "gamma_counting", counting_gamma)
    config = ExperimentConfig(
        model="gamma_counting", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=200, m=300
    )
    run_experiment(config)
    # blocks of 250 and 50 replications
    assert calls == {"inverse_mean": 2, "mean": 2}


def test_long_samples_are_tested_in_several_blocks(monkeypatch):
    config = make_config(theta1=(2.0, 1.0), ustar=0.5, m=40)
    whole = run_experiment(config)
    monkeypatch.setattr(montecarlo, "_BLOCK_VALUES", 7 * config.n)
    split = run_experiment(config)
    assert np.array_equal(whole.t_stats, split.t_stats)
    np.testing.assert_array_equal(whole.u_hats, split.u_hats)


def _task(config, blocks):
    """The worker task of ``run_experiment`` that tests ``blocks``."""
    return (config.model, config.theta0, config.theta1, config.ustar, config.n, blocks)


# m = 510 gives blocks of 250, 250 and 10 replications; bernoulli at n = 8
# fails some rows
TASK_CONFIGS = {
    "gamma": dict(model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=500, m=510, seed=3),
    "bernoulli_n8": dict(model="bernoulli", theta0=(0.2,), n=8, m=510, seed=5),
}


@pytest.mark.parametrize("name", sorted(TASK_CONFIGS))
def test_a_task_of_blocks_gives_the_bits_of_fresh_single_block_tasks(name):
    config = ExperimentConfig(**TASK_CONFIGS[name])
    blocks = montecarlo._seed_blocks(config.seed, config.n, config.m)
    assert [len(b) for b in blocks] == [250, 250, 10]
    shared = montecarlo._run_chunk(_task(config, blocks))
    fresh = [montecarlo._run_chunk(_task(config, [b]))[0] for b in blocks]
    assert len(shared) == len(fresh)
    for (u_hats, t_stats, failures), (u_fresh, t_fresh, f_fresh) in zip(shared, fresh):
        assert np.array_equal(u_hats, u_fresh, equal_nan=True)
        assert np.array_equal(t_stats, t_fresh, equal_nan=True)
        assert failures == f_fresh
    if name == "bernoulli_n8":
        assert any(f for _, _, f in shared)  # the failing rows are exercised


def test_the_blocks_of_a_task_return_arrays_of_their_own():
    # the workspace is overwritten by the next block, so no result may be a
    # view of it
    config = ExperimentConfig(**TASK_CONFIGS["bernoulli_n8"])
    blocks = montecarlo._seed_blocks(config.seed, config.n, config.m)
    arrays = [
        (i, a) for i, (u_hats, t_stats, _) in enumerate(montecarlo._run_chunk(_task(config, blocks)))
        for a in (u_hats, t_stats)
    ]
    for (i, a), (j, b) in itertools.combinations(arrays, 2):
        assert i == j or not np.shares_memory(a, b)


EXPERIMENT_FAULTS = """
import resource
from momentcpt import ExperimentConfig, run_experiment
config = ExperimentConfig(
    model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=500, m=2000, seed=1
)
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_experiment(config)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
assert max(faults[1:]) < 4000, f"minor page faults per call: {faults}"
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts Linux minor page faults")
def test_an_experiment_reuses_its_block_memory():
    # a fresh interpreter, so the heap is the experiment's alone; when each
    # block allocated its own arrays, the allocator gave the freed pages
    # back and faulted them in again for the next block: about 13,400
    # minor faults per call
    run_fresh(EXPERIMENT_FAULTS)


class TestDiagnostics:
    def test_consistency_needs_a_change_config(self):
        with pytest.raises(ValueError, match="change"):
            consistency_diagnostics(make_config())

    def test_consistency_rows_track_the_bound_and_the_location(self):
        # moderate shift: a huge one is located exactly even at n=100, which
        # pins the small-n median at zero and makes the comparison vacuous
        config = make_config(theta1=(2.0, 1.0), ustar=0.5, m=60, seed=2)
        diag = consistency_diagnostics(config, n_values=(100, 300))
        assert [row.n for row in diag.rows] == [100, 300]
        for row in diag.rows:
            assert row.bound > 0.0
            assert row.frac_above_half_bound >= 0.9
        assert (
            diag.rows[1].median_abs_error <= diag.rows[0].median_abs_error
        )

    def test_sup_zn_gap_shrinks_at_root_n_rate_without_change(self):
        e = exponential_model()
        coarse = sup_zn_gap(e, (1.0,), n=250, reps=300, seed=60)
        fine = sup_zn_gap(e, (1.0,), n=1000, reps=300, seed=60)
        assert coarse > fine > 0.0
        assert 1.6 <= coarse / fine <= 2.5

    def test_sup_zn_gap_rejects_bad_arguments_before_sampling(self):
        e = exponential_model()
        for reps in (0, -3, 2.5):
            with pytest.raises(ValueError, match="reps"):
                sup_zn_gap(e, (1.0,), n=50, reps=reps)
        with pytest.raises(ValueError, match="n: need at least 3 observations"):
            sup_zn_gap(gamma_model(), (1.0, 1.0), n=2, reps=5)
        with pytest.raises(ValueError, match="n: need at least 2 observations"):
            sup_zn_gap(e, (1.0,), n=50.5, reps=5)
        unsampled = replace(e, sampler=lambda *args: pytest.fail("sampled"))
        for seed in (-1, 2.5, True):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                sup_zn_gap(unsampled, (1.0,), n=50, reps=5, seed=seed)

    def test_consistency_rows_carry_the_sup_gap(self):
        config = make_config(
            theta0=(1.0, 0.01),
            theta1=(1.0, 0.05),
            ustar=0.75,
            n=500,
            m=25,
            seed=3,
        )
        rows = consistency_diagnostics(config, n_values=(100, 400)).rows
        assert [row.n for row in rows] == [100, 400]
        assert all(row.sup_gap > 0.0 for row in rows)
        assert rows[1].sup_gap < rows[0].sup_gap
        # the gap of the config's alternative, replications and seed
        assert rows[0].sup_gap == sup_zn_gap(
            gamma_model(), (1.0, 0.01), (1.0, 0.05), 0.75, n=100, reps=25, seed=3
        )


SWEEP_CONFIGS = {
    "gamma": (
        make_config(theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, m=300, seed=3),
        (100, 400),
    ),
    # 41 of the 200 replications fail at n=4 and 3 at n=8
    "bernoulli_small_n": (
        make_config(model="bernoulli", theta0=(0.2,), theta1=(0.5,), ustar=0.5, m=200, seed=5),
        (4, 8, 16),
    ),
}


class TestSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_a_sweep_row_matches_the_experiment_at_its_size(self, name):
        config, n_values = SWEEP_CONFIGS[name]
        failed = 0
        for row in consistency_diagnostics(config, n_values).rows:
            result = run_experiment(replace(config, n=row.n))
            ok = ~np.isnan(result.u_hats)
            failed += result.n_failed
            assert row.frac_above_half_bound == float(
                np.mean(result.t_stats[ok] >= 0.5 * row.bound)
            )
            assert row.median_abs_error == float(
                np.median(np.abs(result.u_hats[ok] - config.ustar))
            )
        assert (failed > 0) == (name == "bernoulli_small_n")

    def test_a_sweep_samples_and_fits_each_block_once(self, monkeypatch):
        config, _ = SWEEP_CONFIGS["gamma"]
        base = gamma_model()
        psi_calls, sampled = [], []

        def psi(x):
            psi_calls.append(x.size)
            return base.psi(x)

        def sample_block(*args):
            sampled.append(args[4])
            return sample(*args)

        sample = montecarlo._sample_block
        counted = replace(base, psi=psi)
        monkeypatch.setattr(montecarlo, "get_model", lambda name: counted)
        monkeypatch.setattr(montecarlo, "_sample_block", sample_block)
        consistency_diagnostics(config, n_values=(100, 400))
        # blocks of 250 and 50 replications at each n
        assert sampled == [100, 100, 400, 400]
        assert psi_calls == [25_000, 5_000, 100_000, 20_000]

    def test_a_sweep_needs_no_critical_value(self):
        # no packaged critical value exists at this level, and no row reads one
        config, _ = SWEEP_CONFIGS["gamma"]
        rows = consistency_diagnostics(replace(config, level=0.07, m=20), (100,)).rows
        assert rows == consistency_diagnostics(replace(config, m=20), (100,)).rows

    def test_each_size_is_checked_as_a_config_n(self):
        config, _ = SWEEP_CONFIGS["gamma"]
        with pytest.raises(ValueError, match="config key 'n': need at least 4"):
            consistency_diagnostics(config, (3,))
        with pytest.raises(ValueError, match="config key 'n': must be a positive integer"):
            consistency_diagnostics(config, (100, 2.5))


def test_run_experiment_holds_one_block_of_moments():
    # one block of 250 rows: per observation the sample, the row buffer and
    # the path take 8 B each and the moments 16 B, which the path is summed
    # and squared in
    config = ExperimentConfig(
        model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=2000, m=250, seed=1
    )
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (config.m * config.n) < 42


def test_sup_zn_gap_holds_one_block_of_sums():
    # one block of 4 rows: per observation the sample, the path and the row
    # buffer take 8 B each, and the moments, which the test's path is
    # summed and squared in, and their copy, in which Z_n - drift is summed
    # and squared, 16 B each; the gap is squared into the spent path, not a
    # new array
    n = 2**17
    tracemalloc.start()
    try:
        sup_zn_gap(gamma_model(), (1.0, 0.01), (1.0, 0.05), 0.75, n=n, reps=4, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (4 * n) <= 64


class TestConfigFiles:
    def test_cross_product_of_lists(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "model": "gamma",
                    "theta0": [1.0, 0.01],
                    "theta1": [1.0, 0.05],
                    "ustar": [0.5, 0.75],
                    "n": [50, 100],
                    "m": 10,
                    "level": 0.05,
                    "seed": 1,
                }
            )
        )
        configs = load_config(path)
        assert [(c.ustar, c.n) for c in configs] == [
            (0.5, 50),
            (0.5, 100),
            (0.75, 50),
            (0.75, 100),
        ]

    def test_unknown_and_missing_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"model": "gamma", "theta0": [1, 1], "n": 50}')
        with pytest.raises(ValueError, match="missing config key.*m"):
            load_config(path)
        path.write_text(
            '{"model": "gamma", "theta0": [1, 1], "n": 50, "m": 5, "bogus": 1}'
        )
        with pytest.raises(ValueError, match="unrecognized config key.*bogus"):
            load_config(path)
        path.write_text("not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)
        path.write_text('[{"model": "gamma", "theta0": [1, 1], "n": 50, "m": 5}]')
        with pytest.raises(ValueError, match="expected a JSON object"):
            load_config(path)

    @pytest.mark.parametrize(
        "name,count",
        [
            ("table1_gamma.json", 3),
            ("table2_gamma.json", 9),
            ("table5.json", 3),
        ],
    )
    def test_bundled_configs_load(self, name, count):
        ref = resources.files("momentcpt").joinpath(f"_data/configs/{name}")
        with resources.as_file(ref) as path:
            configs = load_config(path)
        assert len(configs) == count
        for config in configs:
            assert config.model == "gamma"


def _gap_replay(model, theta0, theta1, ustar, n, reps, seed):
    """``sup_zn_gap`` redone one replication at a time from public pieces.

    Each ``Z_n`` is summed from the increments ``psi(X_k) - mean(theta)`` in
    ``np.longdouble``, so the replay's rounding stays below the library's
    where ``longdouble`` is wider than ``double``.
    """
    drift = alternative_oracle(model, theta0, theta1 or theta0, ustar).drift(
        np.arange(1, n + 1) / n
    )
    wide = np.longdouble
    gaps, failed = [], 0
    for child in np.random.SeedSequence([seed, n]).spawn(reps):
        rng = np.random.default_rng(child)
        data = _reference_sample(model, theta0, theta1, ustar, n, rng)
        try:
            fit = mme(data, model)
        except EstimationError:
            failed += 1
            continue
        increments = model.psi(data).astype(wide) - model.mean(fit.theta).astype(wide)
        z = np.cumsum(increments, axis=0) / n - drift
        gaps.append(float(np.sqrt((z * z).sum(axis=1).max())))
    return math.fsum(gaps) / len(gaps), failed


GAP_CASES = {
    "exponential_null": (exponential_model(), (1.0,), None, 0.5, 250, 300, 60),
    "gamma_change": (gamma_model(), (1.0, 0.01), (1.0, 0.05), 0.75, 300, 80, 3),
    "bernoulli_n8": (bernoulli_model(), (0.2,), None, 0.5, 8, 60, 5),
    # raw sums of x^2 reach 2e14, and subtracting k mean(theta) cancels
    "normal_far_from_zero": (
        normal_model(), (1e5, 1.0), (1e5 + 0.05, 1.0), 0.5, 20_000, 20, 1
    ),
}


@pytest.mark.parametrize("name", sorted(GAP_CASES))
def test_sup_zn_gap_matches_a_per_replication_replay(name):
    model, theta0, theta1, ustar, n, reps, seed = GAP_CASES[name]
    expected, failed = _gap_replay(model, theta0, theta1, ustar, n, reps, seed)
    gap = sup_zn_gap(model, theta0, theta1, ustar, n=n, reps=reps, seed=seed)
    assert abs(gap - expected) <= 1e-12 * expected
    if name == "bernoulli_n8":
        assert failed > 0  # failing rows are skipped, not averaged


def test_sup_zn_gap_evaluates_psi_once_per_block():
    base = exponential_model()
    calls = {"psi": 0}

    def psi(x):
        calls["psi"] += 1
        return base.psi(x)

    model = replace(base, psi=psi)
    sup_zn_gap(model, (1.0,), n=100, reps=300, seed=1)
    assert calls["psi"] == 2  # blocks of 250 and 50 replications


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunked_stages_give_the_same_experiment(monkeypatch, chunk):
    # the statistic core's stages run on blocks of `chunk` replications
    config = ExperimentConfig(
        model="gamma", theta0=(1.0, 0.01), theta1=(1.0, 0.05), ustar=0.75, n=300, m=40, seed=1
    )
    base, theta0, theta1, ustar, n, reps, seed = GAP_CASES["gamma_change"]
    calls = {"psi": 0}

    def psi(x):
        calls["psi"] += 1
        return base.psi(x)

    model = replace(base, psi=psi)
    whole = run_experiment(config)
    gap = sup_zn_gap(model, theta0, theta1, ustar, n=n, reps=reps, seed=seed)
    assert calls["psi"] == 1  # one block of 80 replications
    monkeypatch.setattr(montecarlo, "_MC_CHUNK", chunk)
    chunked = run_experiment(config)
    assert np.array_equal(chunked.t_stats, whole.t_stats, equal_nan=True)
    assert np.array_equal(chunked.u_hats, whole.u_hats, equal_nan=True)
    calls["psi"] = 0
    assert sup_zn_gap(model, theta0, theta1, ustar, n=n, reps=reps, seed=seed) == gap
    assert calls["psi"] == -(-reps // chunk)  # one evaluation per block
