"""Partial-sum process, statistic path, and the test report."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from momentcpt import (
    DegenerateSample,
    EstimationError,
    OutOfDomain,
    SingularCovariance,
    affine_transform,
    build_state,
    detect,
    exponential_model,
    gamma_model,
    get_model,
    lookup_critical_value,
    mme,
    normal_model,
    run_test,
    sigma_hat,
    t_path,
    z_at,
)

from momentcpt import estimator, zprocess

from conftest import SAFE_THETA, brute_force_path

DATA_123 = np.array([1.0, 2.0, 3.0])


def test_centred_moments_of_gamma_moment_map():
    # psi = (x, x^2) of 1, 2, 3 has the average (2, 14/3)
    state = build_state(DATA_123, gamma_model())
    np.testing.assert_array_equal(state.psi_bar, [2.0, 14.0 / 3.0])
    np.testing.assert_array_equal(
        state.centred,
        [[-1.0, 1.0 - 14.0 / 3.0], [0.0, 4.0 - 14.0 / 3.0], [1.0, 9.0 - 14.0 / 3.0]],
    )
    assert state.n == 3 and state.dim == 2


def test_z_at_endpoints_and_interior_value():
    g = gamma_model()
    state = build_state(DATA_123, g)
    np.testing.assert_array_equal(z_at(state, 0.0, (1.0, 1.0), g), [0.0, 0.0])
    # theta = (4, 2) has mean curve value exactly (2, 5).
    np.testing.assert_allclose(
        z_at(state, 2.0 / 3.0, (4.0, 2.0), g), [-1.0 / 3.0, -5.0 / 3.0]
    )
    with pytest.raises(ValueError):
        z_at(state, 1.5, (1.0, 1.0), g)


def test_z_at_one_vanishes_at_the_estimate():
    g = gamma_model()
    rng = np.random.default_rng(11)
    data = rng.gamma(2.0, 1.0, 200)
    state = build_state(data, g)
    fit = mme(data, g)
    psi_bar = g.psi(data).mean(axis=0)
    z_end = z_at(state, 1.0, fit.theta, g)
    assert np.linalg.norm(z_end) <= 1e-8 * (1.0 + np.linalg.norm(psi_bar))


def test_z_at_keeps_its_digits_far_from_zero():
    # raw sums of x^2 reach 5e15 at u = 0.5, and subtracting k mean(theta)
    # from them cancels all but a few digits of Z_n
    g = normal_model()
    n = 1_000_000
    x = np.random.default_rng(5).normal(1e5, 1.0, n)
    theta = mme(x, g).theta
    z = z_at(build_state(x, g), 0.5, theta, g)
    wide = np.longdouble
    increments = g.psi(x[: n // 2]).astype(wide) - g.mean(theta).astype(wide)
    ref = increments.sum(axis=0) / n
    np.testing.assert_allclose(z, ref.astype(float), rtol=1e-12)


def test_build_state_holds_the_moments_and_one_row_per_observation():
    # gamma moments are 16 B per observation and the covariance's product
    # row 8 B; the moments are centred in place
    n = 2**18
    data = np.random.default_rng(1).gamma(1.0, 100.0, n)
    tracemalloc.start()
    try:
        build_state(data, gamma_model())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"[memory] build_state: {peak / n:.1f} B per observation (bound 26)")
    assert peak / n < 26


def test_sigma_hat_hand_value():
    g = gamma_model()
    fit = mme(DATA_123, g)
    sigma = sigma_hat(DATA_123, fit.theta, g)
    np.testing.assert_allclose(sigma[0, 0], 2.0 / 3.0)
    np.testing.assert_array_equal(sigma, sigma.T)


def test_sigma_hat_constant_data_is_singular():
    g = gamma_model()
    with pytest.raises(SingularCovariance):
        sigma_hat(np.full(8, 2.0), (1.0, 1.0), g)


def test_sigma_hat_converges_to_model_cov():
    g = gamma_model()
    rng = np.random.default_rng(99)
    data = rng.gamma(1.0, 1.0, 200_000)
    fit = mme(data, g)
    np.testing.assert_allclose(
        sigma_hat(data, fit.theta, g), g.cov((1.0, 1.0)), rtol=0.08
    )


def test_t_path_endpoints_and_nonnegativity():
    g = gamma_model()
    rng = np.random.default_rng(5)
    data = rng.gamma(1.5, 2.0, 150)
    fit = mme(data, g)
    state = build_state(data, g)
    path = t_path(state, fit.theta, sigma_hat(data, fit.theta, g), g)
    assert path.shape == (151,)
    assert path[0] == 0.0
    assert path[-1] <= 1e-12
    assert np.all(path >= 0.0)


@pytest.mark.parametrize("name", sorted(SAFE_THETA))
def test_t_path_equals_brute_force(name):
    model = get_model(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    data = model.sample(SAFE_THETA[name], rng, 120)
    fit = mme(data, model)
    sigma = sigma_hat(data, fit.theta, model)
    fast = t_path(build_state(data, model), fit.theta, sigma, model)
    slow = brute_force_path(data, model, fit.theta, sigma)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_t_path_rejects_a_singular_sigma_and_takes_a_regularised_one():
    g = gamma_model()
    state = build_state(DATA_123, g)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularCovariance):
        t_path(state, (1.0, 1.0), singular, g)
    path = t_path(state, (1.0, 1.0), singular + 1e-6 * np.eye(2), g)
    assert np.all(np.isfinite(path))


def test_run_test_report_is_self_consistent():
    g = gamma_model()
    rng = np.random.default_rng(21)
    data = np.concatenate([rng.gamma(1.0, 1.0, 150), rng.gamma(1.0, 4.0, 150)])
    report = run_test(data, g, critical_value=2.408)
    assert report.t_stat == report.t_path.max()
    assert report.k_hat == int(np.argmax(report.t_path))
    assert report.u_hat == report.k_hat / report.n
    assert report.reject == (report.t_stat > report.critical_value)
    assert report.reject  # quadrupled scale halfway through the sample


def test_run_test_rejects_bad_level_and_short_data():
    g = gamma_model()
    with pytest.raises(ValueError, match="level"):
        run_test(DATA_123 * 1.1, g, level=0.0, critical_value=1.0)
    with pytest.raises(ValueError, match="at least"):
        run_test(np.array([1.0, 2.0, 3.0]), g, critical_value=1.0)


def test_nan_critical_value_is_rejected_by_name():
    # a 20x scale change halfway through: T is about 70, far above any table
    g = gamma_model()
    data = np.array([1.0, 2.0, 3.0, 4.0] * 38 + [20.0, 40.0, 60.0, 80.0] * 38)
    assert run_test(data, g, critical_value=np.inf).reject is False
    assert run_test(data, g, critical_value=-np.inf).reject is True
    with pytest.raises(ValueError, match="critical_value"):
        run_test(data, g, critical_value=float("nan"))


def test_data_far_from_zero_are_tested_without_an_overflow():
    # the residual bound's |psi_bar|^2 overflowed here, with a RuntimeWarning
    data = 1e155 * (1.0 + 1e-10 * np.random.default_rng(0).standard_normal(100))
    report = run_test(data, exponential_model())
    # the spread is 1e-10 of the level, so rounding moves T at about 1e-6
    scaled = run_test(data / 1e155, exponential_model())
    assert report.t_stat == pytest.approx(scaled.t_stat, rel=1e-4)
    assert report.k_hat == scaled.k_hat


def test_run_test_uses_packaged_table_by_default():
    g = gamma_model()
    rng = np.random.default_rng(303)
    data = rng.gamma(1.0, 1.0, 400)
    report = run_test(data, g, level=0.05)
    assert report.critical_value == lookup_critical_value(2, 0.05)


def test_change_point_takes_first_of_tied_maxima():
    # psi_bar = 2 exactly and Z_n = (-1, 0, -1, 0) / 4: the path ties at k = 1, 3
    report = detect(np.array([1.0, 3.0, 1.0, 3.0]), exponential_model())
    np.testing.assert_array_equal(report.t_path, [0.0, 0.25, 0.0, 0.25, 0.0])
    assert (report.u_hat, report.k_hat) == (0.25, 1)


def test_detect_reports_location_without_a_decision():
    e = get_model("exponential")
    report = detect(np.array([1.0, 2.0, 0.5]), e)
    assert report.level is None and report.critical_value is None
    assert not report.reject
    assert 0 <= report.k_hat <= 3


def test_time_reversal_mirrors_the_location():
    g = gamma_model()
    rng = np.random.default_rng(606)
    for _ in range(30):
        data = np.concatenate(
            [rng.gamma(1.0, 1.0, 90), rng.gamma(1.0, 3.0, 83)]
        )
        fwd = detect(data, g)
        rev = detect(data[::-1], g)
        assert rev.k_hat == fwd.n - fwd.k_hat
        np.testing.assert_allclose(rev.t_stat, fwd.t_stat, rtol=1e-9)


def test_permutation_leaves_estimate_and_statistic_law_unchanged():
    g = gamma_model()
    rng = np.random.default_rng(777)
    t_orig = np.empty(400)
    t_perm = np.empty(400)
    for i in range(400):
        data = rng.gamma(1.0, 1.0, 200)
        shuffled = rng.permutation(data)
        a = run_test(data, g, critical_value=2.408)
        b = run_test(shuffled, g, critical_value=2.408)
        np.testing.assert_allclose(a.theta_hat, b.theta_hat, rtol=1e-12)
        np.testing.assert_allclose(a.sigma_hat, b.sigma_hat, rtol=1e-12)
        t_orig[i], t_perm[i] = a.t_stat, b.t_stat
    diff = t_orig - t_perm
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.0 * se


def test_null_095_quantile_approaches_asymptotic_value():
    # At n=500 the 95th percentile of the statistic sits a little below its
    # large-n limit (~2.49); the band 2.408 +/- 0.15 covers the finite-sample
    # value (~2.27 at this seed and m).
    g = gamma_model()
    rng = np.random.default_rng(880)
    m, n = 10_000, 500
    samples = rng.gamma(1.0, 1.0, size=(m, n))
    stats = np.empty(m)
    for i in range(m):
        stats[i] = run_test(samples[i], g, critical_value=np.inf).t_stat
    q95 = np.quantile(stats, 0.95)
    assert abs(q95 - 2.408) <= 0.15


def test_huge_single_shift_is_located_exactly():
    normal = get_model("normal")
    rng = np.random.default_rng(4242)
    hits = 0
    reps = 200
    for _ in range(reps):
        data = np.concatenate(
            [rng.normal(0.0, 1.0, 37), rng.normal(100.0, 1.0, 63)]
        )
        if detect(data, normal).k_hat == 37:
            hits += 1
    assert hits / reps >= 0.99


def _newton_gamma():
    return dataclasses.replace(
        gamma_model(),
        name="gamma~newton",
        inverse_mean=None,
        init_guess=lambda m: np.array([1.0, 1.0 / m[0]]),
    )


COMPOSED_MODELS = {
    **{name: (get_model(name), SAFE_THETA[name]) for name in sorted(SAFE_THETA)},
    "gamma~newton": (_newton_gamma(), SAFE_THETA["gamma"]),
    "normal~affine": (
        affine_transform(get_model("normal"), [[2.0, 0.0], [1.0, 1.0]], [3.0, -1.0]),
        SAFE_THETA["normal"],
    ),
    # no inverse_mean to pull back: the Newton path through the transform
    "gamma~newton~affine": (
        affine_transform(_newton_gamma(), [[2.0, 0.0], [1.0, 1.0]], [3.0, -1.0]),
        SAFE_THETA["gamma"],
    ),
}


@pytest.mark.parametrize("name", sorted(COMPOSED_MODELS))
@pytest.mark.parametrize("n", [7, 300])
def test_composed_pieces_give_the_run_test_path_bit_for_bit(name, n):
    model, theta = COMPOSED_MODELS[name]
    data = model.sample(theta, np.random.default_rng(n), n)
    report = run_test(data, model, critical_value=1.0)
    fit = mme(data, model)
    sigma = sigma_hat(data, fit.theta, model)
    path = t_path(build_state(data, model), fit.theta, sigma, model)
    assert np.array_equal(fit.theta, report.theta_hat)
    assert np.array_equal(sigma, report.sigma_hat)
    assert np.array_equal(path, report.t_path)


@pytest.mark.parametrize("n", [7, 1 << 15])
def test_t_path_leaves_the_state_as_it_is(n):
    # the path is whitened and summed in a copy of the state's centred moments
    model = gamma_model()
    data = model.sample((2.0, 1.0), np.random.default_rng(5), n)
    state = build_state(data, model)
    centred = state.centred.copy()
    fit = mme(data, model)
    sigma = sigma_hat(data, fit.theta, model)
    first = t_path(state, fit.theta, sigma, model)
    assert np.array_equal(state.centred, centred)
    assert state.centred.flags.writeable
    assert np.array_equal(t_path(state, fit.theta, sigma, model), first)


def _outcome(model, data):
    """What the test and its pieces give for one sample: arrays, or the error."""
    try:
        report = detect(data, model)
        fit = mme(data, model)
        sigma = sigma_hat(data, fit.theta, model)
        path = t_path(build_state(data, model), fit.theta, sigma, model)
    except (ValueError, DegenerateSample) as exc:
        return type(exc), str(exc)
    # the composed pieces give the path of the core
    assert np.array_equal(path, report.t_path)
    assert np.array_equal(sigma, report.sigma_hat)
    return report.t_path, report.sigma_hat, report.theta_hat, report.k_hat


def _same(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert np.array_equal(a, b), (a, b)


def _failing_block():
    """Rows that pass, then rows that fail at each check of the moment stage."""
    block = np.random.default_rng(9).gamma(2.0, 1.0, size=(6, 100))
    block[1, 50] = 1e200  # its square is not finite
    block[2, 60:70] = 1e154  # finite squares whose sum overflows at S_62
    block[3, 50] = 1e100  # moments up to 1e200, whose squares overflow
    block[4] = 3.0  # degenerate
    return block


def _row_outcomes(block, model, chunk):
    """The statistic core on ``block`` in blocks of ``chunk`` rows, per row as :func:`_outcome` gives it."""
    out = []
    for start in range(0, len(block), chunk):
        part = block[start : start + chunk]
        rows = zprocess._statistic(part, zprocess._psi(part, model), model, {})
        for i, error in enumerate(rows.errors):
            if error is None:
                out.append((rows.paths[i].copy(), rows.sigma[i], rows.theta[i], rows.k_hat[i]))
            else:
                out.append((type(error), str(error)))
    return out


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(COMPOSED_MODELS))
@pytest.mark.parametrize("n", [7, 300])
def test_chunked_stages_give_the_same_bits(chunk, name, n):
    # the sample is the last row of a block of `chunk` samples
    model, theta = COMPOSED_MODELS[name]
    data = model.sample(theta, np.random.default_rng(n), n)
    rng = np.random.default_rng(n + 1)
    others = [model.sample(theta, rng, n) for _ in range(chunk - 1)]
    block = np.array([*others, data], dtype=float)
    _same(_row_outcomes(block, model, chunk)[-1], _outcome(model, data))


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunked_stages_fail_a_row_as_a_whole_one_does(chunk):
    g = gamma_model()
    block = np.vstack([_failing_block()] * 11)  # 66 rows: several blocks of 7 and 64
    rows = zprocess._statistic(block, zprocess._psi(block, g), g, {})
    chunked = _row_outcomes(block, g, chunk)
    for i, row in enumerate(block):
        alone = _outcome(g, row)
        if rows.errors[i] is None:
            _same(alone, (rows.paths[i], rows.sigma[i], rows.theta[i], rows.k_hat[i]))
        else:
            assert alone == (type(rows.errors[i]), str(rows.errors[i]))
        _same(chunked[i], alone)
    assert rows.errors[0] is None and rows.errors[5] is None
    assert "psi(data[50]) is not finite" in str(rows.errors[1])
    assert "sum of psi(data[:62]) overflows" in str(rows.errors[2])
    assert "covariance of psi(data) overflows" in str(rows.errors[3])
    assert isinstance(rows.errors[4], DegenerateSample)


def test_a_workspace_changes_no_result():
    # a workspace decides only where the arrays live: in the NaN-filled
    # buffers that an earlier block four times the size left behind, the
    # statistic and the moments it leaves are those of a fresh workspace
    g = gamma_model()
    block = _failing_block()
    m, n = block.shape
    used = {
        "row": np.full(4 * m * (n + 1), np.nan),
        "psi": np.full(4 * m * n * g.dim, np.nan),
        "block": np.full(4 * m * n, np.nan),
    }
    runs = []
    for work in ({}, used):
        moments = zprocess._psi(block, g)
        runs.append((zprocess._statistic(block, moments, g, work), moments))
    (fresh, right), (shared, left) = runs
    assert np.shares_memory(shared.paths, used["row"])
    for name in ("paths", "t_stats", "u_hats", "theta", "sigma"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name), equal_nan=True), name
    assert [repr(e) for e in shared.errors] == [repr(e) for e in fresh.errors]
    assert any(e is not None for e in fresh.errors)
    assert np.array_equal(left, right, equal_nan=True)


def test_run_test_holds_the_moments_and_one_row_per_observation():
    # gamma moments are 16 B per observation and the scratch row 8 B; the
    # whitened increments are summed in place in the moments, and the path
    # is the whitening temporary's row, which is dropped before it grows
    n = 2**18
    data = np.random.default_rng(1).gamma(1.0, 100.0, n)
    tracemalloc.start()
    try:
        run_test(data, gamma_model())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"[memory] run_test: {peak / n:.1f} B per observation (bound 26)")
    assert peak / n < 26


def test_run_test_finds_no_spread_without_copying_the_moments():
    # poisson moments are 8 B per observation and the scratch row 8 B. The
    # first and last observations are equal, so the row is a candidate for
    # a constant moment; as every row of the block is one, its moments are
    # compared where they lie (1 B of verdicts per observation), not in an
    # 8 B copy
    n = 2**17
    data = np.random.default_rng(1).poisson(4, n).astype(float)
    data[-1] = data[0]
    tracemalloc.start()
    try:
        run_test(data, get_model("poisson"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"[memory] run_test, poisson candidate row: {peak / n:.2f} B per observation (bound 16.5)")
    assert peak / n < 16.5


def _counting(model):
    calls = {"psi": 0}

    def psi(x):
        calls["psi"] += 1
        return model.psi(x)

    return dataclasses.replace(model, psi=psi), calls


@pytest.mark.parametrize("name", ["gamma", "poisson"])
def test_run_test_and_detect_evaluate_psi_once(name):
    model, calls = _counting(get_model(name))
    data = model.sample(SAFE_THETA[name], np.random.default_rng(8), 200)
    run_test(data, model, critical_value=1.0)
    assert calls["psi"] == 1
    detect(data, model)
    assert calls["psi"] == 2
    build_state(data, model)
    assert calls["psi"] == 3


def test_chunked_stages_evaluate_psi_once():
    # the fit, covariance and path stages take the block's moments and
    # evaluate psi no more
    model, calls = _counting(gamma_model())
    block = np.random.default_rng(8).gamma(2.0, 1.0, size=(21, 200))
    for start in range(0, 21, 7):
        part = block[start : start + 7]
        zprocess._statistic(part, zprocess._psi(part, model), model, {})
    assert calls["psi"] == 3


@pytest.mark.parametrize("name", ["exponential", "gamma"])
def test_run_test_leaves_the_callers_data_alone(name):
    # dim-1 moment maps return a view of the data; the core must not centre
    # that view in place
    model = get_model(name)
    data = model.sample(SAFE_THETA[name], np.random.default_rng(3), 50)
    kept = data.copy()
    run_test(data, model, critical_value=1.0)
    sigma_hat(data, mme(data, model).theta, model)
    assert np.array_equal(data, kept)


def _entry_points(data, model, theta):
    """Calls of the five public functions that take a sample, on ``data``."""
    return [
        lambda: run_test(data, model, critical_value=1.0),
        lambda: detect(data, model),
        lambda: mme(data, model),
        lambda: build_state(data, model),
        lambda: sigma_hat(data, theta, model),
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_with_its_index(bad):
    data = np.random.default_rng(17).gamma(2.0, 1.0, 40)
    data[17] = bad
    for call in _entry_points(data, gamma_model(), (2.0, 1.0)):
        with pytest.raises(ValueError, match=r"data\[17\]"):
            call()


def test_data_that_is_not_one_dimensional_is_rejected():
    for call in _entry_points(np.ones((5, 4)), gamma_model(), (2.0, 1.0)):
        with pytest.raises(ValueError, match="data must be one-dimensional"):
            call()


@pytest.mark.parametrize(
    "theta",
    [(1.0, 0.0), (1.0, -1.0), (1.0, np.nan), (1.0,)],
    ids=["zero-rate", "negative-rate", "nan", "one-coordinate"],
)
def test_pieces_reject_theta_outside_the_domain(theta):
    g = gamma_model()
    state = build_state(DATA_123, g)
    calls = [
        lambda: sigma_hat(DATA_123, theta, g),
        lambda: t_path(state, theta, np.eye(2), g),
        lambda: z_at(state, 0.5, theta, g),
    ]
    for call in calls:
        with pytest.raises(OutOfDomain, match="theta"):
            call()


@pytest.mark.parametrize(
    "sigma",
    [
        np.full((2, 2), np.nan),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.eye(3),
        np.ones(2),
        np.array([[2.0, 0.0], [1.0, 2.0]]),
    ],
    ids=["nan", "inf", "3x3", "vector", "asymmetric"],
)
def test_t_path_rejects_a_sigma_that_is_not_finite_and_square(sigma):
    g = gamma_model()
    state = build_state(DATA_123, g)
    with pytest.raises(ValueError, match="sigma"):
        t_path(state, (1.0, 1.0), sigma, g)


@pytest.mark.parametrize("name", ["gamma", "exponential", "normal", "poisson"])
@pytest.mark.parametrize("value", [3.0, 0.1, 0.3])
@pytest.mark.parametrize("n", [10, 1000])
def test_constant_data_is_degenerate(name, value, n):
    # n copies of 0.1 do not sum to exactly n * 0.1, so psi_bar misses the
    # value and the centred sample is a spurious nonzero constant
    model = get_model(name)
    constant = np.full(n, value)
    with pytest.raises(DegenerateSample):
        run_test(constant, model, critical_value=1.0)
    with pytest.raises(DegenerateSample):
        detect(constant, model)
    with pytest.raises(DegenerateSample):
        mme(constant, model)


@pytest.mark.parametrize("name", ["gamma", "normal"])
def test_moments_that_overflow_are_named(name):
    model = get_model(name)
    data = model.sample(SAFE_THETA[name], np.random.default_rng(5), 100)
    data[50] = 1e200  # finite, but its square is not
    # and a constant sample: the constant-column rule zeroes the failed
    # row's covariance, so only the zeroing of its moments keeps the later
    # stages from a warning
    for x, k in ((data, 50), (np.full(10, 1e200), 0)):
        expected = rf"psi\(data\[{k}\]\) is not finite \(data\[{k}\] = 1e\+200\)"
        for call in _entry_points(x, model, SAFE_THETA[name]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=expected):
                    call()


@pytest.mark.parametrize("name", ["gamma", "normal"])
def test_a_covariance_that_overflows_is_named(name):
    model = get_model(name)
    data = np.random.default_rng(0).gamma(2.0, 1.0, 200)
    data[50] = 1e100  # its moments, up to 1e200, are finite; their squares are not
    calls = [
        lambda: run_test(data, model),
        lambda: detect(data, model),
        lambda: mme(data, model),
        lambda: build_state(data, model),
        lambda: sigma_hat(data, SAFE_THETA[name], model),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"covariance .* overflows \(data\[50\] = 1e\+100\)"):
                call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["normal", "gamma", "exponential"])
def test_tiny_data_give_the_statistic_or_a_named_underflow(name):
    # below about 1e-77 the variance of x**2 under psi = (x, x**2) is not a
    # normal double: stored as 0 it made the sample degenerate, stored
    # subnormal it moved T by up to 2.4e-5 without a warning
    model = get_model(name)
    draw = {
        "normal": lambda rng: rng.standard_normal(500),
        "gamma": lambda rng: rng.gamma(2.0, 1.0, 500),
        "exponential": lambda rng: rng.exponential(1.0, 500),
    }[name]
    x = draw(np.random.default_rng(0))
    t = run_test(x, model).t_stat
    refused = []
    for e in range(12, 161, 4):
        try:
            scaled = run_test(x * 10.0**-e, model).t_stat
        except ValueError as exc:
            assert str(exc).startswith("the covariance of psi(data) underflows (data[")
            refused.append(e)
        else:
            assert abs(scaled - t) <= 1e-12, e
    assert refused == list(range(80 if model.dim == 2 else 156, 161, 4))
    # the entry points that run the moment stage name it alike, and tiny
    # constant data stay degenerate
    tiny = x * 1e-160
    calls = [
        lambda: run_test(tiny, model),
        lambda: detect(tiny, model),
        lambda: mme(tiny, model),
        lambda: build_state(tiny, model),
        lambda: sigma_hat(tiny, SAFE_THETA[name], model),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"covariance of psi\(data\) underflows \(data\["):
            call()
    with pytest.raises(DegenerateSample):
        run_test(np.full(500, 1e-100), model)


# the worst |T(x + c) / T(x) - 1| over seeds 0-19 of the shifted mean change
# below, as psi = (x, x**2) rounds x**2 with an absolute error near eps c**2
_SHIFT_DRIFT = {10: 4.4e-14, 1e2: 3.3e-12, 1e3: 2.5e-10, 1e4: 9.3e-8, 1e5: 3.3e-6, 3e5: 4.4e-5}
_FAR = "; the data sit about {:.0e} standard deviations from zero"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_shift_moves_the_statistic_by_at_most_its_pinned_drift():
    model = normal_model()
    worst = dict.fromkeys(_SHIFT_DRIFT, 0.0)
    for seed in range(20):
        x = np.random.default_rng(seed).normal(0.0, 1.0, 500)
        x[300:] += 0.5
        t = run_test(x, model).t_stat
        for c in worst:
            worst[c] = max(worst[c], abs(run_test(x + c, model).t_stat / t - 1.0))
        # about 1e6 standard deviations out, x and x**2 are collinear to
        # within float64, and the refusal names the distance
        far = x + 1e6
        with pytest.raises(DegenerateSample) as exc:
            run_test(far, model)
        distance = _FAR.format(abs(far.mean()) / far.std())
        assert str(exc.value) == estimator._DEGENERATE + distance
    for c, drift in _SHIFT_DRIFT.items():
        assert worst[c] <= 3.0 * drift, (c, worst[c])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_refusal_far_from_zero_names_the_distance_and_constant_data_do_not():
    x = np.random.default_rng(1).gamma(1e12, 1.0, 500)
    with pytest.raises(DegenerateSample) as exc:
        run_test(x, gamma_model())
    assert str(exc.value) == estimator._DEGENERATE + _FAR.format(1e6)
    for value in (0.0, 0.1, 1e6):
        with pytest.raises(DegenerateSample) as exc:
            run_test(np.full(500, value), normal_model())
        assert str(exc.value) == estimator._DEGENERATE


def test_a_sum_of_moments_that_overflows_is_named():
    data = np.full(10, 1e154)  # x**2 = 1e308 is finite, two of them are not
    data[::2] = 0.5e154
    with pytest.raises(ValueError, match=r"sum of psi\(data\[:4\]\) overflows"):
        detect(data, gamma_model())


def test_a_pairwise_sum_that_overflows_is_named():
    # no running sum overflows (they are 1e308 and 0), but the pairwise sum
    # adds 1e308 to 1e308; the message names the largest observation
    x = np.zeros(16)
    x[[0, 8]] = 1e308
    x[[1, 9]] = -1e308
    model = exponential_model()
    calls = [
        lambda: run_test(x, model, critical_value=1.0),
        lambda: detect(x, model),
        lambda: mme(x, model),
        lambda: build_state(x, model),
        lambda: sigma_hat(x, (1.0,), model),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the sum of psi\(data\) overflows \(data\[0\] = 1e\+308\)"):
                call()


def test_pieces_name_a_theta_whose_mean_overflows():
    # (1e150, 1e-10) lies inside gamma's domain, but alpha^2 / lam^2 = 1e320
    g = gamma_model()
    x = np.random.default_rng(0).gamma(2.0, 1.0, 200)
    state = build_state(x, g)
    theta = (1e150, 1e-10)
    calls = [
        lambda: sigma_hat(x, theta, g),
        lambda: t_path(state, theta, np.eye(2), g),
        lambda: z_at(state, 0.5, theta, g),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"mean\(theta\) is not finite .*1e\+150.*'gamma'"):
            call()
    # a finite mean (1e110, 1e220) whose plug-in covariance r r' overflows
    with pytest.raises(ValueError, match=r"plug-in covariance overflows .*1e-100.*'gamma'"):
        sigma_hat(x, (1e10, 1e-100), g)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_plug_in_covariance_that_overflows_is_named_alike_everywhere():
    # a closed form off by 5e-9 fits a sample near 1e165: the residual
    # 5.0e156 is inside its bound 1.0e157, but r r' overflows. The test, its
    # location-only variant and sigma_hat at the estimate raise one error,
    # with no warning; in a block, only that row fails
    sloppy = dataclasses.replace(
        get_model("poisson"),
        name="sloppy",
        inverse_mean=lambda v: np.asarray(v, dtype=float) * (1 + 5e-9),
    )
    x = 1e165 * (1 + 1e-14 * np.random.default_rng(0).standard_normal(200))
    fit = mme(x, sloppy)
    assert 4.9e156 < fit.residual_norm < 1e-8 * (1.0 + 1e165)
    message = (
        "the plug-in covariance overflows at theta = [1.0000000050000001e+165] "
        "for model 'sloppy'"
    )
    calls = [
        lambda: run_test(x, sloppy),
        lambda: detect(x, sloppy),
        lambda: sigma_hat(x, fit.theta, sloppy),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    ordinary = np.random.default_rng(1).poisson(4.0, (3, 200)).astype(float)
    block = np.vstack([ordinary[:2], x, ordinary[2:]])
    rows = zprocess._statistic(block, zprocess._psi(block, sloppy), sloppy, {})
    for i, row in enumerate(block):
        alone = _outcome(sloppy, row)
        if i == 2:
            assert alone == (ValueError, message)
            assert (type(rows.errors[i]), str(rows.errors[i])) == alone
        else:
            assert rows.errors[i] is None
            _same(alone, (rows.paths[i], rows.sigma[i], rows.theta[i], rows.k_hat[i]))

def test_t_path_names_a_path_that_overflows():
    # a finite mean (1e110, 1e220) whose whitened drift overflows when squared
    g = gamma_model()
    state = build_state(np.random.default_rng(0).gamma(2.0, 1.0, 200), g)
    with pytest.raises(ValueError, match=r"statistic path overflows .*1e-100.*'gamma'"):
        t_path(state, (1e10, 1e-100), np.eye(2), g)


def test_pieces_reject_a_state_built_for_another_model():
    x = np.random.default_rng(0).gamma(2.0, 1.0, 200)
    with pytest.raises(ValueError, match="state.dim = 2 .* model.dim = 1"):
        z_at(build_state(x, gamma_model()), 0.5, (1.0,), exponential_model())
    with pytest.raises(ValueError, match="state.dim = 1 .* model.dim = 2"):
        t_path(build_state(x, exponential_model()), (2.0, 1.0), np.eye(2), gamma_model())


def _long_double_path(data, theta, sigma, model):
    """The path of normal data at theta and sigma, summed in long double."""
    x = np.asarray(data, dtype=np.longdouble)
    mean = np.asarray(model.mean(theta), dtype=np.longdouble)
    z = np.cumsum(np.stack((x - mean[0], x * x - mean[1]), axis=1), axis=0)
    (a, b), (_, c) = np.asarray(sigma, dtype=np.longdouble)
    quad = (c * z[:, 0] ** 2 - 2 * b * z[:, 0] * z[:, 1] + a * z[:, 1] ** 2) / (a * c - b * b)
    return np.concatenate(([0.0], (quad / len(x)).astype(float)))


def test_a_long_sample_far_from_zero_keeps_its_path():
    # four chunks of normal data at 3000 with a small shift at n/2: the raw
    # sums of x^2 reach 1e12, and subtracting k mean(theta) from them cancels
    n = 2**17
    x = np.random.default_rng(11).standard_normal(n) + 3000.0
    x[n // 2 :] += 0.02
    model = normal_model()
    report = detect(x, model)
    ref = _long_double_path(x, report.theta_hat, report.sigma_hat, model)
    assert np.abs(report.t_path - ref).max() / report.t_stat <= 1e-8


# In (x, x^2) coordinates the covariances of these samples have condition
# numbers above 1e12; their correlation matrices do not.
@pytest.mark.parametrize("shift", [700.0, 1000.0])
def test_shifted_normal_data_are_not_degenerate(shift):
    x = np.random.default_rng(5).standard_normal(500)
    t_stat = detect(x + shift, normal_model()).t_stat
    # T is invariant under a shift of normal data
    np.testing.assert_allclose(t_stat, detect(x, normal_model()).t_stat, rtol=1e-8)


@pytest.mark.parametrize("shape", [1e4, 3e4, 1e5])
def test_gamma_data_with_a_large_shape_are_not_degenerate(shape):
    x = np.random.default_rng(6).gamma(shape, 1.0, 1000)
    t_stat = detect(x, gamma_model()).t_stat
    assert np.isfinite(t_stat)
    # T is invariant under a scale change of gamma data
    np.testing.assert_allclose(detect(x / 8.0, gamma_model()).t_stat, t_stat, rtol=1e-8)


def _stages_per_column(moments, r, chol):
    """The moment and path stages of a block, one column at a time."""
    m, n, d = moments.shape
    psi_bar = np.stack([moments[:, :, j].sum(axis=1) for j in range(d)], axis=1) / n
    bad = ~np.isfinite(psi_bar).all(axis=1)
    moments[bad] = psi_bar[bad] = 0.0
    for j in range(d):
        moments[:, :, j] -= psi_bar[:, j, None]
    cov = np.empty((m, d, d))
    for i in range(d):
        for j in range(i + 1):
            cov[:, i, j] = cov[:, j, i] = (moments[:, :, i] * moments[:, :, j]).sum(axis=1) / n
    z = moments.copy()
    for j in range(d):
        z[:, :, j] += r[:, j, None]
    chol = chol * np.sqrt(n)
    for j in range(d):
        for i in range(j):
            z[:, :, j] -= z[:, :, i] * chol[:, j, i, None]
        z[:, :, j] /= chol[:, j, j, None]
    path = np.zeros((m, n + 1))
    for j in range(d):
        path[:, 1:] += np.cumsum(z[:, :, j], axis=1) ** 2
    return moments, psi_bar, cov, path


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_paired_columns_give_the_per_column_bits(dim):
    # one pass per pair of columns, and one for an odd last one, centres
    # the moments and adds the residual with the bits of a pass per column;
    # row 1 fails and is zeroed, row 2 sits far from zero
    rng = np.random.default_rng(dim)
    m, n = 4, 301
    block = rng.gamma(2.0, 1.0, (m, n))
    moments = rng.standard_normal((m, n, dim)) * rng.gamma(2.0, 1.0, dim)
    moments[1, 7, dim - 1] = np.inf
    moments[2] += 1e8
    r = rng.standard_normal((m, dim))
    chol = np.tril(rng.standard_normal((m, dim, dim)), -1) + np.eye(dim) * rng.gamma(
        2.0, 1.0, (m, 1, dim)
    )
    ref = _stages_per_column(moments.copy(), r, chol)
    centred, psi_bar, cov, errors = zprocess._moments(block, moments, {})
    assert [e is None for e in errors] == [True, False, True, True]
    _same((centred, psi_bar, cov), ref[:3])
    _same((zprocess._path(centred, r, chol, {}),), ref[3:])


@pytest.mark.parametrize("dim", [3, 4])
def test_running_sums_sum_in_place_with_the_per_column_bits(dim):
    # one cumsum per pair of columns on its strided complex view, and one on
    # an odd last column, writes into the array it reads: no copy of it
    z = np.random.default_rng(dim).standard_normal((8, 2**14, dim)) * 1e3
    ref = np.stack([np.cumsum(z[:, :, j], axis=1) for j in range(dim)], axis=2)
    tracemalloc.start()
    try:
        zprocess._running_sums(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"[memory] _running_sums, dim {dim}: {peak} B for a {z.nbytes} B array")
    assert peak < z.nbytes / 100
    assert np.array_equal(z.view(np.uint64), ref.view(np.uint64))


def test_the_block_record_gives_each_row_the_fit_of_mme():
    # the test core returns the fit's own record, so a Newton-only row has
    # the iterations and residual that mme gives that sample alone; row 2
    # fails at the start (its whitened Jacobian at (1, 1) is singular) and
    # row 4 is degenerate, each with 0 iterations and a NaN residual
    model = dataclasses.replace(
        gamma_model(), inverse_mean=None, init_guess=lambda m: np.array([1.0, 1.0])
    )
    block = np.random.default_rng(3).gamma(2.0, 1.0, size=(6, 400))
    block[2] *= 1e12
    block[4] = 3.0
    rows = zprocess._statistic(block, zprocess._psi(block, model), model, {})
    assert rows.centred is None
    for i, row in enumerate(block):
        try:
            alone = mme(row, model)
        except EstimationError as exc:
            assert (type(rows.errors[i]), str(rows.errors[i])) == (type(exc), str(exc))
            assert rows.iterations[i] == 0 and np.isnan(rows.residual[i])
        else:
            assert rows.errors[i] is None
            assert rows.iterations[i] == alone.iterations > 0
            assert rows.residual[i] == alone.residual_norm
    assert [e is None for e in rows.errors] == [True, True, False, True, False, True]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_column_pairs_are_views_along_the_rows(dim):
    # each pair is one column of the leading shape, not an axis of pairs
    a = np.random.default_rng(dim).standard_normal((3, 11, dim))
    pairs = zprocess._column_pairs(a)
    assert len(pairs) == (dim + 1) // 2
    for p, col in enumerate(pairs):
        assert col.shape == (3, 11) and np.shares_memory(col, a)
        expect = a[:, :, 2 * p] + 1j * a[:, :, 2 * p + 1] if 2 * p + 1 < dim else a[:, :, -1]
        assert np.array_equal(col, expect)
