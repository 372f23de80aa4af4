"""Method of moments estimation and the Newton fallback."""

from __future__ import annotations

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentcpt import (
    DegenerateSample,
    EstimationError,
    MomentModel,
    NoConvergence,
    OutOfDomain,
    SingularJacobian,
    detect,
    exponential_model,
    gamma_model,
    get_model,
    mme,
    newton_solve,
    poisson_model,
)

from momentcpt.estimator import _fit, _norms, _psi, _solve

from conftest import SAFE_THETA, positive_mean_normal

# Sample whose first two raw moments are exactly (2, 6): the gamma fit must
# return (alpha, lambda) = (2, 1).
EXACT_GAMMA_SAMPLE = np.array([2.0 - math.sqrt(3.0), 2.0, 2.0 + math.sqrt(3.0)])


def test_mme_gamma_closed_form_exact():
    result = mme(EXACT_GAMMA_SAMPLE, gamma_model())
    np.testing.assert_allclose(result.theta, [2.0, 1.0], rtol=1e-12)
    assert result.method == "closed_form"
    assert result.iterations == 0
    assert result.residual_norm <= 1e-12


def test_mme_constant_data_is_degenerate():
    with pytest.raises(DegenerateSample):
        mme(np.full(10, 3.0), gamma_model())


def test_mme_two_valued_data_is_degenerate():
    # Two distinct support points leave psi(X) on a line: covariance rank 1.
    with pytest.raises(DegenerateSample):
        mme(np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0]), gamma_model())


def test_mme_needs_dim_plus_one_observations():
    with pytest.raises(ValueError, match="at least 3"):
        mme(np.array([1.0, 2.0]), gamma_model())


def test_mme_out_of_domain_moments():
    # moment averages with no preimage; the error names them and the model
    cases = [
        ("gamma", [-1.0, -2.0, -4.0, -1.5], "[-2.125, 5.8125]"),
        ("exponential", [-1.0, -2.0, 0.5], "[-0.8333333333333334]"),
        ("bernoulli", [1.0, 2.0, 1.0, 3.0], "[1.75]"),
    ]
    for name, data, moments in cases:
        with pytest.raises(OutOfDomain) as info:
            mme(np.array(data), get_model(name))
        assert moments in str(info.value) and repr(name) in str(info.value)


def test_solve_fails_moments_on_the_domain_edge_without_a_warning():
    # m2 == m1^2 and m == 0 map to inf or NaN; the row fails, quietly
    cases = [
        (gamma_model(), [[1.0, 1.0], [2.0, 6.0]], [2.0, 1.0]),
        (get_model("exponential"), [[0.0], [0.5]], [2.0]),
    ]
    for model, psi_bar, fit in cases:
        errors = [None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta, means, residual, iterations = _solve(np.array(psi_bar), model, errors)
        assert type(errors[0]) is OutOfDomain and errors[1] is None
        assert np.isnan(theta[0]).all() and np.isnan(residual[0])
        assert np.array_equal(means[0], psi_bar[0]) and iterations[0] == 0
        np.testing.assert_allclose(theta[1], fit, rtol=1e-12)


@pytest.mark.parametrize("name", sorted(SAFE_THETA))
def test_estimating_equation_residual_bound(name):
    model = get_model(name)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        data = model.sample(SAFE_THETA[name], rng, 80)
        try:
            result = mme(data, model)
        except DegenerateSample:
            continue
        psi_bar = model.psi(data).mean(axis=0)
        gap = np.linalg.norm(model.mean(result.theta) - psi_bar)
        assert gap <= 1e-8 * (1.0 + np.linalg.norm(psi_bar))


@given(
    values=st.lists(
        st.floats(min_value=0.05, max_value=40.0),
        min_size=4,
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_estimating_equation_residual_bound_property(values):
    data = np.asarray(values)
    model = gamma_model()
    try:
        result = mme(data, model)
    except EstimationError:
        assume(False)
    psi_bar = model.psi(data).mean(axis=0)
    gap = np.linalg.norm(model.mean(result.theta) - psi_bar)
    assert gap <= 1e-8 * (1.0 + np.linalg.norm(psi_bar))


def test_solve_names_a_residual_above_its_bound():
    # an inverse that misses by 0.1 %: the residual bound is what catches it
    model = dataclasses.replace(
        poisson_model(), inverse_mean=lambda m: np.asarray(m) * 1.001
    )
    with pytest.raises(
        NoConvergence, match="estimating equation residual 3.225e-03 exceeds 4.225e-08"
    ):
        mme(np.random.default_rng(0).poisson(3, 200), model)


def test_residual_bound_holds_where_the_sum_of_squares_overflows():
    # |psi_bar| ~ 1e155: its square overflows, which made the bound inf and
    # let any residual pass
    data = 1e155 * (1.0 + 1e-10 * np.random.default_rng(0).standard_normal(100))
    assert mme(data, exponential_model()).theta[0] > 0.0
    model = dataclasses.replace(
        exponential_model(), inverse_mean=lambda m: 1.0 / (1.001 * np.asarray(m))
    )
    with pytest.raises(NoConvergence, match="exceeds 1.000e\\+147"):
        mme(data, model)


def test_norms_are_finite_where_the_sum_of_squares_overflows():
    rows = np.array(
        [[3.0, 4.0], [3 * 2.0**700, 4 * 2.0**700], [-1e308, 1e308], [np.inf, 1.0], [np.nan, 1.0]]
    )
    out = _norms(rows)
    assert out[0] == 5.0 and out[1] == 5 * 2.0**700
    assert out[2] == np.sqrt(2.0) * 1e308
    assert out[3] == np.inf and np.isnan(out[4])
    # every row whose sum of squares is finite keeps np.linalg.norm's value
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        v = rng.standard_normal((200, dim)) * 10.0 ** rng.integers(-100, 100, (200, 1))
        assert _norms(v).tolist() == [np.linalg.norm(row) for row in v]


def test_newton_norms_do_not_overflow_and_targets_must_be_finite():
    # a huge target used to overflow its norm, and an infinite one made the
    # tolerance inf, so the start was returned as converged
    with pytest.raises(NoConvergence, match="residual 1.005e\\+301"):
        newton_solve([1e300, 1e301], gamma_model(), (1.0, 1.0))
    for bad in ([np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match=r"target \[(inf|nan), 1.0\] is not finite"):
            newton_solve(bad, gamma_model(), (1.0, 1.0))


def test_newton_solves_gamma_target():
    result = newton_solve(np.array([2.0, 6.0]), gamma_model(), (1.0, 1.0))
    # stopping rule bounds the residual, so theta accuracy passes through
    # the Jacobian conditioning; 1e-8 leaves that headroom
    np.testing.assert_allclose(result.theta, [2.0, 1.0], rtol=1e-8)
    assert result.residual_norm <= 1e-10 * (1.0 + np.linalg.norm([2.0, 6.0]))
    assert result.method == "newton"


def test_newton_converged_start_returns_immediately():
    g = gamma_model()
    theta = np.array([1.7, 0.9])
    result = newton_solve(g.mean(theta), g, theta)
    assert result.iterations == 0
    np.testing.assert_allclose(result.theta, theta)


def test_newton_exponential_target():
    result = newton_solve(np.array([4.0]), get_model("exponential"), (1.0,))
    np.testing.assert_allclose(result.theta, [0.25], rtol=1e-10)


@pytest.mark.parametrize(
    "theta_true",
    [(0.5, 2.0), (1.0, 0.05), (3.0, 1.0), (6.0, 4.0)],
)
def test_newton_agrees_with_closed_form(theta_true):
    g = gamma_model()
    target = g.mean(np.asarray(theta_true, dtype=float))
    result = newton_solve(target, g, (1.0, 1.0))
    np.testing.assert_allclose(result.theta, theta_true, rtol=1e-8)


def test_newton_rejects_out_of_domain_start():
    with pytest.raises(OutOfDomain):
        newton_solve(np.array([2.0, 6.0]), gamma_model(), (-1.0, 1.0))


def _squared_mean_model() -> MomentModel:
    # mean(theta) = theta^2 is not injective and has no root for negative
    # targets; the solver must fail loudly rather than loop.
    return MomentModel(
        name="squared",
        dim=1,
        param_domain=((-np.inf, np.inf),),
        psi=lambda x: np.asarray(x, float)[:, None],
        mean=lambda theta: np.asarray(theta, float) ** 2,
        jacobian=lambda theta: np.array([[2.0 * float(theta[0])]]),
        cov=lambda theta: np.array([[1.0]]),
        sampler=lambda theta, rng, size: rng.normal(size=size),
    )


def test_newton_surfaces_failure_for_unreachable_target():
    with pytest.raises((NoConvergence, SingularJacobian)):
        newton_solve(np.array([-1.0]), _squared_mean_model(), (1.0,))


def test_mme_newton_path_matches_closed_form():
    rng = np.random.default_rng(31)
    data = rng.gamma(2.0, 0.5, 120)
    direct = mme(data, gamma_model())
    no_inverse = dataclasses.replace(gamma_model(), inverse_mean=None)
    via_newton = mme(data, no_inverse)
    assert via_newton.method == "newton"
    np.testing.assert_allclose(via_newton.theta, direct.theta, rtol=1e-10)


def test_mme_without_any_starting_point():
    bare = dataclasses.replace(
        gamma_model(), inverse_mean=None, init_guess=None
    )
    data = np.array([0.5, 1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="init_guess"):
        mme(data, bare)
    start = dataclasses.replace(bare, init_guess=lambda m: np.array([1.0, 1.0]))
    result = mme(data, start)
    np.testing.assert_allclose(result.theta, mme(data, gamma_model()).theta)


def test_exponential_rate_scaling_equivariance():
    rng = np.random.default_rng(77)
    data = rng.exponential(1.0, 60)
    model = get_model("exponential")
    base = mme(data, model).theta[0]
    scaled = mme(3.0 * data, model).theta[0]
    np.testing.assert_allclose(scaled, base / 3.0, rtol=1e-12)


def test_estimator_consistency_error_shrinks_with_n():
    rng = np.random.default_rng(404)
    reps = 200
    medians = []
    for n in (100, 1000, 10000):
        x = rng.gamma(1.0, 1.0, size=(reps, n))
        m1 = x.mean(axis=1)
        m2 = (x * x).mean(axis=1)
        var = m2 - m1 * m1
        err = np.hypot(m1 * m1 / var - 1.0, m1 / var - 1.0)
        medians.append(np.median(err))
    assert medians[0] > medians[1] > medians[2]


def test_an_exception_from_inverse_mean_propagates():
    # a raise is not a failed fit, whatever its type: the caller sees it
    def inverse_mean(m):
        raise OutOfDomain("refused")

    model = dataclasses.replace(gamma_model(), inverse_mean=inverse_mean)
    block = np.random.default_rng(1).gamma(2.0, 1.0, size=(5, 50))
    with pytest.raises(OutOfDomain, match="refused"):
        _fit(block, _psi(block, model), model)


# the normal restricted to mu > 0, solved in closed form and by Newton
FAILING_MODELS = {
    "domain": positive_mean_normal,
    "newton": lambda: dataclasses.replace(positive_mean_normal(), inverse_mean=None),
}


@pytest.mark.parametrize("how", sorted(FAILING_MODELS))
def test_block_fit_gives_each_failed_row_its_own_error(how):
    # about a third of these samples have a non-positive mean and no fit
    model = FAILING_MODELS[how]()
    block = np.random.default_rng(4).normal(0.1, 1.0, size=(60, 30))
    fit = _fit(block, _psi(block, model), model)
    failed = 0
    for row, theta, residual, error in zip(block, fit.theta, fit.residual, fit.errors):
        try:
            alone = mme(row, model)
        except EstimationError as exc:
            failed += 1
            assert type(error) is type(exc)
            assert str(error) == str(exc)
            assert np.isnan(theta).all()
        else:
            assert error is None
            assert np.array_equal(theta, alone.theta)
            assert residual == alone.residual_norm
    assert 0 < failed < len(block)


@pytest.mark.parametrize(
    "psi,got",
    [(lambda v: np.vstack([v, v * v]), "(2, 200)"), (lambda v: v[:, None], "(200, 1)")],
    ids=["transposed", "one-column"],
)
def test_a_psi_of_the_wrong_shape_is_named(psi, got):
    # a (dim, n) or (n, 1) result is not reshaped into moments
    model = dataclasses.replace(gamma_model(), psi=psi)
    x = np.random.default_rng(2).gamma(2.0, 1.0, 200)
    expected = re.escape(f"psi of model 'gamma' must return shape (200, 2), got {got}")
    for call in (mme, detect):
        with pytest.raises(ValueError, match=expected):
            call(x, model)
