"""Model definitions: moment curves, Jacobians, covariances, samplers."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from momentcpt import (
    MomentModel,
    OutOfDomain,
    SingularCovariance,
    SingularJacobian,
    affine_transform,
    asymptotic_covariance,
    gamma_model,
    get_model,
    model_names,
    run_test,
)
from momentcpt.estimator import _solve

from conftest import SAFE_THETA, THETA_GRID, finite_difference_jacobian

GRID_CASES = [
    (name, theta) for name in sorted(THETA_GRID) for theta in THETA_GRID[name]
]


def test_model_names_are_the_documented_five():
    assert model_names() == (
        "bernoulli",
        "exponential",
        "gamma",
        "normal",
        "poisson",
    )


def test_get_model_unknown_name():
    with pytest.raises(ValueError, match="unknown model"):
        get_model("weibull")


def test_gamma_mean_values():
    g = get_model("gamma")
    np.testing.assert_allclose(g.mean((1.0, 1.0)), [1.0, 2.0])
    np.testing.assert_allclose(g.mean((2.0, 1.0)), [2.0, 6.0])


def test_gamma_inverse_mean_round_trip():
    g = get_model("gamma")
    np.testing.assert_allclose(g.inverse_mean((2.0, 6.0)), [2.0, 1.0])


def test_gamma_cov_at_unit_parameters():
    g = get_model("gamma")
    np.testing.assert_allclose(g.cov((1.0, 1.0)), [[1.0, 4.0], [4.0, 20.0]])


def test_exponential_and_poisson_means():
    np.testing.assert_allclose(get_model("exponential").mean((2.0,)), [0.5])
    np.testing.assert_allclose(get_model("poisson").mean((3.5,)), [3.5])
    np.testing.assert_allclose(get_model("poisson").cov((3.5,)), [[3.5]])
    np.testing.assert_allclose(
        get_model("bernoulli").cov((0.25,)), [[0.1875]]
    )


def test_normal_mean_and_inverse():
    m = get_model("normal")
    np.testing.assert_allclose(m.mean((1.5, 2.0)), [1.5, 4.25])
    np.testing.assert_allclose(m.inverse_mean((1.5, 4.25)), [1.5, 2.0])


@pytest.mark.parametrize("name,theta", GRID_CASES)
def test_jacobian_matches_finite_differences(name, theta):
    model = get_model(name)
    analytic = model.jacobian(np.asarray(theta, dtype=float))
    numeric = finite_difference_jacobian(model.mean, theta)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("name,theta", GRID_CASES)
def test_cov_symmetric_positive_definite(name, theta):
    cov = get_model(name).cov(np.asarray(theta, dtype=float))
    np.testing.assert_array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov)[0] > 0.0


@pytest.mark.parametrize("name,theta", GRID_CASES)
def test_inverse_mean_round_trip_on_grid(name, theta):
    model = get_model(name)
    theta = np.asarray(theta, dtype=float)
    recovered = model.inverse_mean(model.mean(theta))
    np.testing.assert_allclose(recovered, theta, rtol=1e-10)


@pytest.mark.parametrize("name", sorted(SAFE_THETA))
def test_sampler_moments_match_mean_curve(name):
    # Five-sigma check of the sample psi average against mean(theta).
    model = get_model(name)
    theta = SAFE_THETA[name]
    rng = np.random.default_rng(90210)
    draws = model.sample(theta, rng, 1_000_000)
    observed = model.psi(draws).mean(axis=0)
    expected = model.mean(np.asarray(theta, dtype=float))
    tolerance = 5.0 * np.sqrt(np.diag(model.cov(theta)) / draws.size)
    assert np.all(np.abs(observed - expected) <= tolerance)


def test_contains_excludes_boundary_and_bad_shapes():
    g = get_model("gamma")
    assert g.contains((1.0, 1.0))
    assert not g.contains((0.0, 1.0))
    assert not g.contains((1.0,))
    assert not g.contains((np.nan, 1.0))
    assert not g.contains((1.0, np.inf))
    assert not get_model("normal").contains((-np.inf, 1.0))
    b = get_model("bernoulli")
    assert not b.contains((1.0,))
    assert b.contains((0.5,))


def test_sample_rejects_out_of_domain_theta():
    with pytest.raises(OutOfDomain):
        get_model("gamma").sample((-1.0, 1.0), np.random.default_rng(0), 5)


def test_inverse_mean_rejects_impossible_moments():
    # a moment vector with no preimage maps outside the domain; no raise
    cases = [
        ("gamma", (1.0, 0.5)),
        ("normal", (2.0, 1.0)),
        ("bernoulli", (1.2,)),
        ("exponential", (-0.5,)),
        *IMPOSSIBLE_MOMENTS.items(),
    ]
    for name, moments in cases:
        model = get_model(name)
        assert not model.contains(model.inverse_mean(moments)), (name, moments)


def test_asymptotic_covariance_closed_forms():
    np.testing.assert_allclose(
        asymptotic_covariance(get_model("exponential"), (1.0,)), [[1.0]]
    )
    np.testing.assert_allclose(
        asymptotic_covariance(get_model("poisson"), (3.0,)), [[3.0]]
    )
    np.testing.assert_allclose(
        asymptotic_covariance(get_model("gamma"), (1.0, 1.0)),
        [[4.0, 4.0], [4.0, 5.0]],
    )


def test_asymptotic_covariance_matches_monte_carlo():
    # Covariance of sqrt(n) * (theta_hat - theta) for gamma(1, 1), estimated
    # from vectorized closed-form fits.
    rng = np.random.default_rng(555)
    n, reps, chunk = 4000, 8000, 500
    errors = np.empty((reps, 2))
    for start in range(0, reps, chunk):
        x = rng.gamma(1.0, 1.0, size=(chunk, n))
        m1 = x.mean(axis=1)
        m2 = (x * x).mean(axis=1)
        var = m2 - m1 * m1
        errors[start : start + chunk, 0] = m1 * m1 / var - 1.0
        errors[start : start + chunk, 1] = m1 / var - 1.0
    observed = np.cov(errors.T * np.sqrt(n))
    expected = asymptotic_covariance(get_model("gamma"), (1.0, 1.0))
    np.testing.assert_allclose(observed, expected, rtol=0.10)


def test_asymptotic_covariance_singular_jacobian():
    flat = MomentModel(
        name="flat",
        dim=1,
        param_domain=((-np.inf, np.inf),),
        psi=lambda x: np.asarray(x, float)[:, None],
        mean=lambda theta: np.array([1.0]),
        jacobian=lambda theta: np.array([[0.0]]),
        cov=lambda theta: np.array([[1.0]]),
        sampler=lambda theta, rng, size: rng.normal(size=size),
    )
    with pytest.raises(SingularJacobian):
        asymptotic_covariance(flat, (0.0,))


@pytest.mark.parametrize(
    "name,theta",
    [("exponential", (1e-200,)), ("gamma", (1.0, 1e-200))],
)
def test_asymptotic_covariance_names_a_jacobian_that_overflows(name, theta):
    # lam^2 underflows to 0, so the Jacobian divides by zero; this ended in
    # a ZeroDivisionError (exponential) or a RuntimeWarning (gamma)
    with pytest.raises(
        ValueError,
        match=re.escape(f"not finite at theta = {list(theta)} for model {name!r}"),
    ):
        asymptotic_covariance(get_model(name), theta)


@pytest.mark.parametrize(
    "name,theta",
    [("exponential", (1e200,)), ("gamma", (1.0, 1e200)), ("normal", (1e8, 1.0))],
)
def test_asymptotic_covariance_that_underflows_is_not_positive_definite(name, theta):
    # lam^2 overflows, so C underflows to zero, or (normal) 4e16 + 2 rounds
    # to 4e16: not positive definite. This was a bare LinAlgError.
    with pytest.raises(
        SingularCovariance,
        match=re.escape(
            f"not positive definite at theta = {[float(t) for t in theta]} "
            f"for model {name!r}"
        ),
    ):
        asymptotic_covariance(get_model(name), theta)


def test_an_ill_conditioned_covariance_still_has_an_answer():
    # C of the gamma at a large shape is ill-conditioned but positive
    # definite; only a failed Cholesky factor is an error
    out = asymptotic_covariance(gamma_model(), (1e12, 1.0))
    assert np.isfinite(out).all()


_DOMAIN = "param_domain of model 'normal' must be 2 pairs"
_DIM = "dim of model 'gamma' must be a positive integer"


@pytest.mark.parametrize(
    "name, changes, message",
    [
        ("normal", {"param_domain": ((-np.inf, np.inf),)}, _DOMAIN),
        ("normal", {"param_domain": ((0.0, 1.0), (2.0, 1.0))}, _DOMAIN),
        ("normal", {"param_domain": ((0.0, np.nan), (0.0, 1.0))}, _DOMAIN),
        ("gamma", {"dim": 2.0}, _DIM + ", got 2.0"),
        ("gamma", {"dim": 0, "param_domain": ()}, _DIM + ", got 0"),
        ("gamma", {"dim": True}, _DIM + ", got True"),
    ],
    ids=["one-pair", "lo-above-hi", "nan", "dim-float", "dim-zero", "dim-bool"],
)
def test_a_model_with_a_bad_domain_is_named_when_built(name, changes, message):
    # a one-pair domain for the normal accepted theta = (0, -1); then the
    # oracle blamed a singular covariance and the sampler a math domain error.
    # A float dim was built and ended in a bare TypeError in run_test; a zero
    # or bool dim failed later, on the shape of psi.
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(get_model(name), **changes)


@pytest.mark.parametrize("lam", [1e-9, 1e9])
def test_asymptotic_covariance_follows_a_rescaled_rate(lam):
    # the rate's error scales with the rate; judged in raw units, the
    # Jacobian was singular at both
    unit = asymptotic_covariance(gamma_model(), (2.0, 1.0))
    d = np.diag([1.0, lam])
    np.testing.assert_allclose(
        asymptotic_covariance(gamma_model(), (2.0, lam)), d @ unit @ d, rtol=1e-12
    )


class TestAffineTransform:
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    B = np.array([1.0, -2.0])

    def transformed(self):
        return affine_transform(gamma_model(), self.A, self.B)

    def test_moment_map_and_mean_transform_together(self):
        base = gamma_model()
        new = self.transformed()
        data = np.array([0.5, 1.5, 2.5])
        np.testing.assert_allclose(
            new.psi(data), base.psi(data) @ self.A.T + self.B
        )
        theta = np.array([1.5, 0.7])
        np.testing.assert_allclose(
            new.mean(theta), self.A @ base.mean(theta) + self.B
        )
        np.testing.assert_allclose(
            new.cov(theta), self.A @ base.cov(theta) @ self.A.T
        )

    def test_jacobian_still_matches_finite_differences(self):
        new = self.transformed()
        theta = (2.0, 1.3)
        np.testing.assert_allclose(
            new.jacobian(np.asarray(theta)),
            finite_difference_jacobian(new.mean, theta),
            rtol=1e-5,
            atol=1e-7,
        )

    def test_inverse_mean_round_trip(self):
        new = self.transformed()
        theta = np.array([0.8, 2.2])
        np.testing.assert_allclose(
            new.inverse_mean(new.mean(theta)), theta, rtol=1e-10
        )

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError, match="singular"):
            affine_transform(gamma_model(), np.zeros((2, 2)), self.B)

    @pytest.mark.parametrize("s", [1e-12, 1e12])
    def test_takes_every_invertible_rescaling(self, s):
        g = gamma_model()
        data = g.sample((2.0, 1.0), np.random.default_rng(1), 300)
        base = run_test(data, g, critical_value=np.inf)
        view = affine_transform(g, np.diag([1.0, s]), np.zeros(2))
        moved = run_test(data, view, critical_value=np.inf)
        # relative to the path's peak: its ends are rounding noise
        np.testing.assert_allclose(
            moved.t_path, base.t_path, rtol=1e-12, atol=1e-12 * base.t_stat
        )

    @pytest.mark.parametrize("a", [[[1.0, 0.0], [2.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]])
    def test_rejects_a_zero_column_and_a_rank_one_matrix(self, a):
        with pytest.raises(ValueError, match="numerically singular"):
            affine_transform(gamma_model(), a, self.B)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            affine_transform(gamma_model(), np.eye(3), np.zeros(3))

    def test_rejects_values_that_are_not_finite_by_name(self):
        # a NaN in a used to fail inside the SVD, one in b only at psi(data[0])
        with pytest.raises(ValueError, match=r"transform a = \[\[1.0, 0.0\], \[0.0, nan\]\]"):
            affine_transform(gamma_model(), [[1, 0], [0, np.nan]], [0, 0])
        with pytest.raises(ValueError, match=r"transform b = \[0.0, inf\] is not finite"):
            affine_transform(gamma_model(), np.eye(2), [0, np.inf])


# Every model the estimator may see in blocks: the five families and an
# affine view of one of them.
_AFFINE_A = np.array([[2.0, 1.0], [0.5, 3.0]])
_AFFINE_B = np.array([1.0, -2.0])
BLOCK_MODELS = {
    **{name: (get_model(name), name) for name in model_names()},
    "gamma~affine": (affine_transform(gamma_model(), _AFFINE_A, _AFFINE_B), "gamma"),
}
# One moment vector without a preimage per base family.
IMPOSSIBLE_MOMENTS = {
    "gamma": (-1.0, 2.0),
    "exponential": (-0.5,),
    "normal": (1.0, 0.5),
    "poisson": (0.0,),
    "bernoulli": (1.2,),
}


def _block_of_moments(name, rows=200):
    model, base = BLOCK_MODELS[name]
    rng = np.random.default_rng(8)
    theta = np.asarray(SAFE_THETA[base]) * rng.uniform(0.5, 1.5, (rows, model.dim))
    # off the mean curve as well, so inverse_mean does more than undo mean
    moments = model.mean(theta) * rng.uniform(1.0 - 1e-3, 1.0 + 1e-3, (rows, model.dim))
    return model, theta, moments


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_mean_and_inverse_mean_on_a_block_equal_row_by_row_calls(name):
    model, theta, moments = _block_of_moments(name)
    means = model.mean(theta)
    assert means.shape == theta.shape
    assert np.array_equal(means, np.array([model.mean(t) for t in theta]))
    fits = model.inverse_mean(moments)
    assert fits.shape == moments.shape
    assert np.array_equal(fits, np.array([model.inverse_mean(v) for v in moments]))


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_a_block_with_one_impossible_row_raises_that_rows_message(name):
    model, _, moments = _block_of_moments(name, rows=50)
    _, base = BLOCK_MODELS[name]
    impossible = np.asarray(IMPOSSIBLE_MOMENTS[base], dtype=float)
    if name.endswith("~affine"):
        impossible = _AFFINE_A @ impossible + _AFFINE_B
    moments[37] = impossible
    # inverse_mean maps the row outside the domain, as it maps it alone
    alone = model.inverse_mean(moments[37])
    assert not model.contains(alone)
    assert np.array_equal(model.inverse_mean(moments)[37], alone, equal_nan=True)
    # and the block solve gives that row, and no other, its own error
    errors, errors_alone = [None] * len(moments), [None]
    _solve(moments, model, errors, None)
    _solve(moments[37:38], model, errors_alone, None)
    assert [i for i, e in enumerate(errors) if e is not None] == [37]
    assert type(errors[37]) is OutOfDomain
    assert str(errors[37]) == str(errors_alone[0])
