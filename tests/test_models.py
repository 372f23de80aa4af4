"""Model definitions: moment curves, Jacobians, covariances, samplers."""

from __future__ import annotations

import numpy as np
import pytest

from momentcpt import (
    MomentModel,
    OutOfDomain,
    SingularJacobian,
    affine_transform,
    asymptotic_covariance,
    gamma_model,
    get_model,
    model_names,
)

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
    with pytest.raises(OutOfDomain):
        get_model("gamma").inverse_mean((1.0, 0.5))
    with pytest.raises(OutOfDomain):
        get_model("normal").inverse_mean((2.0, 1.0))
    with pytest.raises(OutOfDomain):
        get_model("bernoulli").inverse_mean((1.2,))
    with pytest.raises(OutOfDomain):
        get_model("exponential").inverse_mean((-0.5,))


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

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            affine_transform(gamma_model(), np.eye(3), np.zeros(3))
