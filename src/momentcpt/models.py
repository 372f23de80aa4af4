"""Moment models: parametric families described through moments of a map psi.

A :class:`MomentModel` bundles everything the change point machinery needs to
know about a family of distributions: the moment map ``psi`` applied to each
observation, the curve ``mean(theta) = E_theta[psi(X)]`` together with its
Jacobian, the covariance of ``psi(X)`` under theta, a sampler, and (when one
exists in closed form) the inverse of the mean curve.

Five families ship with the package and are available by name through
:func:`get_model`: ``gamma``, ``exponential``, ``normal``, ``poisson`` and
``bernoulli``. User-defined models are plain :class:`MomentModel` instances
and get the same treatment everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import OutOfDomain, SingularJacobian

__all__ = [
    "MomentModel",
    "get_model",
    "model_names",
    "gamma_model",
    "exponential_model",
    "normal_model",
    "poisson_model",
    "bernoulli_model",
    "asymptotic_covariance",
    "affine_transform",
]

# Relative threshold below which a Jacobian or covariance eigenvalue is
# treated as zero (condition number above 1e12).
_COND_EPS = 1e-12


def _ill_conditioned(mats) -> np.ndarray:
    """Per symmetric matrix of a stack: not positive definite to within 1e12.

    The test runs on the correlation matrix ``D^-1/2 A D^-1/2``, with ``D``
    the diagonal of ``A``, so it does not depend on the scale of each
    coordinate. True when an entry is not finite or a diagonal entry is not
    positive, or when the smallest eigenvalue of the correlation matrix is
    at most ``_COND_EPS`` times the largest.
    """
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    bad = ~(diag > 0.0).all(axis=-1) | ~np.isfinite(mats).all(axis=(-2, -1))
    scale = np.sqrt(np.where(bad[..., None], 1.0, diag))
    corr = mats / scale[..., :, None] / scale[..., None, :]
    eigs = np.linalg.eigvalsh(
        np.where(bad[..., None, None], np.eye(mats.shape[-1]), corr)
    )
    return bad | (eigs[..., 0] <= _COND_EPS * eigs[..., -1])


def _near_singular(mat) -> bool:
    """Whether a square matrix is singular to within a condition number of 1e12.

    True when the largest singular value is not positive or the smallest is
    at most ``_COND_EPS`` times the largest.
    """
    svals = np.linalg.svd(mat, compute_uv=False)
    return bool(svals[0] <= 0.0 or svals[-1] <= _COND_EPS * svals[0])


def _mean_at(theta, model: MomentModel) -> np.ndarray:
    """``mean(theta)`` as a float array, for a theta inside the domain.

    Raises
    ------
    OutOfDomain
        If theta lies outside the domain of the model.
    ValueError
        If ``mean(theta)`` is not finite, naming theta and the model.
    """
    theta = model.require(theta)
    # an overflow is reported below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.asarray(model.mean(theta), dtype=float)
    if not np.isfinite(mean).all():
        raise ValueError(
            f"mean(theta) is not finite at theta = {theta.tolist()} "
            f"for model {model.name!r}"
        )
    return mean


def _psi_x(x):
    """psi(x) = (x,)."""
    return np.asarray(x, dtype=float)[:, None]


def _psi_x_x2(x):
    """psi(x) = (x, x^2)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((len(x), 2))
    out[:, 0] = x
    np.multiply(x, x, out=out[:, 1])
    return out


def _identity(v):
    """A copy of ``v``: the mean curve of poisson and bernoulli, and its inverse."""
    return np.array(v, dtype=float)


def _unit_jacobian(theta):
    """The Jacobian of the identity mean curve."""
    return np.array([[1.0]])


def _reciprocal(v):
    """``1 / v``: the exponential mean curve, and its inverse."""
    return 1.0 / np.asarray(v, dtype=float)


@dataclass(frozen=True)
class MomentModel:
    """A parametric family seen through the moments of a map ``psi``.

    Attributes
    ----------
    name : str
        Identifier used in registries, reports and CLI output.
    dim : int
        Dimension of ``psi(x)`` and of the parameter vector theta.
    param_domain : tuple of (float, float)
        Open interval per parameter coordinate; ``math.inf`` marks an
        unbounded side.
    psi : callable
        Maps a data vector of shape ``(n,)`` to an ``(n, dim)`` array whose
        row k depends on ``x[k]`` alone, so that a block of samples can be
        mapped in one call.
    mean : callable
        ``theta -> E_theta[psi(X)]``, broadcasting over leading axes:
        ``(..., dim) -> (..., dim)``. The value for one theta must not depend
        on the others stacked with it, bit for bit, because the estimator
        evaluates a whole block of fits in one call.
    jacobian : callable
        ``theta -> d mean / d theta`` as a ``(dim, dim)`` array.
    cov : callable
        ``theta -> Cov_theta(psi(X))`` as a ``(dim, dim)`` array.
    sampler : callable
        ``(theta, rng, size) -> (size,)`` array of draws from the family.
    inverse_mean : callable, optional
        Closed-form inverse of ``mean``, broadcasting over leading axes in the
        same way. For a moment vector with no preimage inside
        ``param_domain`` it returns a point outside ``param_domain`` (NaN
        and +-inf included) and never raises: the estimator checks the
        domain and reports such a vector as
        :class:`~momentcpt.errors.OutOfDomain`, naming the vector and the
        model. An exception that it does raise is not a failed fit; it
        propagates, so ``run_test`` raises it and ``run_experiment`` stops.
    init_guess : callable, optional
        Maps a moment vector to a starting point for the Newton solver when
        no closed-form inverse is available (or it has been removed).
    """

    name: str
    dim: int
    param_domain: tuple[tuple[float, float], ...]
    psi: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    cov: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.ndarray, np.random.Generator, int], np.ndarray]
    inverse_mean: Optional[Callable[[np.ndarray], np.ndarray]] = None
    init_guess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def contains(self, theta) -> bool:
        """True when theta lies strictly inside the parameter domain."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            return False
        # NaN and infinite coordinates fail the strict comparisons
        return all(
            lo < t < hi for t, (lo, hi) in zip(theta.tolist(), self.param_domain)
        )

    def require(self, theta) -> np.ndarray:
        """Return theta as an array, raising OutOfDomain when outside."""
        arr = np.asarray(theta, dtype=float)
        if not self.contains(arr):
            raise OutOfDomain(
                f"theta {arr!r} outside the domain of model {self.name!r}"
            )
        return arr

    def sample(self, theta, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` observations after validating theta."""
        arr = self.require(theta)
        return np.asarray(self.sampler(arr, rng, int(size)), dtype=float)


def gamma_model() -> MomentModel:
    """Gamma family parameterized by shape and rate, theta = (alpha, lam).

    Uses psi(x) = (x, x^2). The first two raw moments are alpha/lam and
    alpha(alpha+1)/lam^2; the closed-form inverse is alpha = m1^2/(m2 - m1^2)
    and lam = m1/(m2 - m1^2).
    """

    def mean(theta):
        theta = np.asarray(theta, dtype=float)
        a, lam = theta[..., 0], theta[..., 1]
        # float_power is libm pow, as for a scalar lam**2; an array lam**2
        # takes numpy's square fast path, which rounds differently
        return np.stack((a / lam, a * (a + 1.0) / np.float_power(lam, 2)), axis=-1)

    def jacobian(theta):
        a, lam = np.asarray(theta, dtype=float)
        return np.array(
            [
                [1.0 / lam, -a / lam**2],
                [(2.0 * a + 1.0) / lam**2, -2.0 * a * (a + 1.0) / lam**3],
            ]
        )

    def cov(theta):
        a, lam = np.asarray(theta, dtype=float)
        c11 = a / lam**2
        c12 = 2.0 * a * (a + 1.0) / lam**3
        c22 = 2.0 * a * (a + 1.0) * (2.0 * a + 3.0) / lam**4
        return np.array([[c11, c12], [c12, c22]])

    def sampler(theta, rng, size):
        a, lam = theta
        return rng.gamma(shape=a, scale=1.0 / lam, size=size)

    def inverse_mean(m):
        m = np.asarray(m, dtype=float)
        m1, m2 = m[..., 0], m[..., 1]
        var = m2 - m1 * m1
        return np.stack((m1 * m1 / var, m1 / var), axis=-1)

    return MomentModel(
        name="gamma",
        dim=2,
        param_domain=((0.0, math.inf), (0.0, math.inf)),
        psi=_psi_x_x2,
        mean=mean,
        jacobian=jacobian,
        cov=cov,
        sampler=sampler,
        inverse_mean=inverse_mean,
        init_guess=inverse_mean,
    )


def exponential_model() -> MomentModel:
    """Exponential family with rate parameter, theta = (lam,).

    Uses psi(x) = (x,); the mean curve is 1/lam.
    """

    def jacobian(theta):
        lam = float(np.asarray(theta, dtype=float)[0])
        return np.array([[-1.0 / lam**2]])

    def cov(theta):
        lam = float(np.asarray(theta, dtype=float)[0])
        return np.array([[1.0 / lam**2]])

    def sampler(theta, rng, size):
        return rng.exponential(scale=1.0 / theta[0], size=size)

    return MomentModel(
        name="exponential",
        dim=1,
        param_domain=((0.0, math.inf),),
        psi=_psi_x,
        mean=_reciprocal,
        jacobian=jacobian,
        cov=cov,
        sampler=sampler,
        inverse_mean=_reciprocal,
        init_guess=_reciprocal,
    )


def normal_model() -> MomentModel:
    """Normal family, theta = (mu, var) with var > 0.

    Uses psi(x) = (x, x^2), so mean(theta) = (mu, var + mu^2).
    """

    def mean(theta):
        theta = np.asarray(theta, dtype=float)
        mu, var = theta[..., 0], theta[..., 1]
        return np.stack((mu, var + mu * mu), axis=-1)

    def jacobian(theta):
        mu, _ = np.asarray(theta, dtype=float)
        return np.array([[1.0, 0.0], [2.0 * mu, 1.0]])

    def cov(theta):
        mu, var = np.asarray(theta, dtype=float)
        c12 = 2.0 * mu * var
        return np.array(
            [[var, c12], [c12, 2.0 * var**2 + 4.0 * mu**2 * var]]
        )

    def sampler(theta, rng, size):
        mu, var = theta
        return rng.normal(loc=mu, scale=math.sqrt(var), size=size)

    def inverse_mean(m):
        m = np.asarray(m, dtype=float)
        m1, m2 = m[..., 0], m[..., 1]
        var = m2 - m1 * m1
        return np.stack((m1, var), axis=-1)

    return MomentModel(
        name="normal",
        dim=2,
        param_domain=((-math.inf, math.inf), (0.0, math.inf)),
        psi=_psi_x_x2,
        mean=mean,
        jacobian=jacobian,
        cov=cov,
        sampler=sampler,
        inverse_mean=inverse_mean,
        init_guess=inverse_mean,
    )


def poisson_model() -> MomentModel:
    """Poisson family, theta = (lam,), psi(x) = (x,)."""

    def cov(theta):
        lam = float(np.asarray(theta, dtype=float)[0])
        return np.array([[lam]])

    def sampler(theta, rng, size):
        return rng.poisson(lam=theta[0], size=size)

    return MomentModel(
        name="poisson",
        dim=1,
        param_domain=((0.0, math.inf),),
        psi=_psi_x,
        mean=_identity,
        jacobian=_unit_jacobian,
        cov=cov,
        sampler=sampler,
        inverse_mean=_identity,
        init_guess=_identity,
    )


def bernoulli_model() -> MomentModel:
    """Bernoulli family, theta = (p,) with 0 < p < 1, psi(x) = (x,)."""

    def cov(theta):
        p = float(np.asarray(theta, dtype=float)[0])
        return np.array([[p * (1.0 - p)]])

    def sampler(theta, rng, size):
        return rng.binomial(1, theta[0], size=size)

    return MomentModel(
        name="bernoulli",
        dim=1,
        param_domain=((0.0, 1.0),),
        psi=_psi_x,
        mean=_identity,
        jacobian=_unit_jacobian,
        cov=cov,
        sampler=sampler,
        inverse_mean=_identity,
        init_guess=_identity,
    )


_REGISTRY: dict[str, Callable[[], MomentModel]] = {
    "gamma": gamma_model,
    "exponential": exponential_model,
    "normal": normal_model,
    "poisson": poisson_model,
    "bernoulli": bernoulli_model,
}


def model_names() -> tuple[str, ...]:
    """Names of the built-in families."""
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> MomentModel:
    """Look up a built-in family by name.

    Raises
    ------
    ValueError
        If ``name`` is not a registered family.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(model_names())
        raise ValueError(f"unknown model {name!r}; available: {known}") from None
    return factory()


def asymptotic_covariance(model: MomentModel, theta) -> np.ndarray:
    """Covariance of the limiting normal law of the rescaled estimator error.

    For the method of moments estimator this is
    ``J^{-1} C J^{-T}`` with ``J = model.jacobian(theta)`` and
    ``C = model.cov(theta)``.

    Raises
    ------
    SingularJacobian
        If the Jacobian is singular to within a condition number of 1e12.
    """
    theta = model.require(theta)
    jac = np.asarray(model.jacobian(theta), dtype=float)
    if _near_singular(jac):
        raise SingularJacobian(
            f"jacobian of model {model.name!r} at {theta!r} is singular"
        )
    c = np.asarray(model.cov(theta), dtype=float)
    half = np.linalg.solve(jac, c)
    out = np.linalg.solve(jac, half.T).T
    return (out + out.T) / 2.0


def _matvec(mat: np.ndarray, v) -> np.ndarray:
    """``mat @ v`` for each vector along the last axis of ``v``.

    One matrix-vector product per vector, the kernel that ``mat @ v`` uses
    for a single ``(dim,)`` vector, so that a vector's result does not
    depend on how many others it is stacked with (``v @ mat.T`` picks a
    matrix-matrix kernel that depends on the stack height).
    """
    return np.matmul(mat, np.asarray(v, dtype=float)[..., None])[..., 0]


def affine_transform(model: MomentModel, a, b) -> MomentModel:
    """Model observing ``x`` through ``a @ psi(x) + b`` instead of ``psi(x)``.

    ``a`` must be a finite, invertible ``(dim, dim)`` matrix and ``b`` a
    finite ``(dim,)`` vector. Parameterization, domain and sampler are
    unchanged; only the moment map and its derived quantities transform.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (model.dim, model.dim) or b.shape != (model.dim,):
        raise ValueError("transform shapes do not match the model dimension")
    for name, value in (("a", a), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"transform {name} = {value.tolist()} is not finite")
    if _near_singular(a):
        raise ValueError("transform matrix is numerically singular")
    a_inv = np.linalg.inv(a)

    def psi(x):
        return model.psi(x) @ a.T + b

    def mean(theta):
        return _matvec(a, model.mean(theta)) + b

    def jacobian(theta):
        return a @ model.jacobian(theta)

    def cov(theta):
        return a @ model.cov(theta) @ a.T

    def pullback(fn):
        if fn is None:
            return None

        def wrapped(m):
            return fn(_matvec(a_inv, np.asarray(m, dtype=float) - b))

        return wrapped

    return MomentModel(
        name=f"{model.name}~affine",
        dim=model.dim,
        param_domain=model.param_domain,
        psi=psi,
        mean=mean,
        jacobian=jacobian,
        cov=cov,
        sampler=model.sampler,
        inverse_mean=pullback(model.inverse_mean),
        init_guess=pullback(model.init_guess),
    )
