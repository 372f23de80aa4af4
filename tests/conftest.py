"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's fast paths:
finite differences instead of analytic Jacobians, fresh summation and an
explicit matrix inverse instead of prefix sums and Cholesky solves, and
Kiefer's series instead of bridge simulation for the limit law. Tests
compare the two.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special
from scipy.optimize import brentq

import momentcpt
from momentcpt import get_model, model_names, normal_model

# Interior parameter points used for grid checks, per model.
THETA_GRID = {
    "gamma": [
        (0.3, 0.2),
        (0.5, 1.0),
        (1.0, 0.01),
        (1.0, 1.0),
        (1.5, 0.7),
        (2.0, 1.0),
        (2.5, 3.0),
        (4.0, 0.5),
        (5.0, 2.0),
        (8.0, 1.3),
        (10.0, 10.0),
    ],
    "exponential": [
        (0.01,),
        (0.1,),
        (0.5,),
        (1.0,),
        (1.7,),
        (2.0,),
        (3.3,),
        (5.0,),
        (10.0,),
        (50.0,),
    ],
    "normal": [
        (-3.0, 0.5),
        (-1.0, 2.0),
        (0.0, 1.0),
        (0.0, 0.04),
        (0.5, 5.0),
        (1.0, 1.0),
        (2.0, 0.25),
        (4.0, 3.0),
        (10.0, 0.5),
        (-7.5, 1.5),
    ],
    "poisson": [
        (0.2,),
        (0.5,),
        (1.0,),
        (2.0,),
        (3.5,),
        (5.0,),
        (8.0,),
        (12.0,),
        (20.0,),
        (40.0,),
    ],
    "bernoulli": [
        (0.05,),
        (0.1,),
        (0.2,),
        (0.3,),
        (0.4,),
        (0.5,),
        (0.6,),
        (0.75,),
        (0.9,),
        (0.95,),
    ],
}

# Sampling parameters that keep random data clear of domain edges, used
# when a test just needs "some data from each model".
SAFE_THETA = {
    "gamma": (1.5, 0.8),
    "exponential": (1.3,),
    "normal": (0.5, 2.0),
    "poisson": (4.0,),
    "bernoulli": (0.4,),
}


@pytest.fixture(params=model_names())
def model(request):
    return get_model(request.param)


def finite_difference_jacobian(fn, theta, step=1e-5):
    """Central-difference Jacobian of fn at theta, per-coordinate steps."""
    theta = np.asarray(theta, dtype=float)
    base = np.asarray(fn(theta), dtype=float)
    jac = np.empty((base.size, theta.size))
    for j in range(theta.size):
        h = step * max(1.0, abs(theta[j]))
        hi = theta.copy()
        lo = theta.copy()
        hi[j] += h
        lo[j] -= h
        jac[:, j] = (np.asarray(fn(hi), float) - np.asarray(fn(lo), float)) / (
            2.0 * h
        )
    return jac


def positive_mean_normal():
    """Normal family restricted to mu > 0, so that some samples have no fit.

    For a moment vector whose mean is not positive, the normal
    ``inverse_mean`` returns a preimage outside this domain.
    """
    return dataclasses.replace(
        normal_model(),
        name="normal+domain",
        param_domain=((0.0, math.inf), (0.0, math.inf)),
    )


def brute_force_path(data, model, theta, sigma):
    """Statistic path via fresh summation and an explicit inverse.

    The moments are summed and ``z`` formed in ``np.longdouble``, so the
    reference's own rounding stays below the library's where ``longdouble``
    is wider than ``double``; the inverse is taken in float64.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    wide = np.longdouble
    moments = np.asarray(model.psi(data), dtype=float).astype(wide)
    mean = np.asarray(model.mean(theta), dtype=float).astype(wide)
    inv = np.linalg.inv(np.asarray(sigma, dtype=float)).astype(wide)
    out = np.empty(n + 1)
    for k in range(n + 1):
        z = (moments[:k].sum(axis=0) - k * mean) / n
        out[k] = n * (z @ inv @ z)
    return out


def _bessel_zeros(nu: float, terms: int) -> np.ndarray:
    """First `terms` positive zeros of J_nu, for integer or half-integer nu."""
    if float(nu).is_integer():
        return special.jn_zeros(int(nu), terms)
    # For half-integer nu >= -1/2 consecutive zeros are at least pi apart,
    # so a scan in steps of 0.1 brackets each one.
    xs = np.arange(0.05, (terms + abs(nu) + 2) * math.pi, 0.1)
    vals = special.jv(nu, xs)
    starts = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0][:terms]
    root = lambda lo, hi: brentq(lambda z: special.jv(nu, z), lo, hi, xtol=1e-14)
    return np.array([root(xs[i], xs[i + 1]) for i in starts])


def sup_sq_bridge_cdf(x, dim, terms=60):
    """P(sup_u ||B(u)||^2 <= x) for a dim-dimensional Brownian bridge.

    Kiefer's series (Ann. Math. Statist. 30, 1959, 420-447) in the zeros j
    of J_nu, nu = dim/2 - 1:
    4 / (Gamma(dim/2) 2^(dim/2) x^(dim/2))
      * sum_j j^(2 nu) / J_(nu+1)(j)^2 * exp(-j^2 / 2x).
    """
    nu = dim / 2.0 - 1.0
    j = _bessel_zeros(nu, terms)
    weights = j ** (2.0 * nu) / special.jv(nu + 1.0, j) ** 2
    scale = 4.0 / (special.gamma(dim / 2.0) * 2.0 ** (dim / 2.0) * x ** (dim / 2.0))
    return float(scale * np.sum(weights * np.exp(-(j**2) / (2.0 * x))))


def sup_sq_bridge_quantile(dim, level):
    """The (1 - level)-quantile of the continuum law, from Kiefer's series."""
    gap = lambda x: sup_sq_bridge_cdf(x, dim) - (1.0 - level)
    return brentq(gap, 0.1, 50.0, xtol=1e-12)


# rho = -zeta(1/2) / sqrt(2 pi): the mean overshoot of a random walk with
# unit-variance Gaussian steps over a level, in units of one step.
GRID_OVERSHOOT = -special.zeta(0.5) / math.sqrt(2.0 * math.pi)


def grid_corrected_quantile(quantile, grid):
    """Continuum quantile moved to a maximum over `grid` equally spaced points.

    Discrete monitoring lowers a supremum by about rho / sqrt(grid) on the
    unsquared scale (Asmussen, Glynn and Pitman, Ann. Appl. Probab. 5, 1995,
    875-896). A maximum over a grid never exceeds the supremum, so the
    continuum quantile stays an upper bound.
    """
    return (math.sqrt(quantile) - GRID_OVERSHOOT / math.sqrt(grid)) ** 2


def sample_from(model, theta, n, rng):
    return model.sample(theta, rng, n)


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter: the test suite's imports stay out."""
    src = str(Path(momentcpt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
