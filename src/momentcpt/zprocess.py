"""Partial-sum process of estimating equations and the change point test.

For observations ``X_1..X_n`` and a moment model, the process

    Z_n(u, theta) = (1/n) * sum_{k <= floor(u n)} (psi(X_k) - mean(theta))

vanishes at ``u = 0`` and, when theta is the full-sample moment estimate, at
``u = 1`` as well. The test statistic is the largest quadratic form

    T_n = n * max_k  Z_n(k/n, theta_hat)' S^{-1} Z_n(k/n, theta_hat)

with ``S`` the plug-in covariance of ``psi(X)``. Large values indicate that
the moments of the sample are not homogeneous in time; the maximizing index
estimates the change location.

One private core, ``_statistic``, computes the test for each row of an
``(m, n)`` block of samples: one ``psi`` call, one pass of raw prefix sums
``S_k`` (so ``psi_bar = S_n / n``), the fit from ``psi_bar``, the covariance
``S + r r'`` from the centred sample covariance ``S`` and the estimating
equation residual ``r = psi_bar - mean(theta_hat)``, a Cholesky factor, and
``Z_n`` whitened in place in the prefix-sum buffer. :func:`run_test` and
:func:`detect` are its one-row case and the experiment harness feeds it
whole blocks of replications; a row's results do not depend on the other
rows. The public pieces :func:`build_state`, :func:`sigma_hat`,
:func:`t_path` and :func:`z_at` wrap the same stages, so that
``mme -> sigma_hat -> build_state -> t_path`` reproduces the path of
:func:`run_test` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, EstimationError, SingularCovariance
from .estimator import _DEGENERATE, _as_sample, _centred_cov, _moment_sums, _solve
from .models import MomentModel, _ill_conditioned

__all__ = [
    "ZProcessState",
    "TestReport",
    "build_state",
    "z_at",
    "sigma_hat",
    "t_path",
    "run_test",
    "detect",
    "change_point",
]

_SINGULAR_SIGMA = "plug-in covariance of psi(X) is numerically singular"
_SINGULAR_RIDGED = (
    "covariance is numerically singular; pass a ridge or check the data"
)


def _floor_index(u: float, n: int) -> int:
    # floor(u*n) with a guard against products like 0.29*100 = 28.999...996;
    # u within 1e-9 of a grid point snaps up.
    k = int(u * n + 1e-9)
    return min(max(k, 0), n)


def _check_ridge(ridge) -> None:
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise ValueError(f"ridge must be finite and non-negative, got {ridge!r}")


@dataclass(frozen=True)
class ZProcessState:
    """Raw prefix sums of the moment map over one sample.

    ``prefix[k]`` holds ``S_k = sum_{j <= k} psi(X_j)``, not centred at any
    theta; row 0 is zero and row n divided by n is the sample moment vector
    that the estimate is fit to. ``prefix`` has shape ``(n + 1, dim)``.
    """

    n: int
    dim: int
    prefix: np.ndarray


def _subtract_drift(sums: np.ndarray, ks: np.ndarray, means: np.ndarray) -> np.ndarray:
    """In place: prefix sums ``S_k`` become ``n Z_n(k/n, theta) = S_k - k mean``.

    ``sums`` is ``(m, dim, K)``, ``ks`` the ``K`` indices as floats and
    ``means`` the ``(m, dim)`` values of ``mean(theta)`` per row.
    """
    tmp = np.empty((sums.shape[0], sums.shape[2]))
    for j in range(sums.shape[1]):
        np.multiply(ks, means[:, j, None], out=tmp)
        sums[:, j] -= tmp
    return sums


def _plug_in(cov: np.ndarray, psi_bar: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``(1/n) sum_k (psi_k - mean)(psi_k - mean)'`` from the centred covariance."""
    r = psi_bar - means
    return cov + r[:, :, None] * r[:, None, :]


def _path(sums: np.ndarray, means: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Statistic paths ``t[k] = n Z_n' sigma^{-1} Z_n`` from ``(m, dim, n + 1)`` prefix sums.

    Overwrites ``sums``: the drift is subtracted and each column whitened in
    place by forward substitution with ``chol * sqrt(n)``, so the path is
    the sum of squares of the whitened columns.
    """
    m, d, size = sums.shape
    z = _subtract_drift(sums, np.arange(size, dtype=float), means)
    chol = chol * math.sqrt(size - 1)
    tmp = np.empty((m, size))
    for j in range(d):
        for i in range(j):
            np.multiply(z[:, i], chol[:, j, i, None], out=tmp)
            z[:, j] -= tmp
        z[:, j] /= chol[:, j, j, None]
    path = np.square(z[:, 0])
    for j in range(1, d):
        np.square(z[:, j], out=tmp)
        path += tmp
    return path


@dataclass(frozen=True)
class _Rows:
    """The test on each row of a block; ``errors[i]`` is set for a failed row."""

    theta: np.ndarray
    sigma: np.ndarray
    paths: np.ndarray | None
    k_hat: np.ndarray | None
    errors: list


def _statistic(block: np.ndarray, model: MomentModel, ridge: float = 0.0) -> _Rows:
    """The change point test on every row of an ``(m, n)`` block of samples.

    The caller validates the data and ``ridge``. A row that fails keeps the
    :class:`~momentcpt.errors.EstimationError` that :func:`run_test` raises
    for that sample alone, in the same order of checks: degeneracy, the fit,
    the plug-in covariance, then the ridged covariance.
    """
    m, d = block.shape[0], model.dim
    moments, sums, psi_bar = _moment_sums(block, model)
    cov = _centred_cov(moments, psi_bar)
    del moments
    degenerate = _ill_conditioned(cov)

    errors: list = [None] * m
    theta = np.full((m, d), np.nan)
    means = psi_bar.copy()
    for i in range(m):
        if degenerate[i]:
            errors[i] = DegenerateSample(_DEGENERATE)
            continue
        try:
            result, means[i] = _solve(psi_bar[i], model)
        except EstimationError as exc:
            errors[i] = exc
            continue
        theta[i] = result.theta

    sigma = _plug_in(cov, psi_bar, means)
    checks = [(sigma, _SINGULAR_SIGMA)]
    ridged = sigma
    if ridge > 0.0:
        ridged = sigma + ridge * np.eye(d)
        checks.append((ridged, _SINGULAR_RIDGED))
    for mats, message in checks:
        singular = _ill_conditioned(mats)
        for i in np.flatnonzero(singular):
            if errors[i] is None:
                errors[i] = SingularCovariance(message)

    ok = np.array([e is None for e in errors])
    if not ok.any():
        return _Rows(theta, sigma, None, None, errors)
    ridged = np.where(ok[:, None, None], ridged, np.eye(d))
    paths = _path(sums, means, np.linalg.cholesky(ridged))
    return _Rows(theta, sigma, paths, np.argmax(paths, axis=1), errors)


def build_state(data, model: MomentModel) -> ZProcessState:
    """Precompute prefix sums of ``psi`` so any Z_n(u, theta) is O(dim)."""
    data = _as_sample(data, 1)
    _, sums, _ = _moment_sums(data[None], model)
    return ZProcessState(n=data.shape[0], dim=model.dim, prefix=sums[0].T)


def z_at(state: ZProcessState, u: float, theta, model: MomentModel) -> np.ndarray:
    """Evaluate ``Z_n(u, theta) = (S_k - k * mean(theta)) / n``, k=floor(un)."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    k = _floor_index(float(u), state.n)
    mean = np.asarray(model.mean(theta), dtype=float)
    sums = np.array(state.prefix[k], dtype=float)[None, :, None]
    return _subtract_drift(sums, np.array([float(k)]), mean[None])[0, :, 0] / state.n


def _z_path(state: ZProcessState, mean: np.ndarray) -> np.ndarray:
    """``Z_n(k/n, theta)`` for k = 0..n as an ``(n + 1, dim)`` array."""
    sums = np.array(state.prefix.T[None], dtype=float)
    ks = np.arange(state.n + 1, dtype=float)
    return _subtract_drift(sums, ks, mean[None])[0].T / state.n


def sigma_hat(data, theta, model: MomentModel) -> np.ndarray:
    """Plug-in covariance ``(1/n) sum_k (psi(X_k) - mean(theta)) (...)'' ``.

    Computed as the centred sample covariance of ``psi(X)`` plus ``r r'``
    with ``r = psi_bar - mean(theta)``; with theta the full-sample moment
    estimate this is the (biased, 1/n) sample covariance of ``psi(X)``.

    Raises
    ------
    SingularCovariance
        If the result has condition number above 1e12.
    ValueError
        If the data are not a one-dimensional vector of finite values.
    """
    data = _as_sample(data, 1)
    moments, _, psi_bar = _moment_sums(data[None], model)
    mean = np.asarray(model.mean(theta), dtype=float)
    sigma = _plug_in(_centred_cov(moments, psi_bar), psi_bar, mean[None])
    if _ill_conditioned(sigma)[0]:
        raise SingularCovariance(_SINGULAR_SIGMA)
    return sigma[0]


def t_path(
    state: ZProcessState,
    theta,
    sigma: np.ndarray,
    model: MomentModel,
    ridge: float = 0.0,
) -> np.ndarray:
    """Statistic path ``t[k] = n * Z_n(k/n)' (sigma + ridge I)^{-1} Z_n(k/n)``.

    Returns an array of length ``n + 1`` with ``t[0] == 0`` and, when theta
    solves the estimating equation, ``t[n] == 0`` up to the solver residual.
    Each entry is a sum of squares of the whitened process, so none is
    negative.
    """
    _check_ridge(ridge)
    mean = np.asarray(model.mean(theta), dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if ridge > 0.0:
        sigma = sigma + ridge * np.eye(state.dim)
    if _ill_conditioned(sigma):
        raise SingularCovariance(_SINGULAR_RIDGED)
    sums = np.array(state.prefix.T[None], dtype=float)
    return _path(sums, mean[None], np.linalg.cholesky(sigma)[None])[0]


@dataclass(frozen=True)
class TestReport:
    """Everything produced by one run of the change point test.

    ``u_hat = k_hat / n`` locates the largest statistic value; it is reported
    whether or not the test rejects (flagged by ``reject``). ``level`` and
    ``critical_value`` are None for estimation-only runs.
    """

    __test__ = False  # keeps pytest from collecting this despite the name

    n: int
    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    t_path: np.ndarray
    t_stat: float
    level: float | None
    critical_value: float | None
    reject: bool
    u_hat: float
    k_hat: int


def _one_sample(data, model: MomentModel, ridge: float):
    data = _as_sample(data, model.dim + 2)
    rows = _statistic(data[None], model, ridge)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    k_hat = int(rows.k_hat[0])
    path = rows.paths[0]
    return dict(
        n=data.shape[0],
        theta_hat=rows.theta[0],
        sigma_hat=rows.sigma[0],
        t_path=path,
        t_stat=float(path[k_hat]),
        u_hat=k_hat / data.shape[0],
        k_hat=k_hat,
    )


def run_test(
    data,
    model: MomentModel,
    level: float = 0.05,
    critical_value: float | None = None,
    table=None,
    ridge: float = 0.0,
) -> TestReport:
    """Run the change point test on one sample.

    Parameters
    ----------
    data : array_like
        Finite observations, shape ``(n,)`` with ``n >= dim + 2``.
    model : MomentModel
    level : float
        Test level in (0, 1).
    critical_value : float, optional
        Explicit threshold; when omitted it is looked up for
        ``(model.dim, level)`` in ``table`` (or the packaged table).
    table : optional
        Table mapping, path, or None for the packaged default; forwarded to
        :func:`momentcpt.limits.lookup_critical_value`.
    ridge : float
        Finite, non-negative diagonal inflation added to the plug-in
        covariance before inversion. Off (0.0) by default.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    _check_ridge(ridge)
    if critical_value is None:
        from .limits import lookup_critical_value

        critical_value = lookup_critical_value(model.dim, level, table)
    fields = _one_sample(data, model, ridge)
    return TestReport(
        **fields,
        level=level,
        critical_value=float(critical_value),
        reject=bool(fields["t_stat"] > critical_value),
    )


def detect(data, model: MomentModel, ridge: float = 0.0) -> TestReport:
    """Estimation-only variant of :func:`run_test`: locate, never reject.

    The report carries the full statistic path and the maximizing index but
    ``level`` and ``critical_value`` are None and ``reject`` is False.
    """
    _check_ridge(ridge)
    return TestReport(
        **_one_sample(data, model, ridge),
        level=None,
        critical_value=None,
        reject=False,
    )


def change_point(report: TestReport) -> tuple[float, int]:
    """Smallest maximizer of the statistic path as ``(u_hat, k_hat)``."""
    k_hat = int(np.argmax(report.t_path))
    return k_hat / report.n, k_hat
