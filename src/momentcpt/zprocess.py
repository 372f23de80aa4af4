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
``S_k`` (so ``psi_bar = S_n / n``) and the fit from ``psi_bar``, which
together are the block fit that :func:`~momentcpt.estimator.mme` runs on
one row; then the covariance ``S + r r'`` from the centred sample
covariance ``S`` and the estimating equation residual
``r = psi_bar - mean(theta_hat)``, a Cholesky factor, and ``Z_n``
whitened into the path. A sample of more than ``2**15`` observations is
summed and whitened a chunk of indices ``k`` at a time in one chunk-sized
buffer, the earlier chunks summed again from the moments, so a test holds
the moments and one 8-byte path value per observation, not the full
prefix sums beside them; each sum is the same in any chunk.
:func:`run_test` and :func:`detect` are its one-row case and the
experiment harness feeds it whole blocks of replications; a row's results
do not depend on the other rows. The public pieces :func:`build_state`,
:func:`sigma_hat`, :func:`t_path` and :func:`z_at` wrap the same stages,
so that ``mme -> sigma_hat -> build_state -> t_path`` reproduces the path
of :func:`run_test` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularCovariance
from .estimator import _as_sample, _copied_chunks, _fit, _moments
from .limits import _threshold
from .models import MomentModel, _ill_conditioned, _mean_at

__all__ = [
    "ZProcessState",
    "TestReport",
    "build_state",
    "z_at",
    "sigma_hat",
    "t_path",
    "run_test",
    "detect",
]

_SINGULAR_SIGMA = "plug-in covariance of psi(X) is numerically singular"


def _floor_index(u: float, n: int) -> int:
    # floor(u*n) with a guard against products like 0.29*100 = 28.999...996;
    # u within 1e-9 of a grid point snaps up.
    k = int(u * n + 1e-9)
    return min(max(k, 0), n)


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

    ``sums`` is ``(m, K, dim)``, ``ks`` the ``K`` indices as floats and
    ``means`` the ``(m, dim)`` values of ``mean(theta)`` per row.
    """
    tmp = np.empty(sums.shape[:2])
    for j in range(sums.shape[2]):
        np.multiply(ks, means[:, j, None], out=tmp)
        sums[:, :, j] -= tmp
    return sums


def _plug_in(cov: np.ndarray, psi_bar: np.ndarray, means: np.ndarray) -> np.ndarray:
    """``(1/n) sum_k (psi_k - mean)(psi_k - mean)'`` from the centred covariance."""
    r = psi_bar - means
    return cov + r[:, :, None] * r[:, None, :]


def _path(chunks, means: np.ndarray, chol: np.ndarray, n: int) -> np.ndarray:
    """Statistic paths ``t[k] = n Z_n' sigma^{-1} Z_n``, ``k = 0..n``, a chunk at a time.

    ``chunks`` yields ``(a, S)`` pairs that cover ``k = 0..n``, ``S`` the
    ``(m, L, dim)`` raw prefix sums ``S_a..S_{a + L - 1}``, and each ``S``
    is overwritten: the drift is subtracted and each column whitened in
    place by forward substitution with ``chol * sqrt(n)``, so the path is
    the sum of squares of the whitened columns.
    """
    path = np.empty((len(means), n + 1))
    chol = chol * math.sqrt(n)
    for a, z in chunks:
        m, size, d = z.shape
        _subtract_drift(z, np.arange(a, a + size, dtype=float), means)
        tmp = np.empty((m, size))
        for j in range(d):
            for i in range(j):
                np.multiply(z[:, :, i], chol[:, j, i, None], out=tmp)
                z[:, :, j] -= tmp
            z[:, :, j] /= chol[:, j, j, None]
        out = path[:, a : a + size]
        np.square(z[:, :, 0], out=out)
        for j in range(1, d):
            np.square(z[:, :, j], out=tmp)
            out += tmp
    return path


@dataclass(frozen=True)
class _Rows:
    """The test on each row of a block; ``errors[i]`` is set for a failed row.

    ``theta[i]`` is the row's moment estimate, ``t_stats[i]`` and
    ``u_hats[i] = k_hat[i] / n`` its statistic and change fraction; all
    are NaN for a failed row.
    """

    theta: np.ndarray
    sigma: np.ndarray
    paths: np.ndarray
    k_hat: np.ndarray
    t_stats: np.ndarray
    u_hats: np.ndarray
    errors: list


def _statistic(block: np.ndarray, model: MomentModel) -> _Rows:
    """The change point test on every row of an ``(m, n)`` block of samples.

    The caller validates the data. A row that fails keeps the error that
    :func:`run_test` raises for that sample alone, in the same order of
    checks: finite moments (a ``ValueError``), then the
    :class:`~momentcpt.errors.EstimationError` of degeneracy, the fit and
    the plug-in covariance.
    """
    m, n = block.shape
    fit = _fit(block, model)
    errors = fit.errors
    sigma = _plug_in(fit.cov, fit.psi_bar, fit.means)
    for i in np.flatnonzero(_ill_conditioned(sigma)):
        if errors[i] is None:
            errors[i] = SingularCovariance(_SINGULAR_SIGMA)

    ok = np.array([e is None for e in errors])
    whiten = np.where(ok[:, None, None], sigma, np.eye(model.dim))
    paths = _path(fit.sums.chunks(), fit.means, np.linalg.cholesky(whiten), n)
    k_hat = np.argmax(paths, axis=1)
    t_stats = np.where(ok, paths[np.arange(m), k_hat], np.nan)
    u_hats = np.where(ok, k_hat / n, np.nan)
    return _Rows(fit.theta, sigma, paths, k_hat, t_stats, u_hats, errors)


def build_state(data, model: MomentModel) -> ZProcessState:
    """Precompute prefix sums of ``psi`` so any Z_n(u, theta) is O(dim).

    Raises
    ------
    ValueError
        If the data are not a one-dimensional vector of finite values, or
        the moments, their sum or their covariance are not finite; these
        are the samples that :func:`run_test` rejects with the same error.
    """
    data = _as_sample(data, 1)
    sums, _, _, errors = _moments(data[None], model)
    if errors[0] is not None:
        raise errors[0]
    return ZProcessState(n=data.shape[0], dim=model.dim, prefix=sums.full()[0])


def _state_mean(state: ZProcessState, theta, model: MomentModel) -> np.ndarray:
    """``mean(theta)`` for a state built with a model of the same dimension."""
    if state.dim != model.dim:
        raise ValueError(
            f"state.dim = {state.dim} does not match model.dim = {model.dim} "
            f"of model {model.name!r}"
        )
    return _mean_at(theta, model)


def z_at(state: ZProcessState, u: float, theta, model: MomentModel) -> np.ndarray:
    """Evaluate ``Z_n(u, theta) = (S_k - k * mean(theta)) / n``, k=floor(un).

    Raises
    ------
    OutOfDomain
        If theta lies outside the domain of the model.
    ValueError
        If u lies outside [0, 1], the state was built for a model of another
        dimension, or ``mean(theta)`` is not finite.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    k = _floor_index(float(u), state.n)
    mean = _state_mean(state, theta, model)
    return (state.prefix[k] - k * mean) / state.n


def sigma_hat(data, theta, model: MomentModel) -> np.ndarray:
    """Plug-in covariance ``(1/n) sum_k (psi(X_k) - mean(theta)) (...)'' ``.

    Computed as the centred sample covariance of ``psi(X)`` plus ``r r'``
    with ``r = psi_bar - mean(theta)``; with theta the full-sample moment
    estimate this is the (biased, 1/n) sample covariance of ``psi(X)``.

    Raises
    ------
    OutOfDomain
        If theta lies outside the domain of the model.
    SingularCovariance
        If the correlation matrix of the result has condition number above
        1e12.
    ValueError
        If the data are not a one-dimensional vector of finite values, or
        the moments, their sum or their covariance are not finite; these
        are the samples that :func:`run_test` rejects with the same error.
        Also if ``mean(theta)`` or the result is not finite.
    """
    mean = _mean_at(theta, model)
    data = _as_sample(data, 1)
    _, psi_bar, cov, errors = _moments(data[None], model)
    if errors[0] is not None:
        raise errors[0]
    # an overflow is reported below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = _plug_in(cov, psi_bar, mean[None])
    if not np.isfinite(sigma).all():
        raise ValueError(
            f"the plug-in covariance overflows at theta = "
            f"{np.asarray(theta, dtype=float).tolist()} for model {model.name!r}"
        )
    if _ill_conditioned(sigma)[0]:
        raise SingularCovariance(_SINGULAR_SIGMA)
    return sigma[0]


def t_path(
    state: ZProcessState, theta, sigma: np.ndarray, model: MomentModel
) -> np.ndarray:
    """Statistic path ``t[k] = n * Z_n(k/n)' sigma^{-1} Z_n(k/n)``.

    Returns an array of length ``n + 1`` with ``t[0] == 0`` and, when theta
    solves the estimating equation, ``t[n] == 0`` up to the solver residual.
    Each entry is a sum of squares of the whitened process, so none is
    negative. ``state.prefix`` is left alone: it is whitened a chunk at a
    time in a chunk-sized copy, as :func:`run_test` whitens its sums.

    Raises
    ------
    OutOfDomain
        If theta lies outside the domain of the model.
    ValueError
        If sigma is not a finite ``(dim, dim)`` array, the state was built
        for a model of another dimension, or ``mean(theta)`` or the path is
        not finite.
    SingularCovariance
        If the correlation matrix of sigma has condition number above 1e12.
    """
    mean = _state_mean(state, theta, model)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (model.dim, model.dim) or not np.isfinite(sigma).all():
        raise ValueError(
            f"sigma must be a finite ({model.dim}, {model.dim}) array, "
            f"got shape {sigma.shape}"
        )
    if _ill_conditioned(sigma):
        raise SingularCovariance(_SINGULAR_SIGMA)
    chunks = _copied_chunks(np.asarray(state.prefix, dtype=float))
    # an overflow is reported below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        path = _path(chunks, mean[None], np.linalg.cholesky(sigma)[None], state.n)[0]
    if not np.isfinite(path).all():
        raise ValueError(
            f"the statistic path overflows at theta = "
            f"{np.asarray(theta, dtype=float).tolist()} for model {model.name!r}"
        )
    return path


@dataclass(frozen=True)
class TestReport:
    """Everything produced by one run of the change point test.

    ``k_hat`` is the first index at which ``t_path`` takes its largest
    value and ``u_hat = k_hat / n``; both are reported whether or not the
    test rejects (flagged by ``reject``). ``level`` and
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


def _report(
    data,
    model: MomentModel,
    level: float | None = None,
    critical_value: float | None = None,
) -> TestReport:
    """The test on one sample; it rejects only against a critical value."""
    data = _as_sample(data, model.dim + 2)
    rows = _statistic(data[None], model)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    t_stat = float(rows.t_stats[0])
    return TestReport(
        n=data.shape[0],
        theta_hat=rows.theta[0],
        sigma_hat=rows.sigma[0],
        t_path=rows.paths[0],
        t_stat=t_stat,
        level=level,
        critical_value=critical_value,
        reject=critical_value is not None and t_stat > critical_value,
        u_hat=float(rows.u_hats[0]),
        k_hat=int(rows.k_hat[0]),
    )


def run_test(
    data,
    model: MomentModel,
    level: float = 0.05,
    critical_value: float | None = None,
    table=None,
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
        Explicit threshold, not NaN; ``inf`` never rejects. When omitted it
        is looked up for ``(model.dim, level)`` in ``table``.
    table : str or path, optional
        None for the packaged table, or the path of a table file as
        :func:`momentcpt.limits.write_table_file` writes it; forwarded to
        :func:`momentcpt.limits.lookup_critical_value`.
    """
    critical_value = _threshold(model.dim, level, critical_value, table)
    return _report(data, model, level, critical_value)


def detect(data, model: MomentModel) -> TestReport:
    """Estimation-only variant of :func:`run_test`: locate, never reject.

    The report carries the full statistic path and the maximizing index but
    ``level`` and ``critical_value`` are None and ``reject`` is False.
    """
    return _report(data, model)
