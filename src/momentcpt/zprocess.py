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
``(m, n)`` block of samples from the moments of one ``psi`` call, which
the caller makes: ``psi_bar`` as the pairwise sum of each moment over the
row divided by ``n``, and the fit from ``psi_bar``, which together are the
block fit that :func:`~momentcpt.estimator.mme` runs on one row; then the
covariance ``S + r r'`` from the centred sample covariance ``S`` and the
estimating equation residual ``r = psi_bar - mean(theta_hat)``, which
``_plug_in`` forms and judges for it and for :func:`sigma_hat` alike, and
a Cholesky factor. The path is summed from whitened increments: each
``psi(X_k) - mean(theta_hat)`` is whitened before it is added, so no raw
sum of moments has ``k * mean(theta_hat)`` subtracted from it, a step that
cancels digits when the data sit far from zero. The increments are
whitened and summed in place, in the moment array, so a test holds the
moments and one 8-byte row per observation at a time. The centring at
``psi_bar``, the residual add and the running sum run once per pair of
moment columns on their complex view, and once on an odd last column
(see :func:`~momentcpt.estimator._column_pairs`); complex addition is
componentwise, so they give the bits of a pass per column. The core
returns one record per block, the one that the fit builds, with the
plug-in covariance, path, statistic and change fraction of each row
added beside its estimate, residual and iterations.
:func:`run_test` and :func:`detect` are its one-row case and the
experiment harness feeds it whole blocks of replications; a row's results
do not depend on the other rows. The public pieces :func:`build_state`,
:func:`sigma_hat`, :func:`t_path` and :func:`z_at` wrap the same stages:
``mme -> sigma_hat -> build_state -> t_path`` reproduces the estimate,
covariance and path of :func:`run_test` bit for bit, as the state keeps the
centred moments that the path stage sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularCovariance
from .estimator import (
    _as_sample,
    _BlockFit,
    _column_pairs,
    _empty,
    _fail,
    _fit,
    _moments,
    _psi,
)
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
    """The moment map over one sample, centred at its average.

    ``psi_bar`` is the sample moment vector as the estimate is fit to it,
    the pairwise sum of each moment divided by n, and ``centred[k - 1]``
    holds ``psi(X_k) - psi_bar``, the moments that :func:`t_path` sums as
    :func:`run_test` does and from which :func:`z_at` forms
    ``Z_n(u, theta)``. ``centred`` has shape ``(n, dim)`` and ``psi_bar``
    ``(dim,)``.
    """

    n: int
    dim: int
    centred: np.ndarray
    psi_bar: np.ndarray


def _plug_in(
    cov: np.ndarray, r: np.ndarray, theta, model: MomentModel, errors: list
) -> np.ndarray:
    """The plug-in covariances ``(1/n) sum_k (psi_k - mean)(psi_k - mean)'``
    of a block, ``cov + r r'`` from the ``(m, dim, dim)`` centred covariances
    and the ``(m, dim)`` residuals ``r = psi_bar - mean(theta[i])``, and the
    one place that judges them.

    Through :func:`~momentcpt.estimator._fail`, a row without an error whose
    result is not finite gets the ``ValueError`` that names ``theta[i]`` and
    the model, and otherwise one whose correlation matrix has condition
    number above 1e12 gets :class:`~momentcpt.errors.SingularCovariance`.
    """
    # an overflow is reported below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = cov + r[:, :, None] * r[:, None, :]
    _fail(
        errors,
        ~np.isfinite(sigma).all(axis=(1, 2)),
        lambda i: ValueError(
            f"the plug-in covariance overflows at theta = "
            f"{np.asarray(theta[i], dtype=float).tolist()} for model {model.name!r}"
        ),
    )
    _fail(errors, _ill_conditioned(sigma), lambda i: SingularCovariance(_SINGULAR_SIGMA))
    return sigma


def _whiten(z: np.ndarray, chol: np.ndarray, work: dict) -> None:
    """In place: each ``dim``-vector of an ``(m, K, dim)`` array becomes
    ``chol^{-1} z``, by forward substitution with the ``(m, dim, dim)``
    lower factors ``chol``. Its ``(m, K)`` temporary is the workspace
    ``work``'s buffer ``"row"``, free once ``_moments`` has summed its
    product rows."""
    tmp = _empty(work, "row", z.shape[:2])
    for j in range(z.shape[2]):
        for i in range(j):
            np.multiply(z[:, :, i], chol[:, j, i, None], out=tmp)
            z[:, :, j] -= tmp
        z[:, :, j] /= chol[:, j, j, None]


def _squared_norms(z: np.ndarray, out: np.ndarray) -> None:
    """``out[i, k] = |z[i, k]|^2`` for an ``(m, K, dim)`` array ``z``.

    ``z`` is squared in place, so no array of its size is allocated. The
    first two squares are added straight into ``out`` in one pass, which
    rounds as copying ``z0^2`` and then adding ``z1^2`` does.
    """
    np.square(z, out=z)
    if z.shape[2] == 1:
        out[...] = z[:, :, 0]
    else:
        np.add(z[:, :, 0], z[:, :, 1], out=out)
    for j in range(2, z.shape[2]):
        out += z[:, :, j]


def _running_sums(z: np.ndarray) -> None:
    """In place: ``z[:, k]`` becomes ``z[:, 0] + ... + z[:, k]`` for an
    ``(m, K, dim)`` array ``z``.

    One ``cumsum`` runs per pair of columns on its complex view, and one
    on an odd last column (see :func:`~momentcpt.estimator._column_pairs`),
    with the roundings of a pass per column.
    """
    for col in _column_pairs(z):
        np.cumsum(col, axis=1, out=col)


def _path(centred: np.ndarray, r: np.ndarray, chol: np.ndarray, work: dict) -> np.ndarray:
    """Statistic paths ``t[k] = n Z_n' sigma^{-1} Z_n``, ``k = 0..n``, in one forward pass.

    ``centred`` holds the ``(m, n, dim)`` moments centred at ``psi_bar``
    and ``r = psi_bar - mean(theta)`` the residual per row, so that
    ``centred + r`` are the increments ``psi_k - mean(theta)`` of ``n Z_n``.
    In place, each increment is whitened by forward substitution with
    ``chol * sqrt(n)``, the whitened increments are summed in sequence, and
    the squared norms of the sums are the path; ``centred`` is left
    holding the squares of the sums. ``r`` is added, and the increments
    are summed, in one pass per pair of columns on their complex view and
    one on an odd last column, with the bits of a pass per column (see
    :func:`~momentcpt.estimator._column_pairs`). The whitening temporary
    and then the returned ``(m, n + 1)`` path are the workspace ``work``'s
    buffer ``"row"`` (see :func:`~momentcpt.estimator._empty`), which the
    next block overwrites.
    """
    m, n, _ = centred.shape
    for col, res in zip(_column_pairs(centred), _column_pairs(r)):
        col += res[:, None]
    _whiten(centred, chol * math.sqrt(n), work)
    _running_sums(centred)
    path = _empty(work, "row", (m, n + 1))
    path[:, 0] = 0.0
    _squared_norms(centred, path[:, 1:])
    return path


def _statistic(
    block: np.ndarray, moments: np.ndarray, model: MomentModel, work: dict
) -> _BlockFit:
    """The change point test on every row of an ``(m, n)`` block of samples.

    ``moments`` are the block's moments from
    :func:`~momentcpt.estimator._psi`, which the fit centres in place.
    The caller validates the data. Returns the record that
    :func:`~momentcpt.estimator._fit` builds, with the test fields filled
    and ``centred`` None, so that the spent moments are freed with the
    caller's last reference to them, before its next block allocates its
    own. A row that fails keeps the first error of its checks, the one
    that :func:`run_test` raises for that sample alone. The checks run in
    this order: finite moments (a ``ValueError``), degeneracy
    (:class:`~momentcpt.errors.DegenerateSample`), the fit, plug-in
    overflow (a ``ValueError`` from :func:`_plug_in`) and plug-in
    conditioning (:class:`~momentcpt.errors.SingularCovariance`). A failed
    row's path is summed from its centred moments alone, without its
    residual and with an identity factor for its covariance, so it raises
    no warning; its statistic and change fraction are NaN. ``moments`` is
    left holding the squares of each row's whitened sums (see
    :func:`_path`). ``paths`` is the workspace ``work``'s buffer ``"row"``,
    the scratch row of the moment and path stages; the other fields are
    arrays of their own.
    """
    m, n = block.shape
    fit = _fit(block, moments, model, work)
    r = fit.psi_bar - fit.means
    sigma = _plug_in(fit.cov, r, fit.theta, model, fit.errors)
    ok = np.array([e is None for e in fit.errors])
    chol = np.linalg.cholesky(np.where(ok[:, None, None], sigma, np.eye(model.dim)))
    paths = _path(fit.centred, np.where(ok[:, None], r, 0.0), chol, work)
    k_hat = np.argmax(paths, axis=1)
    return replace(
        fit,
        centred=None,
        sigma=sigma,
        paths=paths,
        k_hat=k_hat,
        t_stats=np.where(ok, paths[np.arange(m), k_hat], np.nan),
        u_hats=np.where(ok, k_hat / n, np.nan),
    )


def build_state(data, model: MomentModel) -> ZProcessState:
    """The moments of ``data`` centred at their average, for :func:`z_at`
    and :func:`t_path`.

    Raises
    ------
    ValueError
        If the data are not a one-dimensional vector of finite values, or
        the moments, their sum or their covariance are not finite; these
        are the samples that :func:`run_test` rejects with the same error.
    """
    data = _as_sample(data, 1)
    centred, psi_bar, _, errors = _moments(data[None], _psi(data[None], model), {})
    if errors[0] is not None:
        raise errors[0]
    return ZProcessState(data.shape[0], model.dim, centred[0], psi_bar[0])


def _state_mean(state: ZProcessState, theta, model: MomentModel) -> np.ndarray:
    """``mean(theta)`` for a state built with a model of the same dimension."""
    if state.dim != model.dim:
        raise ValueError(
            f"state.dim = {state.dim} does not match model.dim = {model.dim} "
            f"of model {model.name!r}"
        )
    return _mean_at(theta, model)


def z_at(state: ZProcessState, u: float, theta, model: MomentModel) -> np.ndarray:
    """Evaluate ``Z_n(u, theta)`` at ``k = floor(u n)``.

    The increments ``psi(X_j) - mean(theta)`` are split as the centred
    moments plus the residual ``psi_bar - mean(theta)``, so ``Z_n`` is
    ``(sum_{j <= k} centred[j - 1] + k * (psi_bar - mean(theta))) / n``
    and no raw sum of moments has ``k * mean(theta)`` subtracted from it.
    It takes O(k dim) operations.

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
    return (state.centred[:k].sum(axis=0) + k * (state.psi_bar - mean)) / state.n


def sigma_hat(data, theta, model: MomentModel) -> np.ndarray:
    """Plug-in covariance ``(1/n) sum_k (psi(X_k) - mean(theta)) (...)'' ``.

    Computed as the centred sample covariance of ``psi(X)`` plus ``r r'``
    with ``r = psi_bar - mean(theta)``; with theta the full-sample moment
    estimate this is the (biased, 1/n) sample covariance of ``psi(X)``.
    It is formed and judged by :func:`_plug_in`, as :func:`run_test`
    forms and judges it, so at the estimate a sample gets the error that
    :func:`run_test` raises for it.

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
        Also if ``mean(theta)`` is not finite, or if the result is not
        finite; that error names theta and the model.
    """
    mean = _mean_at(theta, model)
    data = _as_sample(data, 1)
    _, psi_bar, cov, errors = _moments(data[None], _psi(data[None], model), {})
    sigma = _plug_in(cov, psi_bar - mean[None], [theta], model, errors)
    if errors[0] is not None:
        raise errors[0]
    return sigma[0]


def t_path(
    state: ZProcessState, theta, sigma: np.ndarray, model: MomentModel
) -> np.ndarray:
    """Statistic path ``t[k] = n * Z_n(k/n)' sigma^{-1} Z_n(k/n)``.

    Returns an array of length ``n + 1`` with ``t[0] == 0`` and, when theta
    solves the estimating equation, ``t[n] == 0`` up to the solver residual.
    Each entry is a sum of squares of the whitened process, so none is
    negative. The path is summed from the whitened increments
    ``state.centred + state.psi_bar - mean(theta)``, as :func:`run_test`
    sums them, in a copy of the state's centred moments, so the state is
    left as it is.

    Raises
    ------
    OutOfDomain
        If theta lies outside the domain of the model.
    ValueError
        If sigma is not a finite ``(dim, dim)`` array, symmetric to within
        1e-12 of its largest entry, the state was built for a model of
        another dimension, or ``mean(theta)`` or the path is
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
    # the Cholesky factor reads only the lower triangle
    if np.abs(sigma - sigma.T).max() > 1e-12 * np.abs(sigma).max():
        raise ValueError(f"sigma must be symmetric, got {sigma.tolist()}")
    if _ill_conditioned(sigma):
        raise SingularCovariance(_SINGULAR_SIGMA)
    r = state.psi_bar - mean
    # an overflow is reported below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        chol = np.linalg.cholesky(sigma)
        path = _path(state.centred.copy()[None], r[None], chol[None], {})[0]
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
    rows = _statistic(data[None], _psi(data[None], model), model, {})
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
