"""Method of moments estimation.

The estimator solves ``mean(theta) = average of psi(X_k)``. Families with a
closed-form ``inverse_mean`` use it directly; otherwise a damped Newton
iteration inverts the mean curve numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    EstimationError,
    NoConvergence,
    OutOfDomain,
    SingularJacobian,
)
from .models import MomentModel, _ill_conditioned, _near_singular

__all__ = ["MMEResult", "mme", "newton_solve"]

# Interior offset applied to finite domain edges when clipping Newton
# iterates; infinite edges are replaced by a large box.
_EDGE_PAD = 1e-8
_BOX_LIMIT = 1e8


@dataclass(frozen=True)
class MMEResult:
    """Outcome of a moment estimation.

    Attributes
    ----------
    theta : ndarray
        Estimated parameter vector.
    residual_norm : float
        Euclidean norm of ``mean(theta) - target``.
    iterations : int
        Newton iterations used (0 for the closed-form path).
    method : str
        ``"closed_form"`` or ``"newton"``.
    """

    theta: np.ndarray
    residual_norm: float
    iterations: int
    method: str


def _newton_box(model: MomentModel) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty(model.dim)
    hi = np.empty(model.dim)
    for i, (a, b) in enumerate(model.param_domain):
        lo[i] = a + _EDGE_PAD if math.isfinite(a) else -_BOX_LIMIT
        hi[i] = b - _EDGE_PAD if math.isfinite(b) else _BOX_LIMIT
    return lo, hi


def newton_solve(
    target,
    model: MomentModel,
    theta_init,
    tol: float = 1e-10,
    max_iter: int = 100,
    max_halvings: int = 40,
) -> MMEResult:
    """Solve ``model.mean(theta) = target`` by damped Newton iteration.

    Steps are halved until the residual norm decreases and the iterate stays
    strictly inside the parameter domain (finite edges padded by 1e-8). An
    initial point that already meets tolerance is returned unchanged with
    ``iterations == 0``.

    Raises
    ------
    SingularJacobian
        If the Jacobian at an iterate is numerically singular.
    NoConvergence
        If no acceptable step exists or the iteration budget runs out.
    OutOfDomain
        If ``theta_init`` is outside the domain.
    """
    target = np.asarray(target, dtype=float)
    theta = model.require(theta_init).copy()
    lo, hi = _newton_box(model)
    scale = 1.0 + float(np.linalg.norm(target))

    residual = np.asarray(model.mean(theta), dtype=float) - target
    res_norm = float(np.linalg.norm(residual))
    for iteration in range(max_iter):
        if res_norm <= tol * scale:
            return MMEResult(theta, res_norm, iteration, "newton")
        jac = np.asarray(model.jacobian(theta), dtype=float)
        if _near_singular(jac):
            raise SingularJacobian(
                f"singular jacobian for model {model.name!r} at {theta!r}"
            )
        step = np.linalg.solve(jac, residual)
        accepted = False
        damping = 1.0
        for _ in range(max_halvings + 1):
            candidate = theta - damping * step
            if np.all(candidate >= lo) and np.all(candidate <= hi):
                cand_res = np.asarray(model.mean(candidate), dtype=float) - target
                cand_norm = float(np.linalg.norm(cand_res))
                if cand_norm < res_norm:
                    theta, residual, res_norm = candidate, cand_res, cand_norm
                    accepted = True
                    break
            damping /= 2.0
        if not accepted:
            raise NoConvergence(
                f"newton stalled for model {model.name!r} at {theta!r} "
                f"(residual {res_norm:.3e})"
            )
    if res_norm <= tol * scale:
        return MMEResult(theta, res_norm, max_iter, "newton")
    raise NoConvergence(
        f"newton did not reach tolerance in {max_iter} iterations "
        f"(residual {res_norm:.3e})"
    )


def _as_sample(data, min_n: int) -> np.ndarray:
    """``data`` as a float vector of at least ``min_n`` finite observations."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise ValueError("data must be one-dimensional")
    if data.shape[0] < min_n:
        raise ValueError(
            f"need at least {min_n} observations, got {data.shape[0]}"
        )
    finite = np.isfinite(data)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"data[{i}] is not finite ({data[i]!r})")
    return data


def _not_finite(x: np.ndarray, moments: np.ndarray, sums: np.ndarray) -> ValueError:
    """The error for a sample ``x`` whose moment average is not finite."""
    bad = ~np.isfinite(moments).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        return ValueError(f"psi(data[{k}]) is not finite (data[{k}] = {float(x[k])!r})")
    # every moment is finite, so some partial sum overflows; S_k is the first
    k = int(np.argmin(np.isfinite(sums).all(axis=1)))
    return ValueError(
        f"the sum of psi(data[:{k}]) overflows (data[{k - 1}] = {float(x[k - 1])!r})"
    )


def _moment_sums(block: np.ndarray, model: MomentModel):
    """One ``psi`` call over an ``(m, n)`` block of samples.

    Returns the moments as an ``(m, n, dim)`` array that the caller may
    overwrite (it never shares memory with ``block``), their raw prefix sums
    ``S_k`` as an ``(m, n + 1, dim)`` array with ``S_0 = 0``,
    ``psi_bar = S_n / n`` per row, and per row None or the ``ValueError``
    that names the first observation whose moments are not finite (or at
    which their sum overflows); such a row's moments, sums and ``psi_bar``
    are zeroed so that the later stages stay finite. Each prefix sum is a
    sequential sum, so a row's values do not depend on the other rows of
    the block.
    """
    m, n = block.shape
    # overflow is reported per row below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        moments = np.asarray(model.psi(block.reshape(-1)), dtype=float)
        if np.may_share_memory(moments, block) or not moments.flags.writeable:
            moments = moments.copy()
        moments = moments.reshape(m, n, model.dim)
        sums = np.empty((m, n + 1, model.dim))
        sums[:, 0] = 0.0
        if model.dim % 2 == 0 and moments.flags.c_contiguous:
            # complex addition is componentwise, so each pair of columns is
            # summed in one pass with the same roundings as two real passes
            np.cumsum(moments.view(complex), axis=1, out=sums.view(complex)[:, 1:])
        else:
            np.cumsum(moments, axis=1, out=sums[:, 1:])
    psi_bar = sums[:, n] / n
    errors: list = [None] * m
    for i in np.flatnonzero(~np.isfinite(psi_bar).all(axis=1)):
        errors[i] = _not_finite(block[i], moments[i], sums[i])
        moments[i] = sums[i] = psi_bar[i] = 0.0
    return moments, sums, psi_bar, errors


def _centred_cov(moments: np.ndarray, psi_bar: np.ndarray) -> np.ndarray:
    """Sample covariance ``(1/n) sum_k (psi_k - psi_bar)(psi_k - psi_bar)'``.

    Works per row of an ``(m, n, dim)`` block and centres ``moments`` in
    place, one column at a time. Each entry is a pairwise sum over one
    contiguous row, so a row's covariance does not depend on the other
    rows. The row and column of a constant moment are exactly zero:
    ``psi_bar`` carries the rounding of its sum, so centring would leave a
    spurious spread that no relative conditioning check can see when
    ``dim == 1``. A constant column has equal first and last entries, so
    only those columns get the full comparison.
    """
    m, n, d = moments.shape
    maybe = moments[:, 0] == moments[:, -1]
    constant = np.zeros((m, d), dtype=bool)
    for j in range(d):
        rows = np.flatnonzero(maybe[:, j])
        if rows.size:
            col = moments[:, :, j] if rows.size == m else moments[rows, :, j]
            constant[rows, j] = (col == col[:, :1]).all(axis=1)
        moments[:, :, j] -= psi_bar[:, j, None]
    cov = np.empty((m, d, d))
    prod = np.empty((m, n))
    for i in range(d):
        for j in range(i + 1):
            np.multiply(moments[:, :, i], moments[:, :, j], out=prod)
            cov[:, i, j] = cov[:, j, i] = prod.sum(axis=1) / n
    cov[constant[:, :, None] | constant[:, None, :]] = 0.0
    return cov


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(m, dim)`` array.

    Each row is one dot product, the kernel that ``np.linalg.norm`` uses for
    a single vector, so a row's norm equals ``np.linalg.norm(row)`` bit for
    bit (a reduction along ``axis=1`` rounds differently).
    """
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


_DEGENERATE = (
    "sample covariance of psi(X) is singular; the data do not identify the model"
)


def _solve(psi_bar: np.ndarray, model: MomentModel, theta_init=None):
    """Solve ``mean(theta) = psi_bar``; return the fit and ``mean(theta)``.

    Uses the closed-form ``inverse_mean`` when the model has one and damped
    Newton otherwise, then enforces the residual bound that :func:`mme`
    documents.
    """
    if model.inverse_mean is not None:
        theta = model.require(
            np.asarray(model.inverse_mean(psi_bar), dtype=float)
        )
        mean = np.asarray(model.mean(theta), dtype=float)
        result = MMEResult(
            theta, float(np.linalg.norm(mean - psi_bar)), 0, "closed_form"
        )
    else:
        if theta_init is None:
            if model.init_guess is None:
                raise ValueError(
                    f"model {model.name!r} has no inverse_mean or init_guess; "
                    "pass theta_init"
                )
            theta_init = model.init_guess(psi_bar)
        result = newton_solve(psi_bar, model, theta_init)
        mean = np.asarray(model.mean(result.theta), dtype=float)

    bound = 1e-8 * (1.0 + float(np.linalg.norm(psi_bar)))
    if result.residual_norm > bound:
        raise NoConvergence(
            f"estimating equation residual {result.residual_norm:.3e} "
            f"exceeds {bound:.3e}"
        )
    return result, mean


@dataclass(frozen=True)
class _BlockFit:
    """The fit stage on each row of an ``(m, n)`` block of samples.

    ``sums`` holds the raw prefix sums ``(m, n + 1, dim)``, ``psi_bar`` and
    ``cov`` the moment average and centred covariance per row. ``theta``,
    ``means = mean(theta)``, ``residual`` and ``iterations`` describe each
    row's fit; a failed row has NaN ``theta`` and ``residual``, 0
    iterations and ``means = psi_bar``, and ``errors[i]`` holds the error
    that :func:`mme` raises for that sample alone (None for a row that fit).
    """

    sums: np.ndarray
    psi_bar: np.ndarray
    cov: np.ndarray
    theta: np.ndarray
    means: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    errors: list


def _fit(block: np.ndarray, model: MomentModel, theta_init=None) -> _BlockFit:
    """The moment estimate for every row of an ``(m, n)`` block of samples.

    Makes one ``psi`` call and one prefix-sum pass over the block, checks
    each row's centred covariance for degeneracy, then solves the rows. A
    closed-form model is solved with one ``inverse_mean`` and one ``mean``
    call on all rows, with the domain and the residual bound checked per
    row; the rows that fail those checks (all rows, if ``inverse_mean``
    raises) and every row of a Newton-only model go through :func:`_solve`
    one at a time, which gives a failed row its own error.
    """
    moments, sums, psi_bar, errors = _moment_sums(block, model)
    cov = _centred_cov(moments, psi_bar)
    del moments  # free the (m, n, dim) buffer before the fits
    for i in np.flatnonzero(_ill_conditioned(cov)):
        if errors[i] is None:
            errors[i] = DegenerateSample(_DEGENERATE)
    m, dim = psi_bar.shape
    theta = np.full((m, dim), np.nan)
    means = psi_bar.copy()
    residual = np.full(m, np.nan)
    iterations = np.zeros(m, dtype=int)
    todo = np.array([e is None for e in errors], dtype=bool)

    rows = np.flatnonzero(todo)
    if model.inverse_mean is not None and rows.size:
        try:
            guess = np.asarray(model.inverse_mean(psi_bar[rows]), dtype=float)
        except OutOfDomain:
            pass  # _solve finds the rows without a preimage
        else:
            lo, hi = np.array(model.param_domain, dtype=float).T
            inside = ((guess > lo) & (guess < hi)).all(axis=1)  # NaN fails
            rows, guess = rows[inside], guess[inside]
            mean = np.asarray(model.mean(guess), dtype=float)
            res = _norms(mean - psi_bar[rows])
            fits = ~(res > 1e-8 * (1.0 + _norms(psi_bar[rows])))
            rows = rows[fits]
            theta[rows], means[rows], residual[rows] = guess[fits], mean[fits], res[fits]
            todo[rows] = False

    for i in np.flatnonzero(todo):
        try:
            fit, means[i] = _solve(psi_bar[i], model, theta_init)
        except EstimationError as exc:
            errors[i] = exc
            continue
        theta[i], residual[i], iterations[i] = fit.theta, fit.residual_norm, fit.iterations
    return _BlockFit(sums, psi_bar, cov, theta, means, residual, iterations, errors)


def mme(data, model: MomentModel, theta_init=None) -> MMEResult:
    """Method of moments estimate from a full sample.

    Solves ``mean(theta) = psi-bar`` where ``psi-bar`` is the sample average
    of ``psi(X_k)``. The returned residual always satisfies
    ``residual_norm <= 1e-8 * (1 + |psi-bar|)``.

    Parameters
    ----------
    data : array_like
        Finite observations, shape ``(n,)`` with ``n >= dim + 1``.
    model : MomentModel
    theta_init : array_like, optional
        Starting point for the Newton path; ignored when the model has a
        closed-form ``inverse_mean``.

    Raises
    ------
    DegenerateSample
        If the sample covariance of ``psi(X)`` is singular (condition number
        above 1e12), e.g. for constant data.
    OutOfDomain
        If the implied estimate leaves the parameter domain.
    NoConvergence, SingularJacobian
        Propagated from the Newton path.
    ValueError
        If the sample is not one-dimensional, shorter than ``dim + 1`` or
        holds a non-finite value, if the moments of an observation (or
        their sum) are not finite, or if no starting point is available for
        a model without ``inverse_mean``.
    """
    data = _as_sample(data, model.dim + 1)
    fit = _fit(data[None], model, theta_init)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    method = "newton" if model.inverse_mean is None else "closed_form"
    return MMEResult(
        fit.theta[0], float(fit.residual[0]), int(fit.iterations[0]), method
    )
