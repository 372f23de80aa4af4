"""Method of moments estimation.

The estimator solves ``mean(theta) = average of psi(X_k)``. Families with a
closed-form ``inverse_mean`` use it directly; otherwise a damped Newton
iteration inverts the mean curve numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, NoConvergence, OutOfDomain, SingularJacobian
from .models import MomentModel, _COND_EPS, _ill_conditioned

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
        svals = np.linalg.svd(jac, compute_uv=False)
        if svals[0] <= 0.0 or svals[-1] <= _COND_EPS * svals[0]:
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


def _moment_sums(block: np.ndarray, model: MomentModel):
    """One ``psi`` call over an ``(m, n)`` block of samples.

    Returns the moments as an ``(m, n, dim)`` array that the caller may
    overwrite (it never shares memory with ``block``), their raw prefix sums
    ``S_k`` as an ``(m, dim, n + 1)`` array with ``S_0 = 0``, and
    ``psi_bar = S_n / n`` per row. Each prefix sum is a sequential sum, so a
    row's values do not depend on the other rows of the block.
    """
    m, n = block.shape
    moments = np.asarray(model.psi(block.reshape(-1)), dtype=float)
    if np.may_share_memory(moments, block) or not moments.flags.writeable:
        moments = moments.copy()
    moments = moments.reshape(m, n, model.dim)
    sums = np.empty((m, model.dim, n + 1))
    sums[:, :, 0] = 0.0
    for j in range(model.dim):
        np.cumsum(moments[:, :, j], axis=1, out=sums[:, j, 1:])
    return moments, sums, sums[:, :, n] / n


def _centred_cov(moments: np.ndarray, psi_bar: np.ndarray) -> np.ndarray:
    """Sample covariance ``(1/n) sum_k (psi_k - psi_bar)(psi_k - psi_bar)'``.

    Works per row of an ``(m, n, dim)`` block and centres ``moments`` in
    place. Each entry is a pairwise sum over one contiguous row, so a row's
    covariance does not depend on the other rows. The row and column of a
    constant moment are exactly zero: ``psi_bar`` carries the rounding of
    its sum, so centring would leave a spurious spread that no relative
    conditioning check can see when ``dim == 1``.
    """
    m, n, d = moments.shape
    constant = np.stack(
        [(moments[:, :, j] == moments[:, :1, j]).all(axis=1) for j in range(d)],
        axis=1,
    )
    moments -= psi_bar[:, None, :]
    cov = np.empty((m, d, d))
    prod = np.empty((m, n))
    for i in range(d):
        for j in range(i + 1):
            np.multiply(moments[:, :, i], moments[:, :, j], out=prod)
            cov[:, i, j] = cov[:, j, i] = prod.sum(axis=1) / n
    cov[constant[:, :, None] | constant[:, None, :]] = 0.0
    return cov


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
        holds a non-finite value, or if no starting point is available for
        a model without ``inverse_mean``.
    """
    data = _as_sample(data, model.dim + 1)
    moments, _, psi_bar = _moment_sums(data[None], model)
    if _ill_conditioned(_centred_cov(moments, psi_bar))[0]:
        raise DegenerateSample(_DEGENERATE)
    return _solve(psi_bar[0], model, theta_init)[0]
