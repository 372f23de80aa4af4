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
# Newton stops once the residual norm is at most _NEWTON_TOL * (1 + |target|);
# it takes at most _MAX_ITER steps, each halved at most _MAX_HALVINGS times.
_NEWTON_TOL = 1e-10
_MAX_ITER = 100
_MAX_HALVINGS = 40


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


def newton_solve(target, model: MomentModel, theta_init) -> MMEResult:
    """Solve ``model.mean(theta) = target`` by damped Newton iteration.

    Steps are halved until the residual norm decreases and the iterate stays
    strictly inside the parameter domain (finite edges padded by 1e-8). The
    iteration stops once the residual norm is at most
    ``1e-10 * (1 + |target|)``; it takes at most 100 steps, each halved at
    most 40 times. An initial point that already meets tolerance is
    returned unchanged with ``iterations == 0``.

    Raises
    ------
    SingularJacobian
        If the Jacobian at an iterate is numerically singular.
    NoConvergence
        If no acceptable step exists or the iteration budget runs out.
    OutOfDomain
        If ``theta_init`` is outside the domain.
    ValueError
        If ``target`` holds a value that is not finite.
    """
    target = np.asarray(target, dtype=float)
    if not np.isfinite(target).all():
        raise ValueError(f"target {target.tolist()} is not finite")
    theta = model.require(theta_init).copy()
    lo, hi = _newton_box(model)
    scale = 1.0 + float(_norms(target[None])[0])

    residual = np.asarray(model.mean(theta), dtype=float) - target
    res_norm = float(_norms(residual[None])[0])
    for iteration in range(_MAX_ITER):
        if res_norm <= _NEWTON_TOL * scale:
            return MMEResult(theta, res_norm, iteration, "newton")
        jac = np.asarray(model.jacobian(theta), dtype=float)
        if _near_singular(jac):
            raise SingularJacobian(
                f"singular jacobian for model {model.name!r} at {theta!r}"
            )
        step = np.linalg.solve(jac, residual)
        accepted = False
        damping = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = theta - damping * step
            if np.all(candidate >= lo) and np.all(candidate <= hi):
                cand_res = np.asarray(model.mean(candidate), dtype=float) - target
                cand_norm = float(_norms(cand_res[None])[0])
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
    if res_norm <= _NEWTON_TOL * scale:
        return MMEResult(theta, res_norm, _MAX_ITER, "newton")
    raise NoConvergence(
        f"newton did not reach tolerance in {_MAX_ITER} iterations "
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


def _not_finite(x: np.ndarray, moments: np.ndarray) -> ValueError:
    """The error for a sample ``x`` whose moment average is not finite."""
    bad = ~np.isfinite(moments).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        return ValueError(f"psi(data[{k}]) is not finite (data[{k}] = {float(x[k])!r})")
    # every moment is finite, so a sum overflows: S_k, the first running sum
    # that does (a sum that is not finite stays so), or else the pairwise sum
    # over the whole sample
    running = np.isfinite(np.cumsum(moments, axis=0)).all(axis=1)
    if running.all():
        k = int(np.argmax(np.abs(x)))
        return ValueError(f"the sum of psi(data) overflows (data[{k}] = {float(x[k])!r})")
    k = 1 + int(np.argmin(running))
    return ValueError(
        f"the sum of psi(data[:{k}]) overflows (data[{k - 1}] = {float(x[k - 1])!r})"
    )


def _psi(block: np.ndarray, model: MomentModel) -> np.ndarray:
    """The ``(m, n, dim)`` moments of an ``(m, n)`` block: one ``psi`` call.

    The result is C-contiguous and shares no memory with ``block``, so the
    later stages may centre and whiten it in place.

    Raises
    ------
    ValueError
        If ``psi`` does not return one ``dim``-vector per observation, an
        ``(m * n, dim)`` array.
    """
    m, n = block.shape
    # overflow is reported per row by _moments, by name
    with np.errstate(over="ignore", invalid="ignore"):
        moments = np.asarray(model.psi(block.reshape(-1)), dtype=float)
    if moments.shape != (m * n, model.dim):
        raise ValueError(
            f"psi of model {model.name!r} must return shape {(m * n, model.dim)}, "
            f"got {moments.shape}"
        )
    if (
        np.may_share_memory(moments, block)
        or not moments.flags.writeable
        or not moments.flags.c_contiguous
    ):
        moments = moments.copy()
    return moments.reshape(m, n, model.dim)


def _empty(work: dict | None, name: str, shape: tuple) -> np.ndarray:
    """An uninitialised float array of ``shape``, fresh or from a workspace.

    A workspace ``work`` is a dict that the blocks of one experiment task,
    or of one sweep step, share: the array is then a C-contiguous view of
    the front of its buffer ``name``, which is allocated only when a
    request is larger than every earlier one, so blocks after a task's
    first, largest one allocate no such array. The view holds what the
    last user of ``name`` left there.
    """
    if work is None:
        return np.empty(shape)
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size)
    return work[name][:size].reshape(shape)


def _column_pairs(a: np.ndarray) -> list:
    """The columns of ``a`` (its last axis) two at a time, as views.

    Each pair ``a[..., 2p:2p + 2]`` is one complex array of the leading
    shape, and an odd last column one real array, so an elementwise add
    or subtract over the columns runs once per pair, with its inner loop
    along the second-last axis, not once per column in a loop strided by
    the row. Complex add and subtract are componentwise, so the results
    are those of the per-column passes bit for bit. The last axis must
    have unit stride; viewing a slice of it needs numpy >= 1.23.
    """
    d = a.shape[-1]
    pairs = [a[..., j : j + 2].view(complex)[..., 0] for j in range(0, d - 1, 2)]
    return pairs + [a[..., -1]] * (d % 2)


def _moments(block: np.ndarray, moments: np.ndarray, work: dict | None = None):
    """The moment stage for every row of an ``(m, n)`` block of samples.

    ``moments`` are the block's moments from :func:`_psi`; they are centred
    in place at ``psi_bar``, the pairwise sum of each column over the row
    divided by ``n``, in one pass per pair of columns (:func:`_column_pairs`),
    and returned with ``psi_bar``, the centred covariance
    ``(1/n) sum_k (psi_k - psi_bar)(psi_k - psi_bar)'`` per row, and per row
    None or the ``ValueError`` that names the first observation whose
    moments are not finite (or the sum of them that overflows), or the
    largest observation of a row whose covariance overflows; such a row's
    moments, ``psi_bar`` and covariance are zeroed so that the later stages
    stay finite. Each value is a sum over one row, so a row's values do not
    depend on the other rows of the block. The ``(m, n)`` product row that
    the covariance is summed from comes from the workspace ``work`` (the
    buffer ``"row"``, see :func:`_empty`), or is allocated without one.

    The row and column of a constant moment are exactly zero: ``psi_bar``
    carries the rounding of its sum, so centring would leave a spurious
    spread that no relative conditioning check can see when ``dim == 1``.
    A constant column has equal first and last entries, so only those
    columns get the full comparison.
    """
    m, n, d = moments.shape
    # overflow is reported per row below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        psi_bar = np.stack([moments[:, :, j].sum(axis=1) for j in range(d)], axis=1) / n
        errors: list = [None] * m
        for i in np.flatnonzero(~np.isfinite(psi_bar).all(axis=1)):
            errors[i] = _not_finite(block[i], moments[i])
            moments[i] = psi_bar[i] = 0.0

        maybe = moments[:, 0] == moments[:, -1]
        constant = np.zeros((m, d), dtype=bool)
        for j in range(d):
            rows = np.flatnonzero(maybe[:, j])
            if rows.size:
                col = moments[:, :, j] if rows.size == m else moments[rows, :, j]
                constant[rows, j] = (col == col[:, :1]).all(axis=1)
        for col, mean in zip(_column_pairs(moments), _column_pairs(psi_bar)):
            col -= mean[:, None]
        cov = np.empty((m, d, d))
        prod = _empty(work, "row", (m, n))
        for i in range(d):
            for j in range(i + 1):
                np.multiply(moments[:, :, i], moments[:, :, j], out=prod)
                cov[:, i, j] = cov[:, j, i] = prod.sum(axis=1) / n
        cov[constant[:, :, None] | constant[:, None, :]] = 0.0
    for i in np.flatnonzero(~np.isfinite(cov).all(axis=(1, 2))):
        k = int(np.argmax(np.abs(block[i])))
        errors[i] = ValueError(
            f"the covariance of psi(data) overflows (data[{k}] = {float(block[i, k])!r})"
        )
        moments[i] = psi_bar[i] = cov[i] = 0.0
    return moments, psi_bar, cov, errors


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(m, dim)`` array.

    Each row is one dot product, the kernel that ``np.linalg.norm`` uses for
    a single vector, so a row's norm equals ``np.linalg.norm(row)`` bit for
    bit (a reduction along ``axis=1`` rounds differently). A finite row
    whose sum of squares overflows is divided by its largest magnitude
    first, so its norm is finite whenever it is representable.
    """
    with np.errstate(over="ignore"):
        out = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
    big = np.flatnonzero(np.isinf(out) & np.isfinite(v).all(axis=1))
    if big.size:
        scale = np.abs(v[big]).max(axis=1)
        with np.errstate(over="ignore"):
            out[big] = scale * _norms(v[big] / scale[:, None])
    return out


_DEGENERATE = (
    "sample covariance of psi(X) is singular; the data do not identify the model"
)


def _solve(psi_bar: np.ndarray, model: MomentModel, errors: list):
    """Solve ``mean(theta) = psi_bar`` for each row of an ``(m, dim)`` array.

    Rows whose entry of ``errors`` is set are skipped. A closed-form model
    takes one ``inverse_mean`` call on the other rows, a Newton-only model
    one :func:`newton_solve` per row from ``init_guess``.
    Then one domain check, one ``mean`` call and the residual bound that
    :func:`mme` documents cover every row. A row that fails gets its error
    in ``errors``, NaN ``theta`` and residual, 0 iterations and
    ``means = psi_bar``. Returns ``theta``, ``means``, ``residual`` and
    ``iterations``.
    """
    theta = np.full(psi_bar.shape, np.nan)
    iterations = np.zeros(len(psi_bar), dtype=int)
    rows = np.flatnonzero([e is None for e in errors])
    # a moment vector on the edge of the domain (m2 == m1^2, or m == 0)
    # maps to inf or NaN under inverse_mean or init_guess; the domain check
    # below, or newton_solve, rejects it
    with np.errstate(divide="ignore", invalid="ignore"):
        if model.inverse_mean is None:
            if rows.size and model.init_guess is None:
                raise ValueError(
                    f"model {model.name!r} has no inverse_mean or init_guess"
                )
            for i in rows:
                start = model.init_guess(psi_bar[i])
                try:
                    fit = newton_solve(psi_bar[i], model, start)
                except EstimationError as exc:
                    errors[i] = exc
                    continue
                theta[i], iterations[i] = fit.theta, fit.iterations
        elif rows.size:
            theta[rows] = model.inverse_mean(psi_bar[rows])

    lo, hi = np.array(model.param_domain, dtype=float).T
    inside = ((theta > lo) & (theta < hi)).all(axis=1)  # NaN fails
    for i in rows[~inside[rows]]:
        if errors[i] is None:  # not a Newton failure
            errors[i] = OutOfDomain(
                f"moment vector {psi_bar[i].tolist()} has no preimage in the "
                f"domain of model {model.name!r}"
            )
    ok = rows[inside[rows]]
    means = psi_bar.copy()
    means[ok] = model.mean(theta[ok])
    residual = np.full(len(psi_bar), np.nan)
    residual[ok] = _norms(means[ok] - psi_bar[ok])
    bound = 1e-8 * (1.0 + _norms(psi_bar[ok]))
    for j in np.flatnonzero(~(residual[ok] <= bound)):  # NaN fails
        errors[ok[j]] = NoConvergence(
            f"estimating equation residual {residual[ok[j]]:.3e} "
            f"exceeds {bound[j]:.3e}"
        )
    failed = np.array([e is not None for e in errors])
    theta[failed] = residual[failed] = np.nan
    iterations[failed] = 0
    means[failed] = psi_bar[failed]
    return theta, means, residual, iterations


@dataclass(frozen=True)
class _BlockFit:
    """The fit stage on each row of an ``(m, n)`` block of samples.

    ``centred`` holds the ``(m, n, dim)`` moments centred at ``psi_bar``,
    the moment average, and ``cov`` their covariance per row, as
    :func:`_moments` gives them. ``theta``, ``means = mean(theta)``,
    ``residual`` and ``iterations`` describe each row's fit; a failed row has NaN ``theta``
    and ``residual``, 0 iterations and ``means = psi_bar``, and
    ``errors[i]`` holds the error that :func:`mme` raises for that sample
    alone (None for a row that fit).
    """

    centred: np.ndarray
    psi_bar: np.ndarray
    cov: np.ndarray
    theta: np.ndarray
    means: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    errors: list


def _fit(
    block: np.ndarray, moments: np.ndarray, model: MomentModel, work: dict | None = None
) -> _BlockFit:
    """The moment estimate for every row of an ``(m, n)`` block of samples.

    Runs the moment stage :func:`_moments` on the block's moments from
    :func:`_psi`, with the workspace ``work`` if one is given, checks each
    row's centred covariance for degeneracy, then solves the rows that
    passed with :func:`_solve`, which gives a failed row its own error.
    """
    centred, psi_bar, cov, errors = _moments(block, moments, work)
    for i in np.flatnonzero(_ill_conditioned(cov)):
        if errors[i] is None:
            errors[i] = DegenerateSample(_DEGENERATE)
    theta, means, residual, iterations = _solve(psi_bar, model, errors)
    return _BlockFit(centred, psi_bar, cov, theta, means, residual, iterations, errors)


def mme(data, model: MomentModel) -> MMEResult:
    """Method of moments estimate from a full sample.

    Solves ``mean(theta) = psi-bar`` where ``psi-bar`` is the sample average
    of ``psi(X_k)``. The returned residual always satisfies
    ``residual_norm <= 1e-8 * (1 + |psi-bar|)``.

    Parameters
    ----------
    data : array_like
        Finite observations, shape ``(n,)`` with ``n >= dim + 1``.
    model : MomentModel
        A model without a closed-form ``inverse_mean`` is solved by Newton
        iteration from ``init_guess(psi-bar)``.

    Raises
    ------
    DegenerateSample
        If the sample covariance of ``psi(X)`` is singular: its correlation
        matrix has condition number above 1e12, e.g. for constant data.
    OutOfDomain
        If the moment average has no preimage inside the parameter domain;
        the message names the moment vector and the model.
    NoConvergence, SingularJacobian
        Propagated from the Newton path.
    ValueError
        If the sample is not one-dimensional, shorter than ``dim + 1`` or
        holds a non-finite value, if the moments of an observation (or
        their sum, or their covariance) are not finite, or if the model has
        neither ``inverse_mean`` nor ``init_guess``.
    """
    data = _as_sample(data, model.dim + 1)
    fit = _fit(data[None], _psi(data[None], model), model)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    method = "newton" if model.inverse_mean is None else "closed_form"
    return MMEResult(
        fit.theta[0], float(fit.residual[0]), int(fit.iterations[0]), method
    )
