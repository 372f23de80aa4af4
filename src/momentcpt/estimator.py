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
    # every moment is finite, so some partial sum overflows; S_k is the first
    # (a sum that is not finite stays so, in one pass or chunk by chunk)
    k = 1 + int(np.argmin(np.isfinite(np.cumsum(moments, axis=0)).all(axis=1)))
    return ValueError(
        f"the sum of psi(data[:{k}]) overflows (data[{k - 1}] = {float(x[k - 1])!r})"
    )


# Observations per chunk of the moment and path stages. A longer row is
# summed, centred and whitened a chunk at a time, so its moments, one
# product row and its path are its only arrays of full length; a shorter
# row is a single chunk.
_CHUNK = 1 << 15


def _sum_chunk(moments: np.ndarray, a: int, b: int, start, out: np.ndarray) -> None:
    """``S_a..S_b`` into ``out[:, :b - a + 1]`` from ``S_a = start`` and the raw moments.

    The sums run in sequence, as one ``cumsum`` over the whole row does, so
    each ``S_k`` is the same in whichever chunk it falls: while the chunk is
    summed, ``psi_a`` is replaced by ``S_a + psi_a = S_{a + 1}``.
    """
    out[:, 0] = start
    src, dst = moments[:, a:b], out[:, 1 : b - a + 1]
    if moments.shape[2] % 2 == 0 and moments.flags.c_contiguous:
        # complex addition is componentwise, so each pair of columns is
        # summed in one pass with the same roundings as two real passes
        src, dst = src.view(complex), dst.view(complex)
    first = moments[:, a].copy()
    if a:  # the first chunk is summed as it stands, from S_0 = 0
        moments[:, a] += start
    np.cumsum(src, axis=1, out=dst)
    moments[:, a] = first


@dataclass(frozen=True)
class _Sums:
    """The raw prefix sums ``S_k`` of an ``(m, n)`` block, a chunk at a time.

    Chunk ``c`` covers the observations ``[a, b)``, ``a = c * size``, and
    the sums ``S_a..S_b``; ``starts[:, c]`` records its ``S_a``. ``buf``
    holds the last chunk's sums, and ``moments`` the raw moments that the
    earlier chunks are summed again from (None for a single chunk, whose
    sums ``buf`` holds in full).
    """

    n: int
    starts: np.ndarray
    buf: np.ndarray
    moments: np.ndarray | None

    def chunks(self):
        """``(a, S)`` per chunk, from the last: ``S`` holds the ``(m, L, dim)``
        sums ``S_a..S_{a + L - 1}``, through ``S_n`` for the last chunk and
        up to the next chunk's start for the others.

        Every chunk is summed into ``buf``, so it holds until the next one
        is drawn, and a record is walked once.
        """
        size = self.buf.shape[1] - 1
        count = self.starts.shape[1]
        a = (count - 1) * size
        yield a, self.buf[:, : self.n - a + 1]
        for c in range(count - 2, -1, -1):
            a = c * size
            _sum_chunk(self.moments, a, a + size, self.starts[:, c], self.buf)
            yield a, self.buf[:, :size]

    def full(self) -> np.ndarray:
        """All the sums as one ``(m, n + 1, dim)`` array; walks the record."""
        if self.moments is None:
            return self.buf
        m, _, d = self.buf.shape
        out = np.empty((m, self.n + 1, d))
        for a, sums in self.chunks():
            out[:, a : a + sums.shape[1]] = sums
        return out


def _copied_chunks(prefix: np.ndarray):
    """``(a, S)`` chunks of ``(n + 1, dim)`` prefix sums, as :meth:`_Sums.chunks`
    yields them; each is a ``(1, L, dim)`` copy in one buffer."""
    size = min(len(prefix), _CHUNK)
    buf = np.empty((1, size, prefix.shape[1]))
    for a in range(0, len(prefix), size):
        chunk = buf[:, : len(prefix) - a]
        chunk[0] = prefix[a : a + size]
        yield a, chunk


def _moments(block: np.ndarray, model: MomentModel):
    """The moment stage for every row of an ``(m, n)`` block of samples.

    Makes one ``psi`` call and returns the raw prefix sums ``S_k`` (with
    ``S_0 = 0``) as a :class:`_Sums` record, ``psi_bar = S_n / n`` and
    the centred covariance ``(1/n) sum_k (psi_k - psi_bar)(psi_k -
    psi_bar)'`` per row, and per row None or the ``ValueError`` that names
    the first observation whose moments are not finite (or at which their
    sum overflows), or the largest observation of a row whose covariance
    overflows; such a row's moments, sums, ``psi_bar`` and covariance are
    zeroed so that the later stages stay finite. Each prefix sum is a
    sequential sum and each covariance entry a pairwise sum over one
    contiguous row, so a row's values do not depend on the other rows of
    the block, nor on the chunks.

    A row of up to ``_CHUNK`` observations is one chunk: its moments are
    centred in place, and its sums are kept whole. A longer row keeps only
    the last chunk's sums; its earlier chunks are centred into chunk-sized
    scratch, and the record sums them again from the raw moments.

    The row and column of a constant moment are exactly zero: ``psi_bar``
    carries the rounding of its sum, so centring would leave a spurious
    spread that no relative conditioning check can see when ``dim == 1``.
    A constant column has equal first and last entries, so only those
    columns get the full comparison.
    """
    m, n = block.shape
    d = model.dim
    size = min(n, _CHUNK)
    count = -(-n // size)
    # allocated before psi's output, which is freed first: over a loop of
    # blocks the heap then keeps its pages instead of returning them to the
    # system and faulting them in again for every block
    starts = np.zeros((m, count, d))
    buf = np.empty((m, size + 1, d))
    # overflow is reported per row below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        moments = np.asarray(model.psi(block.reshape(-1)), dtype=float)
        # the moments are centred in place below
        if np.may_share_memory(moments, block) or not moments.flags.writeable:
            moments = moments.copy()
        moments = moments.reshape(m, n, d)
        for c in range(count):
            if c:
                starts[:, c] = buf[:, size]
            a = c * size
            _sum_chunk(moments, a, min(a + size, n), starts[:, c], buf)
        # a is now the start of the last chunk, whose sums buf keeps
        psi_bar = buf[:, n - a] / n
        errors: list = [None] * m
        for i in np.flatnonzero(~np.isfinite(psi_bar).all(axis=1)):
            errors[i] = _not_finite(block[i], moments[i])
            moments[i] = starts[i] = buf[i] = psi_bar[i] = 0.0

        maybe = moments[:, 0] == moments[:, -1]
        constant = np.zeros((m, d), dtype=bool)
        for j in range(d):
            rows = np.flatnonzero(maybe[:, j])
            if rows.size:
                col = moments[:, :, j] if rows.size == m else moments[rows, :, j]
                constant[rows, j] = (col == col[:, :1]).all(axis=1)
            moments[:, a:, j] -= psi_bar[:, j, None]
        cov = np.empty((m, d, d))
        prod = np.empty((m, n))
        scratch = np.empty((2, m, size)) if a else None
        for i in range(d):
            for j in range(i + 1):
                for b in range(0, a, size):
                    head = moments[:, b : b + size]
                    x = y = np.subtract(head[:, :, i], psi_bar[:, i, None], out=scratch[0])
                    if j < i:
                        y = np.subtract(head[:, :, j], psi_bar[:, j, None], out=scratch[1])
                    np.multiply(x, y, out=prod[:, b : b + size])
                np.multiply(moments[:, a:, i], moments[:, a:, j], out=prod[:, a:])
                cov[:, i, j] = cov[:, j, i] = prod.sum(axis=1) / n
        cov[constant[:, :, None] | constant[:, None, :]] = 0.0
    for i in np.flatnonzero(~np.isfinite(cov).all(axis=(1, 2))):
        k = int(np.argmax(np.abs(block[i])))
        errors[i] = ValueError(
            f"the covariance of psi(data) overflows (data[{k}] = {float(block[i, k])!r})"
        )
        moments[i] = starts[i] = buf[i] = psi_bar[i] = cov[i] = 0.0
    sums = _Sums(n, starts, buf, moments if count > 1 else None)
    return sums, psi_bar, cov, errors


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

    ``sums`` is the :class:`_Sums` record of the raw prefix sums,
    ``psi_bar`` and ``cov`` the moment average and centred covariance per
    row. ``theta``, ``means = mean(theta)``, ``residual`` and
    ``iterations`` describe each row's fit; a failed row has NaN ``theta``
    and ``residual``, 0 iterations and ``means = psi_bar``, and
    ``errors[i]`` holds the error that :func:`mme` raises for that sample
    alone (None for a row that fit).
    """

    sums: _Sums
    psi_bar: np.ndarray
    cov: np.ndarray
    theta: np.ndarray
    means: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    errors: list


def _fit(block: np.ndarray, model: MomentModel) -> _BlockFit:
    """The moment estimate for every row of an ``(m, n)`` block of samples.

    Runs the moment stage :func:`_moments`, checks each row's centred
    covariance for degeneracy, then solves the rows that passed with
    :func:`_solve`, which gives a failed row its own error.
    """
    sums, psi_bar, cov, errors = _moments(block, model)
    for i in np.flatnonzero(_ill_conditioned(cov)):
        if errors[i] is None:
            errors[i] = DegenerateSample(_DEGENERATE)
    theta, means, residual, iterations = _solve(psi_bar, model, errors)
    return _BlockFit(sums, psi_bar, cov, theta, means, residual, iterations, errors)


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
    fit = _fit(data[None], model)
    if fit.errors[0] is not None:
        raise fit.errors[0]
    method = "newton" if model.inverse_mean is None else "closed_form"
    return MMEResult(
        fit.theta[0], float(fit.residual[0]), int(fit.iterations[0]), method
    )
