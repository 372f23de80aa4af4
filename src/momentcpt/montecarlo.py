"""Monte Carlo experiment harness and theoretical quantities under a change.

Experiments draw samples with or without a single change point, one seeded
stream per replication, test them a block of replications at a time on the
statistic core of :mod:`momentcpt.zprocess`, and aggregate rejection rates
and change point location statistics. Companion helpers expose the
population quantities that govern behavior under a fixed alternative: the
pseudo-true parameter, the mixture covariance, and the deterministic drift
toward which the partial-sum process concentrates.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from collections import Counter
from dataclasses import MISSING, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import EstimationError, SingularCovariance
from .estimator import _column_pairs, _empty, _norms, _psi, _solve
from .limits import (
    _check_integer,
    _is_integer,
    _reseed,
    _run_tasks,
    _spawn_streams,
    _threshold,
)
from .models import MomentModel, _ill_conditioned, _mean_at, get_model
from .zprocess import _floor_index, _running_sums, _squared_norms, _statistic

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "AlternativeOracle",
    "ConsistencyRow",
    "ConsistencyDiagnostics",
    "run_experiment",
    "alternative_oracle",
    "consistency_diagnostics",
    "sup_zn_gap",
    "load_config",
]

# Replications per block handed to the statistic core. Each replication has
# its own seed stream and is tested independently of the other rows, so
# aggregates depend neither on the block size nor on `jobs`.
_MC_CHUNK = 250
# Observations per block; long samples get fewer rows so memory stays bounded.
_BLOCK_VALUES = 1 << 19


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _reals(key: str, value) -> tuple[float, ...]:
    is_list = np.iterable(value) and not isinstance(value, str)
    if not (is_list and all(map(_is_real, value))):
        raise ValueError(f"config key '{key}': must be a list of numbers")
    return tuple(float(t) for t in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation experiment.

    ``theta1`` and ``ustar`` must be supplied together: replications then
    draw their first ``k`` observations under ``theta0`` and the rest under
    ``theta1``, with ``k = floor(ustar * n + 1e-9)``: the floor of
    ``ustar * n``, except that a product within 1e-9 below an integer
    counts as that integer, so ``ustar = 0.29, n = 100`` gives ``k = 29``
    although ``0.29 * 100`` is ``28.999...``. Without them the sample is
    homogeneous and the experiment measures test size instead of power.

    A config is valid once constructed: a bad value, an unknown model, a
    theta outside the model's domain or ``n < dim + 2`` raises a
    ``ValueError`` that names the config key.
    """

    model: str
    theta0: tuple[float, ...]
    n: int
    m: int
    level: float = 0.05
    seed: int = 0
    ustar: float | None = None
    theta1: tuple[float, ...] | None = None
    histogram_bins: int = 50

    def __post_init__(self):
        if not isinstance(self.model, str):
            raise ValueError("config key 'model': must be a model name")
        object.__setattr__(self, "theta0", _reals("theta0", self.theta0))
        if self.theta1 is not None:
            object.__setattr__(self, "theta1", _reals("theta1", self.theta1))
        for key, low in (("n", 1), ("m", 1), ("seed", 0), ("histogram_bins", 0)):
            value = getattr(self, key)
            if not _is_integer(value) or value < low:
                kind = "positive" if low else "non-negative"
                raise ValueError(f"config key '{key}': must be a {kind} integer")
            object.__setattr__(self, key, int(value))
        for key in ("level", "ustar"):
            value = getattr(self, key)
            if value is not None and not (_is_real(value) and 0.0 < value < 1.0):
                raise ValueError(f"config key '{key}': must be a number in (0, 1)")
        if (self.theta1 is None) != (self.ustar is None):
            raise ValueError(
                "config keys 'theta1' and 'ustar' must be given together"
            )
        if self.theta1 is not None and self.theta1 == self.theta0:
            raise ValueError(
                "config key 'theta1': must differ from theta0 "
                "(omit both theta1 and ustar for a no-change experiment)"
            )
        try:
            model = get_model(self.model)
        except ValueError as exc:
            raise ValueError(f"config key 'model': {exc}") from None
        for key in ("theta0", "theta1"):
            theta = getattr(self, key)
            if theta is not None and not model.contains(theta):
                raise ValueError(
                    f"config key '{key}': {theta!r} outside the domain "
                    f"of model {self.model!r}"
                )
        if self.n < model.dim + 2:
            raise ValueError(
                f"config key 'n': need at least {model.dim + 2} observations "
                f"for model {self.model!r}"
            )

    @property
    def has_change(self) -> bool:
        return self.theta1 is not None


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregates over the completed replications of one experiment.

    Location statistics (mean, sd, RMSE of the estimated change fraction)
    are computed over all completed replications of a change experiment,
    not only the rejecting ones, and are None for no-change experiments.
    Replications that fail with an estimation error are excluded from the
    aggregates and counted in ``failure_counts``. ``u_hats``, ``t_stats``
    and ``rejects`` hold every replication in seed order, with NaN location
    and statistic (and no rejection) for a failed one.
    """

    config: ExperimentConfig
    critical_value: float
    n_completed: int
    n_failed: int
    failure_counts: dict[str, int]
    rejection_rate: float
    u_hat_mean: float | None
    u_hat_sd: float | None
    u_hat_rmse: float | None
    histogram_edges: np.ndarray | None
    histogram_counts: np.ndarray | None
    u_hats: np.ndarray
    t_stats: np.ndarray
    rejects: np.ndarray


def _seed_blocks(seed: int, n: int, reps: int) -> list:
    """The seed streams of ``reps`` replications of length ``n``, in blocks.

    The streams that :func:`_replications` draws from, computed in array
    steps as PCG64 ``(state, inc)`` pairs (plain integers, so a worker task
    pickles cheaply); each block holds the streams of one ``(rows, n)``
    block of samples.
    """
    streams = _spawn_streams((seed, n), reps)
    rows = max(1, min(_MC_CHUNK, _BLOCK_VALUES // n))
    return [streams[i : i + rows] for i in range(0, reps, rows)]


def _replications(model, theta0, theta1, ustar, n, blocks, work):
    """The seeded replication pass: ``(block, moments)`` per block of streams.

    ``blocks`` is ``_seed_blocks(seed, n, reps)``, or a run of its blocks,
    and replication ``i`` of the ``reps`` is drawn from
    ``default_rng(SeedSequence([seed, n]).spawn(reps)[i])``, so any
    replication can be replayed with public numpy. Without
    ``theta1`` a replication is ``n`` draws under ``theta0``; with it, the
    first ``floor(ustar * n + 1e-9)`` draws (see :class:`ExperimentConfig`)
    are under ``theta0`` and the rest under ``theta1``, from the same
    stream. One PCG64 generator is reset to each stream in turn. The
    ``(rows, n)`` block is the workspace ``work``'s buffer ``"block"``, so
    the next block overwrites it, and ``moments`` is its one ``psi`` call.
    A caller drops ``moments`` before it asks for the next block, so that
    no two blocks' moments are alive at once.
    """
    theta0 = model.require(theta0)
    if theta1 is not None:
        theta1 = model.require(theta1)
    n_head = n if theta1 is None else _floor_index(float(ustar), n)
    rng = np.random.Generator(np.random.PCG64())
    for streams in blocks:
        block = _empty(work, "block", (len(streams), n))
        for row, stream in zip(block, streams):
            _reseed(rng, stream)
            row[:n_head] = model.sampler(theta0, rng, n_head)
            if theta1 is not None:
                row[n_head:] = model.sampler(theta1, rng, n - n_head)
        yield block, _psi(block, model)


def _failures(rows) -> Counter:
    """The failed rows of a tested block, counted by error type name."""
    return Counter(type(e).__name__ for e in rows.errors if e is not None)


def _run_chunk(task):
    """Test the blocks of one worker task; ``(u_hats, t_stats, failures)`` per block.

    Every block of the task is drawn by one :func:`_replications` pass and
    tested in its workspace (see :func:`~momentcpt.estimator._empty`),
    which supplies the ``(rows, n)`` sample block and one scratch row,
    which the moment and whitening stages use and which ends as the
    ``(rows, n + 1)`` path, so a task holds one block's arrays however many
    blocks it has. The returned arrays are not in the workspace.
    """
    (model_name, theta0, theta1, ustar, n, blocks) = task
    model, work = get_model(model_name), {}
    out = []
    for block, moments in _replications(model, theta0, theta1, ustar, n, blocks, work):
        rows = _statistic(block, moments, model, work)
        del moments
        out.append((rows.u_hats, rows.t_stats, _failures(rows)))
    return out


def _location_stats(u_ok: list[float], ustar: float):
    count = len(u_ok)
    mean = math.fsum(u_ok) / count
    if count > 1:
        var = math.fsum((u - mean) ** 2 for u in u_ok) / (count - 1)
    else:
        var = 0.0
    rmse = math.sqrt(math.fsum((u - ustar) ** 2 for u in u_ok) / count)
    return mean, math.sqrt(var), rmse


def run_experiment(
    config: ExperimentConfig, jobs: int = 1, table=None
) -> ExperimentResult:
    """Run ``config.m`` seeded replications and aggregate them.

    The replications are drawn by the seeded pass :func:`_replications`
    (``m`` of them, from ``seed`` and ``n``), so any one can be replayed
    with public numpy. The result is reproducible for a fixed config and
    identical for any ``jobs``, the number of worker processes (at least
    1; 1 runs in-process). The critical value comes from ``table``, None
    for the packaged table or the path of a table file, and is checked as
    :func:`~momentcpt.zprocess.run_test` checks it.
    """
    _check_integer("jobs", jobs, 1)
    model = get_model(config.model)
    crit = _threshold(model.dim, config.level, table=table)
    blocks = _seed_blocks(config.seed, config.n, config.m)
    # one task of consecutive blocks per worker, so each worker reuses one
    # workspace
    size = -(-len(blocks) // jobs)
    tasks = [
        (config.model, config.theta0, config.theta1, config.ustar, config.n, blocks[i : i + size])
        for i in range(0, len(blocks), size)
    ]
    parts = [part for out in _run_tasks(_run_chunk, tasks, jobs) for part in out]
    u_parts, t_parts, failure_parts = zip(*parts)
    u_hats = np.concatenate(u_parts)
    t_stats = np.concatenate(t_parts)
    rejects = t_stats > crit
    failures = sum(failure_parts, Counter())

    ok = ~np.isnan(u_hats)
    n_completed = int(ok.sum())
    n_failed = config.m - n_completed
    if n_completed == 0:
        raise EstimationError(
            f"all {config.m} replications failed: {dict(failures)!r}"
        )
    rejection_rate = int(rejects[ok].sum()) / n_completed

    u_ok = u_hats[ok]
    if config.has_change:
        # plain floats: the sums build no numpy scalar per replication
        u_mean, u_sd, u_rmse = _location_stats(u_ok.tolist(), config.ustar)
    else:
        u_mean = u_sd = u_rmse = None

    if config.histogram_bins > 0:
        counts, edges = np.histogram(
            u_ok, bins=config.histogram_bins, range=(0.0, 1.0)
        )
    else:
        counts = edges = None

    return ExperimentResult(
        config=config,
        critical_value=crit,
        n_completed=n_completed,
        n_failed=n_failed,
        failure_counts=dict(failures),
        rejection_rate=rejection_rate,
        u_hat_mean=u_mean,
        u_hat_sd=u_sd,
        u_hat_rmse=u_rmse,
        histogram_edges=edges,
        histogram_counts=counts,
        u_hats=u_hats,
        t_stats=t_stats,
        rejects=rejects,
    )


@dataclass(frozen=True)
class AlternativeOracle:
    """Population quantities for a fixed single-change alternative.

    ``theta_star`` solves ``mean(theta) = ustar * mean(theta0) +
    (1 - ustar) * mean(theta1)``; it is the long-run value of the full-sample
    estimate. ``sigma_star`` is the same mixture of the two covariances and
    ``lambda_star`` the smallest eigenvalue of its inverse. ``drift(u)`` is
    the deterministic tent-shaped limit of the partial-sum process, maximal
    at ``u = ustar``.
    """

    model_name: str
    ustar: float
    theta_star: np.ndarray
    sigma_star: np.ndarray
    lambda_star: float
    mean_gap: np.ndarray

    def drift(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        scale = np.where(
            u <= self.ustar, u * (1.0 - self.ustar), self.ustar * (1.0 - u)
        )
        return scale[..., None] * self.mean_gap

    def detection_bound(self, n: int) -> float:
        """Leading term of the statistic's growth under this alternative."""
        # |gap| is multiplied in twice, not squared, so the bound is finite
        # whenever it is representable
        gap = float(_norms(self.mean_gap[None])[0])
        return (
            n
            * self.ustar**2
            * (1.0 - self.ustar) ** 2
            * (self.lambda_star * gap)
            * gap
        )


def alternative_oracle(
    model: MomentModel, theta0, theta1, ustar: float
) -> AlternativeOracle:
    """Compute the population quantities for a single-change alternative.

    ``theta1 == theta0`` is allowed and gives a zero drift with
    ``theta_star == theta0``; config-level validation is stricter.
    """
    if not 0.0 < ustar < 1.0:
        raise ValueError(f"ustar must lie in (0, 1), got {ustar!r}")
    theta0 = model.require(theta0)
    theta1 = model.require(theta1)
    mean0, mean1 = _mean_at(theta0, model), _mean_at(theta1, model)
    at = (
        f"theta0 = {theta0.tolist()}, theta1 = {theta1.tolist()} "
        f"for model {model.name!r}"
    )
    mixed = ustar * mean0 + (1.0 - ustar) * mean1
    # an overflow is reported below, by name
    with np.errstate(all="ignore"):
        sigma_star = ustar * np.asarray(model.cov(theta0), dtype=float) + (
            1.0 - ustar
        ) * np.asarray(model.cov(theta1), dtype=float)
    if not np.isfinite(sigma_star).all():
        raise ValueError(f"the mixture covariance overflows at {at}")
    if _ill_conditioned(sigma_star):
        raise SingularCovariance(
            "mixture covariance of the alternative is singular"
        )
    errors = [None]
    theta_star = _solve(mixed[None], model, errors, sigma_star[None])[0][0]
    if errors[0] is not None:
        raise errors[0]
    return AlternativeOracle(
        model_name=model.name,
        ustar=float(ustar),
        theta_star=theta_star,
        sigma_star=sigma_star,
        lambda_star=1.0 / float(np.linalg.eigvalsh(sigma_star)[-1]),
        mean_gap=mean0 - mean1,
    )


@dataclass(frozen=True)
class ConsistencyRow:
    """The large-sample checks at one sample size ``n``.

    ``bound`` is the oracle's detection bound, ``frac_above_half_bound``
    the fraction of completed replications whose statistic reaches half of
    it, ``median_abs_error`` the median of ``|u_hat - ustar|`` and
    ``sup_gap`` the :func:`sup_zn_gap` between the process and its drift.
    """

    n: int
    bound: float
    frac_above_half_bound: float
    median_abs_error: float
    sup_gap: float


@dataclass(frozen=True)
class ConsistencyDiagnostics:
    oracle: AlternativeOracle
    rows: tuple[ConsistencyRow, ...]


def _gap_pass(model, oracle, theta0, theta1, n, reps, seed):
    """The test and the sup-gap on ``reps`` seeded samples, a block at a time.

    The blocks are drawn by one :func:`_replications` pass from ``seed``,
    with the change at ``oracle.ustar`` unless ``theta1`` is None, and
    tested on the statistic core in its workspace. Each row's gap
    ``sup_k |Z_n(k/n, theta_hat) - oracle.drift(k/n)|`` is formed from a
    copy of the block's moments, taken in the workspace buffer ``"psi"``
    before the statistic core centres them: ``n Z_n(k/n)`` is the running
    sum of the increments ``psi(X_j) - mean(theta_hat)``, which round once
    each, and no raw sum of moments has ``k * mean(theta_hat)`` subtracted
    from it. The gap is squared into the spent path, so a block holds its
    sample, its moments, their copy and one scratch row. Yields per block
    the ``u_hats`` and ``t_stats`` of every row, the gaps of the rows whose
    fit succeeded (a row that fails only the plug-in covariance check has
    a gap) and the failed rows counted by error type name.
    """
    drift = oracle.drift(np.arange(1, n + 1) / n)
    work = {}
    blocks = _seed_blocks(seed, n, reps)
    for block, moments in _replications(model, theta0, theta1, oracle.ustar, n, blocks, work):
        z = _empty(work, "psi", moments.shape)
        z[...] = moments
        rows = _statistic(block, moments, model, work)
        del moments
        # the gap of a failed row, which is left out, may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            # Z_n - drift in place over the copy, k = 1..n; at k = 0 both
            # are zero, as is the path there
            for col, mean in zip(_column_pairs(z), _column_pairs(rows.means)):
                col -= mean[:, None]
            _running_sums(z)
            z /= n
            z -= drift
            # squared into the path, which the test no longer reads
            _squared_norms(z, rows.paths[:, 1:])
        gaps = np.sqrt(rows.paths.max(axis=1))[~np.isnan(rows.theta[:, 0])]
        yield rows.u_hats, rows.t_stats, gaps, _failures(rows)


def consistency_diagnostics(
    config: ExperimentConfig, n_values: Sequence[int] = (100, 500, 2000)
) -> ConsistencyDiagnostics:
    """Check the statistic's growth, the location error and the process's
    distance from its drift across n.

    For each sample size, draws ``config.m`` replications from
    ``config.seed`` as :func:`run_experiment` draws them, maps each through
    ``psi`` and fits it once, and takes the statistic, the location and
    the :func:`sup_zn_gap` from that one fit, reported as a
    :class:`ConsistencyRow`. When the model and the alternative are
    specified correctly, the location error and the sup-gap shrink toward
    zero as n grows and the fraction above half the bound tends to one.
    Requires a change experiment and at least one size; each size must be
    a valid ``n`` of the config.

    Raises
    ------
    ValueError
        If the config has no change or ``n_values`` is empty, before any
        sampling, or if a size is not a valid ``n``.
    EstimationError
        If every replication at some size fails.
    """
    if not config.has_change:
        raise ValueError(
            "consistency diagnostics need a change experiment; set "
            "'theta1' and 'ustar' in the config"
        )
    n_values = tuple(n_values)
    if not n_values:
        raise ValueError("n_values must hold at least one sample size, got ()")
    model = get_model(config.model)
    oracle = alternative_oracle(model, config.theta0, config.theta1, config.ustar)
    rows = []
    for n in n_values:
        sized = replace(config, n=n)
        steps = _gap_pass(
            model, oracle, sized.theta0, sized.theta1, sized.n, sized.m, sized.seed
        )
        u_parts, t_parts, gap_parts, failure_parts = zip(*steps)
        u_hats, t_stats, gaps = map(np.concatenate, (u_parts, t_parts, gap_parts))
        ok = ~np.isnan(u_hats)
        if not ok.any():
            raise EstimationError(
                f"all {sized.m} replications failed at n = {sized.n}: "
                f"{dict(sum(failure_parts, Counter()))!r}"
            )
        bound = oracle.detection_bound(sized.n)
        rows.append(
            ConsistencyRow(
                n=sized.n,
                bound=bound,
                frac_above_half_bound=float(np.mean(t_stats[ok] >= 0.5 * bound)),
                median_abs_error=float(np.median(np.abs(u_hats[ok] - config.ustar))),
                sup_gap=math.fsum(gaps) / len(gaps),
            )
        )
    return ConsistencyDiagnostics(oracle=oracle, rows=tuple(rows))


def sup_zn_gap(
    model: MomentModel,
    theta0,
    theta1=None,
    ustar: float = 0.5,
    n: int = 500,
    reps: int = 100,
    seed: int = 0,
) -> float:
    """Mean over replications of ``sup_k |Z_n(k/n, theta_hat) - drift(k/n)|``.

    With ``theta1`` absent or equal to ``theta0`` the drift is zero and this
    measures the raw supremum of the partial-sum process, which shrinks at
    the usual root-n rate under a stable model. Replication ``i`` is drawn
    as :func:`run_experiment` draws it, from ``seed`` and ``n``, and is
    fitted once, by the statistic core. Replications whose estimate fails
    are left out of the mean.

    Raises
    ------
    ValueError
        If ``reps`` is not a positive integer, ``n`` not an integer of at
        least ``dim + 1`` or ``seed`` not a non-negative integer, before any
        sampling.
    EstimationError
        If every replication fails.
    """
    _check_integer("reps", reps, 1)
    if not _is_integer(n) or n < model.dim + 1:
        raise ValueError(
            f"n: need at least {model.dim + 1} observations, got {n!r}"
        )
    oracle = alternative_oracle(
        model, theta0, theta0 if theta1 is None else theta1, ustar
    )
    change = theta1 is not None and not np.array_equal(theta1, theta0)
    steps = _gap_pass(model, oracle, theta0, theta1 if change else None, n, reps, seed)
    _, _, gap_parts, failure_parts = zip(*steps)
    gaps = np.concatenate(gap_parts)
    if not gaps.size:
        raise EstimationError(
            f"all replications failed: {dict(sum(failure_parts, Counter()))!r}"
        )
    return math.fsum(gaps) / len(gaps)


def load_config(path) -> list[ExperimentConfig]:
    """Read experiment configs from a JSON file.

    The document, in UTF-8 text, is an object with keys ``model``,
    ``theta0``, ``theta1``, ``ustar``, ``n``, ``m``, ``level``, ``seed``
    (plus optional ``histogram_bins``). ``n`` and ``ustar`` may be lists, in
    which case one config per (ustar, n) pair is returned, ustar varying
    slowest.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    keys = fields(ExperimentConfig)
    unknown = set(raw) - {f.name for f in keys}
    if unknown:
        raise ValueError(
            f"{path}: unrecognized config key(s): {', '.join(sorted(unknown))}"
        )
    missing = {f.name for f in keys if f.default is MISSING} - set(raw)
    if missing:
        raise ValueError(
            f"{path}: missing config key(s): {', '.join(sorted(missing))}"
        )

    n_list = raw["n"] if isinstance(raw["n"], list) else [raw["n"]]
    ustar_raw = raw.get("ustar")
    ustar_list = ustar_raw if isinstance(ustar_raw, list) else [ustar_raw]

    configs = []
    for ustar, n in itertools.product(ustar_list, n_list):
        configs.append(ExperimentConfig(**{**raw, "n": n, "ustar": ustar}))
    if not configs:
        raise ValueError(f"{path}: the lists of 'n' and 'ustar' give no experiment")
    return configs
