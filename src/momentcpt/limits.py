"""Limit law of the test statistic and Monte Carlo critical values.

Under a stable model the statistic converges to the supremum of the squared
Euclidean norm of a d-dimensional Brownian bridge. Kiefer (1959) gives its
distribution function as a series in the zeros of Bessel functions; the
package simulates the bridge instead, because it also needs quantiles of the
maximum over a finite grid, which sit below the continuum ones. A precomputed
table for d in 1..5 at the 10%, 5% and 1% levels ships with the package; any
other combination can be simulated on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from numbers import Integral
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "CriticalValueTable",
    "TableRow",
    "simulate_bridge_sup",
    "critical_value",
    "lookup_critical_value",
    "read_table_file",
    "write_table_file",
    "default_table",
    "DEFAULT_SEED",
    "DEFAULT_REPLICATIONS",
    "DEFAULT_GRID",
]

DEFAULT_SEED = 100003
DEFAULT_REPLICATIONS = 100_000
DEFAULT_GRID = 10_000

# The kernel is memory-bandwidth-bound; float32 keeps it fast and the
# rounding effect on a sup draw (~1e-5 relative) is far below Monte Carlo
# noise. Aggregation happens in float64.
_SUP_DTYPE = np.float32
_ROW_BATCH = 256
# Replications per seed chunk. Fixed so that results are identical for any
# `jobs` value: chunk k always uses the k-th spawned child seed.
_CHUNK = 1000


def _is_integer(value) -> bool:
    """An integer of any integral type, but not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_integer(name: str, value, low: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer of
    at least ``low``."""
    if not _is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _sup_draws(dim: int, grid: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` draws of sup_k ||bridge(k/grid)||^2 for one Brownian bridge."""
    out = np.empty(count)
    frac = np.arange(1, grid + 1, dtype=_SUP_DTYPE)
    frac /= _SUP_DTYPE(grid)
    done = 0
    while done < count:
        rows = min(_ROW_BATCH, count - done)
        walk = rng.standard_normal((rows, grid, dim), dtype=_SUP_DTYPE)
        np.cumsum(walk, axis=1, out=walk)
        endpoint = walk[:, -1, :].copy()
        walk -= frac[None, :, None] * endpoint[:, None, :]
        sq = np.einsum("rgd,rgd->rg", walk, walk)
        out[done : done + rows] = sq.max(axis=1)
        done += rows
    # Increments carried unit variance; dividing by `grid` rescales to the
    # unit-time bridge.
    out /= grid
    return out


def simulate_bridge_sup(dim: int, grid: int, rng: np.random.Generator, size=None):
    """Simulate sup ||B(u) - u B(1)||^2 over the grid {0, 1/grid, ..., 1}.

    Returns a float when ``size`` is None, else an array of ``size`` draws.
    ``grid == 1`` gives 0 exactly: the path is pinned at both ends.
    """
    _check_integer("dim", dim, 1)
    _check_integer("grid", grid, 1)
    if size is None:
        return float(_sup_draws(dim, grid, rng, 1)[0])
    _check_integer("size", size, 0)
    return _sup_draws(dim, grid, rng, int(size))


def _run_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, in up to ``jobs`` worker processes.

    ``jobs`` below 2, or a single task, runs in-process; results keep the
    order of ``tasks`` either way.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or len(tasks) == 1:
        return [fn(task) for task in tasks]
    # imported here: the pool's module is a large part of the package's
    # import time, and most runs never start a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


# Word masks and PCG64's 128-bit LCG multiplier; numpy's SeedSequence
# constants (INIT_A/MULT_A, INIT_B/MULT_B, MIX_MULT_L/MIX_MULT_R, a pool of
# 4 words) appear where they are used.
_U32 = np.uint32
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value) -> list[int]:
    """A non-negative integer as little-endian 32-bit words; zero gives ``[0]``."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    value = int(value)
    shifts = range(0, max(value.bit_length(), 1), 32)
    return [value >> shift & _MASK32 for shift in shifts]


def _hash_consts(const: int, mult: int):
    """The (xor, multiplier) pairs of SeedSequence's successive word hashes."""
    while True:
        nxt = const * mult & _MASK32
        yield _U32(const), _U32(nxt)
        const = nxt


def _hash(value: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 words, with the next constants."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ value >> _U32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of uint32 words."""
    out = _U32(0xCA01F9DD) * x - _U32(0x4973F715) * y
    return out ^ out >> _U32(16)


def _spawn_streams(entropy, count: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(c)`` for each ``c`` in
    ``SeedSequence(entropy).spawn(count)``, bit for bit.

    ``entropy`` is a sequence of non-negative integers. SeedSequence's
    entropy mixing and ``generate_state(4, uint64)`` run on uint32 arrays
    of one word for the words every child shares, then of ``count`` words
    once the child index is mixed in; PCG64's seeding (two LCG steps around
    ``+= initstate``) runs in Python integers.
    """
    words = [np.array([w], _U32) for value in entropy for w in _words(value)]
    # a spawned child pads its run entropy with zeros to the pool size
    words += [np.zeros(1, _U32)] * (4 - len(words))
    words.append(np.arange(count, dtype=_U32))
    consts = _hash_consts(0x43B0D7E5, 0x931E8875)
    pool = [_hash(w, consts) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    # generate_state(4, uint64): 8 words, read as little-endian pairs
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED)
    out = [_hash(pool[i % 4], consts).astype(np.uint64) for i in range(8)]
    s0, s1, s2, s3 = (
        (out[i] | out[i + 1] << np.uint64(32)).tolist() for i in range(0, 8, 2)
    )
    # PCG64: inc = (initseq << 1) | 1, then state = ((inc + initstate) * MULT + inc)
    incs = [(c << 65 | d << 1 | 1) & _MASK128 for c, d in zip(s2, s3)]
    return [
        (((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, inc)
        for a, b, inc in zip(s0, s1, incs)
    ]


def _reseed(rng: np.random.Generator, stream: tuple[int, int]) -> np.random.Generator:
    """``rng``, a PCG64 generator, in the fresh state of one stream of
    :func:`_spawn_streams`."""
    state, inc = stream
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _chunk_worker(task) -> np.ndarray:
    dim, grid, stream, count = task
    rng = _reseed(np.random.Generator(np.random.PCG64()), stream)
    return _sup_draws(dim, grid, rng, count)


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated quantiles of the bridge-supremum law for one dimension.

    ``quantiles[level]`` is the (1 - level)-quantile; ``standard_errors``
    holds a quantile standard error from the binomial order-statistic
    bracket at one standard deviation.
    """

    dim: int
    grid_points: int
    replications: int
    seed: int
    quantiles: dict[float, float]
    standard_errors: dict[float, float]


def critical_value(
    dim: int,
    level=0.05,
    replications: int = DEFAULT_REPLICATIONS,
    grid: int = DEFAULT_GRID,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> CriticalValueTable:
    """Monte Carlo critical values for the bridge-supremum law.

    Parameters
    ----------
    dim : int
        Dimension of the bridge (equals the model dimension).
    level : float or iterable of float
        One or more levels in (0, 1); all levels reuse the same draws.
    replications, grid : int
        Number of bridge draws and grid points per path.
    seed : int
        Seed for the replication streams. The same seed gives identical
        results for any ``jobs``.
    jobs : int
        Worker processes; 1 runs in-process.
    """
    _check_integer("dim", dim, 1)
    _check_integer("replications", replications, 2)
    _check_integer("grid", grid, 1)
    if isinstance(level, (int, float)):
        levels = (float(level),)
    else:
        levels = tuple(float(l) for l in level)
    if not levels:
        raise ValueError("need at least one level")
    for lvl in levels:
        _check_level(lvl)

    n_chunks = math.ceil(replications / _CHUNK)
    sizes = [_CHUNK] * (n_chunks - 1) + [replications - _CHUNK * (n_chunks - 1)]
    streams = _spawn_streams((seed,), n_chunks)
    tasks = [(dim, grid, s, c) for s, c in zip(streams, sizes)]

    draws = np.sort(np.concatenate(_run_tasks(_chunk_worker, tasks, jobs)))

    quantiles: dict[float, float] = {}
    errors: dict[float, float] = {}
    for lvl in levels:
        p = 1.0 - lvl
        quantiles[lvl] = float(np.quantile(draws, p))
        half = math.sqrt(p * (1.0 - p) / replications)
        lo = float(np.quantile(draws, max(p - half, 0.0)))
        hi = float(np.quantile(draws, min(p + half, 1.0)))
        errors[lvl] = (hi - lo) / 2.0
    return CriticalValueTable(
        dim=dim,
        grid_points=grid,
        replications=replications,
        seed=seed,
        quantiles=quantiles,
        standard_errors=errors,
    )


class TableRow(NamedTuple):
    value: float
    stderr: float
    replications: int
    grid_points: int
    seed: int


def _check_level(level) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")


def _key(dim: int, level: float) -> tuple[int, float]:
    _check_integer("dim", dim, 1)
    return int(dim), round(float(level), 10)


def rows_from_table(table: CriticalValueTable) -> dict[tuple[int, float], TableRow]:
    """Flatten a simulated table into file rows keyed by (dim, level)."""
    return {
        _key(table.dim, lvl): TableRow(
            value=val,
            stderr=table.standard_errors[lvl],
            replications=table.replications,
            grid_points=table.grid_points,
            seed=table.seed,
        )
        for lvl, val in table.quantiles.items()
    }


def _parse_row(fields: list[str]) -> tuple[tuple[int, float], TableRow]:
    """The key and row of the 7 fields of one table line."""
    dim, replications, grid, seed = (int(fields[i]) for i in (0, 4, 5, 6))
    level, value, stderr = (float(fields[i]) for i in (1, 2, 3))
    _check_level(level)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value!r}")
    if not (math.isfinite(stderr) and stderr >= 0.0):
        raise ValueError(f"stderr must be finite and >= 0, got {stderr!r}")
    _check_integer("replications", replications, 2)
    _check_integer("grid", grid, 1)
    _check_integer("seed", seed, 0)
    return _key(dim, level), TableRow(value, stderr, replications, grid, seed)


def read_table_file(path) -> dict[tuple[int, float], TableRow]:
    """Parse a critical-value table file.

    Rows are whitespace-separated ``dim level value stderr replications grid
    seed``; blank lines and ``#`` comments are ignored. A row is rejected,
    with a ``path: line N:`` message, unless its integer fields parse as
    integers and the others as floats, ``dim >= 1``, ``level`` lies in
    (0, 1), ``value`` is finite, ``stderr`` finite and non-negative,
    ``replications >= 2`` (as :func:`critical_value` requires), ``grid >= 1``,
    ``seed >= 0`` and no earlier row has the same ``(dim, level)``.
    """
    rows: dict[tuple[int, float], TableRow] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if len(fields) != 7:
                raise ValueError(f"expected 7 fields, got {len(fields)}")
            key, row = _parse_row(fields)
            if key in rows:
                raise ValueError(f"dim {key[0]}, level {key[1]:g} repeats an earlier row")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        rows[key] = row
    return rows


def write_table_file(path, rows: Mapping[tuple[int, float], TableRow]) -> None:
    """Write rows sorted by dimension then level, with a header comment."""
    lines = ["# dim level value stderr replications grid seed"]
    for (dim, level), row in sorted(rows.items()):
        lines.append(
            f"{dim} {level:g} {row.value!r} {row.stderr!r} "
            f"{row.replications} {row.grid_points} {row.seed}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


@lru_cache(maxsize=1)
def default_table() -> dict[tuple[int, float], TableRow]:
    """Rows of the table shipped with the package (treat as read-only)."""
    ref = resources.files("momentcpt").joinpath("_data/critical_values.txt")
    with resources.as_file(ref) as path:
        return read_table_file(path)


def lookup_critical_value(dim: int, level: float, table=None) -> float:
    """Resolve a critical value for (dim, level).

    ``table`` is None for the packaged table or the path of a table file,
    as :func:`write_table_file` writes it. A value held in memory goes to
    :func:`~momentcpt.zprocess.run_test` as ``critical_value`` instead.
    ``dim`` must be an integer of at least 1 and ``level`` lie in (0, 1).
    """
    _check_level(level)
    key = _key(dim, level)
    rows = default_table() if table is None else read_table_file(table)
    try:
        row = rows[key]
    except KeyError:
        raise KeyError(
            f"no tabulated critical value for dim={dim}, level={level}; "
            f"simulate a table with 'momentcpt critval --dim {dim} --level "
            f"{level} --out FILE' and pass it with '--table FILE' (in the "
            f"library, table=FILE), or pass critical_value explicitly"
        ) from None
    return row.value


def _threshold(dim: int, level: float, critical_value=None, table=None) -> float:
    """The test's critical value: ``critical_value`` when given, else the
    value for ``(dim, level)`` in ``table``, through
    :func:`lookup_critical_value`.

    The level must lie in (0, 1) either way, and the value must not be NaN;
    ``inf`` is allowed and never rejects.
    """
    _check_level(level)
    if critical_value is None:
        critical_value = lookup_critical_value(dim, level, table)
    critical_value = float(critical_value)
    if math.isnan(critical_value):
        raise ValueError("critical_value must not be NaN")
    return critical_value
