"""Bridge-supremum simulation, quantiles, and the critical value table."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import sup_sq_bridge_cdf, sup_sq_bridge_quantile
from scipy.special import kolmogorov

from momentcpt import (
    critical_value,
    default_table,
    lookup_critical_value,
    read_table_file,
    simulate_bridge_sup,
    write_table_file,
)
from momentcpt.limits import _spawn_streams, rows_from_table

# Closed forms for the one-dimensional law: the supremum of |bridge| has the
# Kolmogorov distribution, so the squared supremum has mean pi^2 / 12 and
# quantiles equal to the squared Kolmogorov points.
SUP_SQ_MEAN_1D = math.pi**2 / 12.0
SUP_SQ_Q_1D = {0.10: 1.2238**2, 0.05: 1.3581**2, 0.01: 1.6276**2}
SUP_SQ_Q95_1D = SUP_SQ_Q_1D[0.05]
# d=2 continuum 95% point: squared two-dimensional sup-norm quantile
# 1.5838^2 = 2.508, from Kiefer's series (conftest.sup_sq_bridge_quantile,
# checked below).
SUP_SQ_Q95_2D = 2.508


def test_series_reference_matches_closed_forms_and_anchors():
    # At d=1 the series is the Kolmogorov law of sup |bridge|.
    for x in (0.2, 0.5, 1.0, 1.8, 3.0, 6.0):
        assert abs(sup_sq_bridge_cdf(x, 1) - (1.0 - kolmogorov(math.sqrt(x)))) <= 1e-10
    # The anchors above state Kolmogorov points to 4 decimals and the d=2
    # point to 3.
    for level, ref in SUP_SQ_Q_1D.items():
        assert abs(math.sqrt(sup_sq_bridge_quantile(1, level)) - math.sqrt(ref)) <= 5e-5
    q95_2d = sup_sq_bridge_quantile(2, 0.05)
    assert abs(q95_2d - SUP_SQ_Q95_2D) <= 5e-4
    assert abs(q95_2d - 2.5084) <= 1e-4


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_single_grid_point_pins_the_bridge(dim):
    rng = np.random.default_rng(1)
    assert simulate_bridge_sup(dim, 1, rng) == 0.0


def test_draws_are_nonnegative_float64():
    rng = np.random.default_rng(2)
    draws = simulate_bridge_sup(2, 50, rng, size=500)
    assert draws.dtype == np.float64
    assert draws.shape == (500,)
    assert np.all(draws >= 0.0)
    assert float(np.max(draws)) > 0.0


def test_scalar_and_batch_apis():
    value = simulate_bridge_sup(1, 10, np.random.default_rng(3))
    assert isinstance(value, float)
    with pytest.raises(ValueError):
        simulate_bridge_sup(0, 10, np.random.default_rng(3))
    with pytest.raises(ValueError):
        simulate_bridge_sup(1, 0, np.random.default_rng(3))


def test_integer_arguments_are_named():
    # these used to fail inside numpy, or (a bool) be taken as 1
    rng = np.random.default_rng(3)
    for name, kwargs in [
        ("grid", dict(grid=2.5)),
        ("dim", dict(dim=2.5)),
        ("replications", dict(replications=2.5)),
        ("replications", dict(replications=True)),
    ]:
        args = {**dict(dim=2, level=0.05, replications=10, grid=10), **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
            critical_value(**args)
    with pytest.raises(ValueError, match="size must be an integer >= 0, got -1"):
        simulate_bridge_sup(2, 10, rng, -1)
    with pytest.raises(ValueError, match="grid must be an integer >= 1, got 2.5"):
        simulate_bridge_sup(2, 2.5, rng)
    assert simulate_bridge_sup(2, 10, rng, np.int64(0)).shape == (0,)


def test_one_dimensional_mean_matches_closed_form():
    # 1e5 draws on the default grid; tolerance 2% absorbs the downward
    # discretization bias of a maximum over a finite grid.
    rng = np.random.default_rng(314159)
    draws = simulate_bridge_sup(1, 10_000, rng, size=100_000)
    assert abs(draws.mean() - SUP_SQ_MEAN_1D) <= 0.02 * SUP_SQ_MEAN_1D


def test_quantiles_increase_as_level_decreases():
    table = critical_value(1, [0.5, 0.1, 0.05, 0.01], replications=4000, grid=500, seed=9)
    values = [table.quantiles[l] for l in (0.5, 0.1, 0.05, 0.01)]
    assert values == sorted(values)
    assert all(se > 0.0 for se in table.standard_errors.values())


def test_same_seed_reproduces_and_seeds_matter():
    a = critical_value(2, 0.05, replications=3000, grid=300, seed=42)
    b = critical_value(2, 0.05, replications=3000, grid=300, seed=42)
    c = critical_value(2, 0.05, replications=3000, grid=300, seed=43)
    assert a.quantiles == b.quantiles
    assert a.quantiles != c.quantiles


def test_results_do_not_depend_on_worker_count():
    serial = critical_value(1, 0.1, replications=2500, grid=200, seed=7, jobs=1)
    parallel = critical_value(1, 0.1, replications=2500, grid=200, seed=7, jobs=2)
    assert serial.quantiles == parallel.quantiles
    assert serial.standard_errors == parallel.standard_errors


def test_grid_refinement_is_within_monte_carlo_noise():
    coarse = critical_value(1, 0.05, replications=15_000, grid=10_000, seed=17)
    fine = critical_value(1, 0.05, replications=15_000, grid=20_000, seed=18)
    gap = abs(coarse.quantiles[0.05] - fine.quantiles[0.05])
    combined = math.hypot(
        coarse.standard_errors[0.05], fine.standard_errors[0.05]
    )
    assert gap <= 3.0 * combined


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        critical_value(0, 0.05, replications=100, grid=10)
    with pytest.raises(ValueError, match=r"level must lie in \(0, 1\), got 1.5"):
        critical_value(1, 1.5, replications=100, grid=10)
    with pytest.raises(ValueError, match="level"):
        critical_value(1, [0.05, 0.0], replications=100, grid=10)
    with pytest.raises(ValueError, match="at least one level"):
        critical_value(1, [], replications=100, grid=10)
    with pytest.raises(ValueError):
        critical_value(1, 0.05, replications=1, grid=10)
    for seed in (-1, 2.5):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            critical_value(1, 0.05, replications=100, grid=10, seed=seed)


def test_seeded_table_is_pinned():
    # three seed chunks; these are the values of SeedSequence(5).spawn(3)
    table = critical_value(2, [0.1, 0.05, 0.01], replications=2500, grid=300, seed=5)
    assert table.quantiles == {
        0.1: 2.025371297200521,
        0.05: 2.4060981343587238,
        0.01: 3.226244769287099,
    }
    assert table.standard_errors == {
        0.1: 0.03261033284505166,
        0.05: 0.05073402094502999,
        0.01: 0.13010114429952147,
    }


@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**64 + 3, 2**200 + 7], ids=["0", "2^32-1", "2^64+3", "2^200+7"]
)
def test_chunk_streams_match_numpy_spawn(seed):
    states = [
        np.random.default_rng(child).bit_generator.state["state"]
        for child in np.random.SeedSequence(seed).spawn(3)
    ]
    assert _spawn_streams((seed,), 3) == [(s["state"], s["inc"]) for s in states]


def test_table_file_round_trip(tmp_path):
    table = critical_value(2, [0.1, 0.05], replications=2000, grid=100, seed=3)
    rows = rows_from_table(table)
    path = tmp_path / "cv.txt"
    write_table_file(path, rows)
    again = read_table_file(path)
    assert again == rows
    # comments and blank lines are ignored
    text = path.read_text()
    path.write_text("# a comment\n\n" + text)
    assert read_table_file(path) == rows


def test_table_file_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 0.05 2.4\n")
    with pytest.raises(ValueError, match="expected 7 fields"):
        read_table_file(path)


GOOD_ROW = "2 0.05 2.4 0.01 100 10 1"


@pytest.mark.parametrize(
    "row,message",
    [
        ("2 0.05 2.4", "expected 7 fields, got 3"),
        ("2 0.05 -inf 0.01 100 10 1", "value must be finite, got -inf"),
        ("2 0.05 inf 0.01 100 10 1", "value must be finite, got inf"),
        ("2 0.05 nan 0.01 100 10 1", "value must be finite, got nan"),
        ("2 1.5 2.4 0.01 100 10 1", r"level must lie in \(0, 1\), got 1.5"),
        ("2 0 2.4 0.01 100 10 1", r"level must lie in \(0, 1\), got 0.0"),
        ("0 0.05 2.4 0.01 100 10 1", "dim must be an integer >= 1, got 0"),
        ("abc 0.05 2.4 0.01 100 10 1", "'abc'"),
        ("2.5 0.05 2.4 0.01 100 10 1", "'2.5'"),
        ("2 0.05 2.4 0.01 100 ten 1", "'ten'"),
        # the metadata that the CLI prints and write_table_file writes back
        ("2 0.05 2.4 nan 100 10 1", "stderr must be finite and >= 0, got nan"),
        ("2 0.05 2.4 inf 100 10 1", "stderr must be finite and >= 0, got inf"),
        ("2 0.05 2.4 -0.01 100 10 1", "stderr must be finite and >= 0, got -0.01"),
        ("2 0.05 2.4 0.01 -5 10 1", "replications must be an integer >= 2, got -5"),
        ("2 0.05 2.4 0.01 1 10 1", "replications must be an integer >= 2, got 1"),
        ("2 0.05 2.4 0.01 100 0 1", "grid must be an integer >= 1, got 0"),
        ("2 0.05 2.4 0.01 100 10 -1", "seed must be an integer >= 0, got -1"),
        (GOOD_ROW.replace("2.4", "2.5"), "dim 2, level 0.05 repeats an earlier row"),
    ],
)
def test_table_file_rows_are_checked_where_parsed(tmp_path, row, message):
    # a -inf row used to make every sample reject, a repeated row to
    # override the earlier one
    path = tmp_path / "bad.txt"
    path.write_text(f"# header\n{GOOD_ROW}\n\n{row}\n")
    with pytest.raises(ValueError, match=f"^{path}: line 4: .*{message}"):
        read_table_file(path)


def test_lookup_takes_only_integer_dims():
    # int() used to truncate 2.7 to the d=2 row and take True as d=1
    for dim in (2.7, True, 0):
        with pytest.raises(ValueError, match=f"dim must be an integer >= 1, got {dim}"):
            lookup_critical_value(dim, 0.05)
    assert lookup_critical_value(np.int64(2), 0.05) == default_table()[(2, 0.05)].value


def test_packaged_table_covers_advertised_grid():
    rows = default_table()
    for dim in range(1, 6):
        for level in (0.1, 0.05, 0.01):
            assert (dim, level) in rows
    # nested laws: adding coordinates can only push the supremum up
    for level in (0.1, 0.05, 0.01):
        values = [rows[(dim, level)].value for dim in range(1, 6)]
        assert values == sorted(values)


def test_packaged_values_match_known_quantiles():
    # A gridded maximum underestimates the true supremum, so shipped values
    # must sit slightly below the continuum quantiles, never above.
    rows = default_table()
    for level, ref in SUP_SQ_Q_1D.items():
        d1 = rows[(1, level)]
        assert ref - 0.045 <= d1.value <= ref + 3.0 * d1.stderr
    d2 = rows[(2, 0.05)]
    assert SUP_SQ_Q95_2D - 0.045 <= d2.value <= SUP_SQ_Q95_2D + 3.0 * d2.stderr


def test_lookup_paths_and_missing_key_guidance(tmp_path):
    assert lookup_critical_value(2, 0.05) == default_table()[(2, 0.05)].value
    table = critical_value(3, 0.2, replications=2000, grid=100, seed=5)
    path = tmp_path / "cv.txt"
    write_table_file(path, rows_from_table(table))
    assert lookup_critical_value(3, 0.2, path) == table.quantiles[0.2]
    with pytest.raises(KeyError, match="critval"):
        lookup_critical_value(4, 0.123)
    # the advice to run `momentcpt critval` only where that command works
    for level in (1.5, float("nan"), 0.0):
        with pytest.raises(ValueError, match="level"):
            lookup_critical_value(2, level)
