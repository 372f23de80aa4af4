"""End-to-end acceptance checks, one test per gating criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest -s`` to see them all even when everything passes) and then asserts.
The Monte Carlo table checks run at a scaled-down replication count; set
``MOMENTCPT_FULL_TABLES=1`` to rerun them at m=10000 (roughly 5x slower).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from importlib import resources

import numpy as np
from conftest import (
    SAFE_THETA,
    THETA_GRID,
    brute_force_path,
    finite_difference_jacobian,
    grid_corrected_quantile,
    sup_sq_bridge_quantile,
)

from momentcpt import (
    EstimationError,
    ExperimentConfig,
    affine_transform,
    build_state,
    consistency_diagnostics,
    critical_value,
    gamma_model,
    get_model,
    load_config,
    mme,
    model_names,
    run_experiment,
    run_test,
    z_at,
)

FULL = os.environ.get("MOMENTCPT_FULL_TABLES") == "1"


def _m(default: int) -> int:
    return 10_000 if FULL else default


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_01_critical_value_window():
    start = time.time()
    # the draws are the same for any jobs (test_limits); two workers only
    # shorten the wall time
    table = critical_value(
        2, level=0.05, replications=200_000, grid=10_000, seed=100003, jobs=2
    )
    elapsed = time.time() - start
    value = table.quantiles[0.05]
    stderr = table.standard_errors[0.05]
    # The window is set for the stipulated 1e4-point grid, from Kiefer's
    # series rather than from the simulator. A maximum over the grid never
    # exceeds the supremum, so the continuum quantile bounds it from above;
    # the discrete-monitoring correction sets the value expected below it.
    series = sup_sq_bridge_quantile(2, 0.05)
    corrected = grid_corrected_quantile(series, 10_000)
    low, high = corrected - 4.0 * stderr, series + 4.0 * stderr
    ok = low <= value <= high
    detail = (
        f"d=2 level=0.05 R=2e5 G=1e4 -> {value:.4f} (se {stderr:.4f}); "
        f"Kiefer series {series:.4f}, grid-corrected {corrected:.4f}, "
        f"{(value - corrected) / stderr:+.1f} se from corrected; "
        f"window [{low:.4f}, {high:.4f}], {elapsed:.0f}s"
    )
    _check(1, ok, detail)


SIZE_REFS = {
    (1.0, 1.0): {50: 0.0233, 100: 0.0276, 500: 0.0429},
    (1.0, 0.01): {50: 0.0217, 100: 0.0291, 500: 0.0374},
}


def test_criterion_02_empirical_size_cells():
    m = _m(2000)
    cells = []
    worst = 0.0
    ok = True
    for seed, theta0 in ((101, (1.0, 1.0)), (102, (1.0, 0.01))):
        for n, ref in SIZE_REFS[theta0].items():
            config = ExperimentConfig(model="gamma", theta0=theta0, n=n, m=m, seed=seed)
            rate = run_experiment(config).rejection_rate
            worst = max(worst, abs(rate - ref))
            if abs(rate - ref) > 0.015 or rate > 0.065:
                ok = False
            cells.append(f"theta0={theta0} n={n}: {rate:.4f} (ref {ref})")
    detail = f"m={m}, worst |size-ref|={worst:.4f} (limit 0.015); " + "; ".join(cells)
    _check(2, ok, detail)


def test_criterion_03_empirical_power_cells():
    m = _m(1000)
    checks = [
        (0.50, 100, "ge", 0.99),
        (0.75, 500, "ge", 0.99),
        (0.90, 50, "le", 0.12),
        (0.90, 500, "ge", 0.99),
    ]
    cells = []
    ok = True
    for ustar, n, sense, bound in checks:
        config = ExperimentConfig(
            model="gamma",
            theta0=(1.0, 0.01),
            theta1=(1.0, 0.05),
            ustar=ustar,
            n=n,
            m=m,
            seed=202,
        )
        rate = run_experiment(config).rejection_rate
        good = rate >= bound if sense == "ge" else rate <= bound
        ok = ok and good
        mark = ">=" if sense == "ge" else "<="
        cells.append(f"u*={ustar} n={n}: {rate:.4f} (need {mark} {bound})")
    detail = f"m={m}; " + "; ".join(cells)
    _check(3, ok, detail)


LOCATION_REFS = {0.50: (0.497, 0.006), 0.75: (0.737, 0.022), 0.90: (0.831, 0.090)}


def test_criterion_04_change_point_accuracy():
    ref = resources.files("momentcpt").joinpath("_data/configs/table5.json")
    with resources.as_file(ref) as path:
        configs = load_config(path)
    assert len(configs) == 3
    cells = []
    ok = True
    m_used = None
    for config in configs:
        if FULL:
            config = replace(config, m=10_000)
        m_used = config.m
        result = run_experiment(config)
        mean_ref, sd_ref = LOCATION_REFS[config.ustar]
        mean_ok = abs(result.u_hat_mean - mean_ref) <= 0.01
        sd_ok = sd_ref / 2.0 <= result.u_hat_sd <= sd_ref * 2.0
        ok = ok and mean_ok and sd_ok
        cells.append(
            f"u*={config.ustar}: mean {result.u_hat_mean:.4f} (ref {mean_ref}), "
            f"sd {result.u_hat_sd:.4f} (ref {sd_ref})"
        )
    detail = f"n=500 m={m_used}; " + "; ".join(cells)
    _check(4, ok, detail)


def _random_instance(rng, n_max=200):
    # rejection-sample a dataset the estimator accepts
    names = model_names()
    for _ in range(100):
        name = names[rng.integers(len(names))]
        model = get_model(name)
        grid = THETA_GRID[name]
        theta = grid[rng.integers(len(grid))]
        n = int(rng.integers(model.dim + 2, n_max + 1))
        data = model.sample(theta, rng, n)
        try:
            report = run_test(data, model, critical_value=np.inf)
        except EstimationError:
            continue
        return model, data, report
    raise AssertionError("could not draw a nondegenerate instance in 100 tries")


def test_criterion_05_brute_force_equivalence():
    rng = np.random.default_rng(7001)
    worst = 0.0
    ok = True
    for _ in range(100):
        model, data, report = _random_instance(rng)
        brute = brute_force_path(data, model, report.theta_hat, report.sigma_hat)
        if not np.allclose(report.t_path, brute, rtol=1e-10, atol=1e-12):
            ok = False
        gap = np.abs(report.t_path - brute) / np.maximum(np.abs(brute), 1e-2)
        worst = max(worst, float(gap.max()))
    detail = (
        f"100 instances with n <= 200 over {model_names()}, "
        f"worst relative path gap {worst:.2e} (limit 1e-10)"
    )
    _check(5, ok, detail)


def test_criterion_06_affine_invariance():
    # the closed-form gamma and a Newton-only one started where a user
    # might start it, each over its own 50 draws; beside the random (A, b),
    # the diagonal views rescale x^2 by 1e12 and 1e-12
    rough = replace(
        gamma_model(),
        name="gamma~newton",
        inverse_mean=None,
        init_guess=lambda m: np.array([1.0, 1.0 / m[0]]),
    )
    worst = {}
    ok = True
    for g in (gamma_model(), rough):
        rng = np.random.default_rng(7002)
        done = 0
        while done < 50:
            a = rng.uniform(-1.5, 1.5, size=(2, 2))
            if np.linalg.cond(a) > 20.0:
                continue
            b = rng.uniform(-3.0, 3.0, size=2)
            data = g.sample((1.5, 0.8), rng, 150)
            base = run_test(data, g, critical_value=np.inf)
            views = [("(A, b)", a, b)] + [
                (f"diag(1, {s:g})", np.diag([1.0, s]), np.zeros(2)) for s in (1e12, 1e-12)
            ]
            for label, va, vb in views:
                moved = run_test(data, affine_transform(g, va, vb), critical_value=np.inf)
                if not np.allclose(moved.t_path, base.t_path, rtol=1e-9, atol=1e-9):
                    ok = False
                key = f"{g.name} {label}"
                gap = float(np.max(np.abs(moved.t_path - base.t_path)))
                worst[key] = max(worst.get(key, 0.0), gap)
            done += 1
    gaps = ", ".join(f"{key} {gap:.2e}" for key, gap in worst.items())
    detail = (
        f"50 draws per family, each under a random invertible (A, b) and "
        f"two diagonal rescalings, worst |path gap|: {gaps} (limit 1e-9)"
    )
    _check(6, ok, detail)


def test_criterion_07_estimating_equation_identity():
    rng = np.random.default_rng(7003)
    worst = 0.0
    ok = True
    done = 0
    while done < 500:
        names = model_names()
        name = names[rng.integers(len(names))]
        model = get_model(name)
        grid = THETA_GRID[name]
        theta = grid[rng.integers(len(grid))]
        n = int(rng.integers(model.dim + 2, 401))
        data = model.sample(theta, rng, n)
        try:
            fit = mme(data, model)
        except EstimationError:
            continue
        state = build_state(data, model)
        residual = float(np.linalg.norm(z_at(state, 1.0, fit.theta, model)))
        psi_bar = float(np.linalg.norm(state.psi_bar))
        bound = 1e-8 * (1.0 + psi_bar)
        if residual > bound:
            ok = False
        worst = max(worst, residual / bound)
        done += 1
    detail = f"500 successful fits, worst residual/bound ratio {worst:.2e}"
    _check(7, ok, detail)


def test_criterion_08_jacobian_and_sampler_moments():
    rng = np.random.default_rng(7004)
    ok = True
    worst_jac = 0.0
    worst_sigmas = 0.0
    for name in model_names():
        model = get_model(name)
        for theta in (SAFE_THETA[name], THETA_GRID[name][0], THETA_GRID[name][-1]):
            jac = np.asarray(model.jacobian(theta), dtype=float)
            fd = finite_difference_jacobian(model.mean, theta)
            if not np.allclose(jac, fd, rtol=1e-5, atol=1e-7):
                ok = False
            scale = np.maximum(np.abs(jac), 1e-7)
            worst_jac = max(worst_jac, float(np.max(np.abs(jac - fd) / scale)))
        theta = SAFE_THETA[name]
        draws = model.sample(theta, rng, 1_000_000)
        psi = np.asarray(model.psi(draws), dtype=float)
        mean = np.asarray(model.mean(theta), dtype=float)
        sigma = np.asarray(model.cov(theta), dtype=float)
        gap = np.abs(psi.mean(axis=0) - mean)
        limit = np.sqrt(np.diag(sigma) / 1_000_000)
        if np.any(gap > 5.0 * limit):
            ok = False
        worst_sigmas = max(worst_sigmas, float(np.max(gap / limit)))
    detail = (
        f"FD Jacobians at 3 points per model (worst rel gap {worst_jac:.2e}) and "
        f"1e6-draw moments (worst {worst_sigmas:.2f} sigma, limit 5)"
    )
    _check(8, ok, detail)


def test_criterion_09_one_dimensional_anchor():
    table = critical_value(
        1, level=0.05, replications=200_000, grid=10_000, seed=909, jobs=2
    )
    value = table.quantiles[0.05]
    ok = abs(value - 1.844) <= 0.03
    detail = f"d=1 level=0.05 R=2e5 G=1e4 -> {value:.4f}, analytic anchor 1.844 +/- 0.03"
    _check(9, ok, detail)


def test_criterion_10_consistency_diagnostics():
    n_values = (100, 500, 2000)
    lines = []
    ok = True
    for ustar in (0.50, 0.75, 0.90):
        config = ExperimentConfig(
            model="gamma",
            theta0=(1.0, 0.01),
            theta1=(1.0, 0.05),
            ustar=ustar,
            n=500,
            m=300,
            seed=1010,
        )
        diag = consistency_diagnostics(config, n_values)
        gap_seq = [row.sup_gap for row in diag.rows]
        gaps_ok = all(a > b for a, b in zip(gap_seq, gap_seq[1:]))
        med_seq = [row.median_abs_error for row in diag.rows]
        med_ok = all(a > b for a, b in zip(med_seq, med_seq[1:]))
        ok = ok and gaps_ok and med_ok
        gap_txt = " -> ".join(f"{v:.4f}" for v in gap_seq)
        med_txt = " -> ".join(f"{v:.5f}" for v in med_seq)
        lines.append(
            f"u*={ustar}: sup-gaps {gap_txt} ({'down' if gaps_ok else 'NOT down'}), "
            f"median errors {med_txt} ({'down' if med_ok else 'NOT down'})"
        )
    detail = f"n in {n_values}, m=300; " + "; ".join(lines)
    _check(10, ok, detail)
