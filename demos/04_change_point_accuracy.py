"""How well the argmax locates the change.

The change fraction estimate u_hat is the location of the largest statistic
value. Its error shrinks as n grows, and the theory predicts the statistic
itself grows linearly in n under a fixed alternative; both show up clearly
in simulation.
"""

import numpy as np

from momentcpt import ExperimentConfig, consistency_diagnostics, run_experiment

config = ExperimentConfig(
    model="gamma",
    theta0=(1.0, 0.01),
    theta1=(1.0, 0.05),
    ustar=0.75,
    n=500,
    m=500,
    seed=55,
    histogram_bins=25,
)

result = run_experiment(config)
print(f"u* = {config.ustar}, n = {config.n}, m = {config.m}")
print(f"u_hat mean {result.u_hat_mean:.4f}, sd {result.u_hat_sd:.4f}, rmse {result.u_hat_rmse:.4f}")

print("\nhistogram of u_hat:")
counts = result.histogram_counts
edges = result.histogram_edges
peak = counts.max()
for i, count in enumerate(counts):
    if count == 0:
        continue
    bar = "#" * max(1, int(40 * count / peak))
    print(f"  [{edges[i]:.2f}, {edges[i + 1]:.2f})  {count:4d}  {bar}")

# across sample sizes: the sup-gap between the observed process and its
# theoretical drift shrinks at the root-n rate, the statistic outgrows its
# detection bound, and the location error collapses
diag = consistency_diagnostics(config, n_values=(100, 300, 1000))
print("\nn      bound      frac above bound/2   median |u_hat - u*|   sup-gap")
for row in diag.rows:
    print(
        f"{row.n:<6d} {row.bound:<10.2f} {row.frac_above_half_bound:<20.3f} "
        f"{row.median_abs_error:<21.4f} {row.sup_gap:.2f}"
    )
theta_star = np.round(diag.oracle.theta_star, 4)
print(f"\nfull-sample estimate drifts toward theta* = {theta_star} under this alternative")
