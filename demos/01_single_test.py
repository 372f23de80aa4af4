"""Run the change point test on one simulated series.

The series switches from Gamma(1, 0.01) to Gamma(1, 0.05) three quarters of
the way through. The test statistic is the scaled supremum of a standardized
partial-sum process; its largest value points at the change.
"""

import numpy as np

from momentcpt import gamma_model, run_test

model = gamma_model()
rng = np.random.default_rng(11)

n = 500
k_star = 375
data = np.concatenate(
    [
        model.sample((1.0, 0.01), rng, k_star),
        model.sample((1.0, 0.05), rng, n - k_star),
    ]
)

report = run_test(data, model, level=0.05)

print(f"estimated parameters (full sample): {report.theta_hat.round(4)}")
print(f"test statistic T_n = {report.t_stat:.3f}")
print(f"critical value at level {report.level}: {report.critical_value:.3f}")
print(f"reject homogeneity: {report.reject}")
print(f"estimated change fraction u_hat = {report.u_hat:.3f} (true 0.75)")
print(f"estimated change index k_hat = {report.k_hat} (true {k_star})")

# the statistic path peaks at the change; print a coarse profile
path = report.t_path
for k in range(0, n + 1, 50):
    bar = "#" * int(40 * path[k] / report.t_stat)
    print(f"k={k:4d}  t={path[k]:8.3f}  {bar}")
