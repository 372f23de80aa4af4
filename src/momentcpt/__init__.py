"""Change point tests for parametric families via moment estimating equations.

The test statistic scans the partial sums of the estimating equation of a
method of moments fit: under a stable model the rescaled partial-sum process
behaves like a Brownian bridge, while a change in the underlying parameter
bends it into a tent shape peaking at the change location. The package
provides the estimator, the statistic and its critical values, a seeded
Monte Carlo experiment harness, and a command line front end.
"""

from .errors import (
    DegenerateSample,
    EstimationError,
    NoConvergence,
    OutOfDomain,
    SingularCovariance,
    SingularJacobian,
)
from .estimator import MMEResult, mme, newton_solve
from .limits import (
    CriticalValueTable,
    critical_value,
    default_table,
    lookup_critical_value,
    read_table_file,
    simulate_bridge_sup,
    write_table_file,
)
from .models import (
    MomentModel,
    affine_transform,
    asymptotic_covariance,
    bernoulli_model,
    exponential_model,
    gamma_model,
    get_model,
    model_names,
    normal_model,
    poisson_model,
)
from .montecarlo import (
    AlternativeOracle,
    ConsistencyDiagnostics,
    ExperimentConfig,
    ExperimentResult,
    alternative_oracle,
    consistency_diagnostics,
    load_config,
    run_experiment,
    sup_zn_gap,
)
from .zprocess import (
    TestReport,
    ZProcessState,
    build_state,
    detect,
    run_test,
    sigma_hat,
    t_path,
    z_at,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeOracle",
    "ConsistencyDiagnostics",
    "CriticalValueTable",
    "DegenerateSample",
    "EstimationError",
    "ExperimentConfig",
    "ExperimentResult",
    "MMEResult",
    "MomentModel",
    "NoConvergence",
    "OutOfDomain",
    "SingularCovariance",
    "SingularJacobian",
    "TestReport",
    "ZProcessState",
    "affine_transform",
    "alternative_oracle",
    "asymptotic_covariance",
    "bernoulli_model",
    "build_state",
    "consistency_diagnostics",
    "critical_value",
    "default_table",
    "detect",
    "exponential_model",
    "gamma_model",
    "get_model",
    "load_config",
    "lookup_critical_value",
    "mme",
    "model_names",
    "newton_solve",
    "normal_model",
    "poisson_model",
    "read_table_file",
    "run_experiment",
    "run_test",
    "sigma_hat",
    "simulate_bridge_sup",
    "sup_zn_gap",
    "t_path",
    "write_table_file",
    "z_at",
]
