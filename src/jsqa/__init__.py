"""Simulation and statistical verification toolkit for discrete-time
join-the-shortest-queue systems with per-job abandonment."""

from .errors import (
    ConfigError,
    RegimeMismatchError,
    ResourceLimitError,
    StateBudgetError,
)
from .limits import LimitDistribution, critical_unused_limit, limit_for_regime
from .model import (
    BernoulliScaled,
    Binomial,
    Constant,
    RngStream,
    SystemConfig,
    config_from_dict,
    distribution_from_dict,
    sample_many,
    validate,
)
from .oracle import (
    TruncatedChain,
    auto_chain,
    build_chain,
    exact_law,
    stationary,
    stationary_leakage,
)
from .regimes import (
    RegimeSpec,
    build_config,
    limit_sigma2,
    regime_from_dict,
    scale,
)
from .simulator import (
    DominationReport,
    SampleSet,
    SamplingPlan,
    collect_steady_state,
    default_plan,
    simulate_coupled_domination,
    step_many,
)
from .transform import (
    Comparison,
    MgfEstimate,
    SscEstimate,
    UnusedServiceRate,
    classic_residual,
    critical_ode_residual,
    empirical_mgf,
    ks_statistic,
    moment_report,
    overloaded_ode_residual,
    ssc_estimate,
    unused_service_rate,
)

__version__ = "0.1.0"
