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
    config_from_json,
    distribution_from_dict,
    sample_many,
    validate,
)
from .oracle import (
    TruncatedChain,
    auto_chain,
    build_chain,
    oracle_mgf,
    oracle_moments,
    stationary,
    stationary_leakage,
)
from .regimes import (
    RegimeSpec,
    ScaledSampleSet,
    build_config,
    limit_sigma2,
    regime_from_dict,
    regime_from_json,
    scale,
    unscale,
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
    MgfEstimate,
    MomentRow,
    ResidualPoint,
    SscEstimate,
    UnusedServiceRate,
    classic_residual,
    critical_ode_residual,
    empirical_mgf,
    ks_statistic,
    ks_two_sample,
    moment_report,
    overloaded_ode_residual,
    ssc_estimate,
    unused_service_rate,
)

__version__ = "0.1.0"
