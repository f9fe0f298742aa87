"""Empirical transform-side statistics over steady-state samples: scaled MGFs
with analytic derivatives, the collapse (perpendicular-component) estimator,
unused-service rates, goodness-of-fit distances, moment comparisons, and the
residuals of the three steady-state transform identities.

All estimators are folds over per-batch means; reported standard errors are
batch-means standard errors, and residuals are evaluated per batch before
aggregation so covariances between the MGF, its derivative, and the
unused-service mean propagate automatically. Every statistic of the queue
state is evaluated once per distinct state and folded through a per-batch
count table (`jsqa.counts`): a sample set's, or the exact law from
`oracle.exact_law`. The regime's scaling and centering come from
`regimes.scale` alone. The unused service, which is not a function of the
state, enters through the sample set's per-batch means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import StateCounts, batch_stderr
from .errors import ConfigError, RegimeMismatchError
from .limits import LimitDistribution
from .model import SystemConfig
from . import regimes
from .regimes import RegimeSpec
from .simulator import SampleSet

__all__ = [
    "MgfEstimate",
    "SscEstimate",
    "UnusedServiceRate",
    "Comparison",
    "empirical_mgf",
    "ssc_estimate",
    "unused_service_rate",
    "classic_residual",
    "critical_ode_residual",
    "overloaded_ode_residual",
    "drift_relation_values",
    "ks_statistic",
    "moment_report",
]

# exp() overflows past ~709; exponents beyond this make a grid point unusable
MAX_EXPONENT = 700.0
# grid points whose value estimate has relative stderr above this are unusable
MAX_RELATIVE_STDERR = 0.10
# bound on the exp() cells evaluated at once over (distinct rows x grid points)
MGF_CHUNK_CELLS = 1 << 21


@dataclass
class MgfEstimate:
    """Empirical MGF of the regime's scaled statistic on a phi grid.

    `values[k]` estimates E[exp(phi_k * gamma^e * X)], where X and e are
    fixed by `spec` (see `empirical_mgf`) and gamma is `config.gamma`, the
    samples' own. `batch_derivs[b, k]` is batch b's mean of the exact analytic
    phi-derivative gamma^e * X * exp(...), not a finite difference. Per-batch
    matrices back the standard errors and downstream residuals; `usable` flags
    grid points that neither overflowed nor exceeded the relative stderr
    threshold.
    """

    phi_grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    usable: np.ndarray
    spec: RegimeSpec
    config: SystemConfig
    batch_values: np.ndarray
    batch_derivs: np.ndarray
    batch_u_mean: np.ndarray


def empirical_mgf(samples: SampleSet, phi_grid, spec: RegimeSpec) -> MgfEstimate:
    """Empirical MGF of the statistic whose limit the regime `spec` proves,
    from steady-state samples at the samples' gamma.

    The statistic is the total of the regime's scaled coordinates
    (`regimes.scale`): the total queue length X, centered at drift/gamma in
    the overloaded family, scaled by gamma^e with e = alpha for classic and
    1/2 otherwise. Raises ConfigError unless the samples' config is the
    member of the spec's family at their gamma (`regimes.build_config`), the
    point the spec centers and scales about.

    Overflow guard: a grid point whose largest exponent would exceed
    MAX_EXPONENT is flagged unusable instead of returning infinity. A point
    whose standard error is NaN (fewer than two batches) or zero is unusable
    too, since no z-score can be formed from it.
    """
    if regimes.build_config(spec, samples.gamma) != samples.config:
        raise ConfigError(
            f"the samples' config is not the member of the {spec.kind} family at "
            f"gamma={samples.gamma:g}, so the spec cannot scale them"
        )
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.size == 0:
        raise ValueError("phi grid must be nonempty")
    if not np.all(np.abs(phi_grid) <= 2.0):
        raise ValueError("phi grid must be finite and lie within [-2, 2]")
    counts = regimes.scale(samples.counts, spec, samples.gamma)
    scaled = counts.rows.sum(axis=1)

    lo, hi = scaled.min(), scaled.max()
    extremes = np.maximum(phi_grid * lo, phi_grid * hi)
    overflow = extremes > MAX_EXPONENT

    nb = counts.num_batches
    k = phi_grid.size
    batch_values = np.ones((nb, k))
    batch_derivs = np.zeros((nb, k))
    finite = np.flatnonzero(~overflow)
    step = max(1, MGF_CHUNK_CELLS // scaled.size)
    for j in range(0, finite.size, step):
        cols = finite[j : j + step]
        e = np.exp(scaled[:, None] * phi_grid[cols])
        batch_values[:, cols] = counts.batch_means(e)
        batch_derivs[:, cols] = counts.batch_means(scaled[:, None] * e)

    values = batch_values.mean(axis=0)
    stderr = batch_stderr(batch_values)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(values > 0, stderr / values, np.inf)
    usable = ~overflow & (stderr > 0) & (rel <= MAX_RELATIVE_STDERR)
    values = np.where(overflow, np.nan, values)
    return MgfEstimate(
        phi_grid=phi_grid,
        values=values,
        stderr=stderr,
        usable=usable,
        spec=spec,
        config=samples.config,
        batch_values=batch_values,
        batch_derivs=batch_derivs,
        batch_u_mean=samples.batch_u_mean,
    )


@dataclass(frozen=True)
class SscEstimate:
    """Second moments of the perpendicular component and of the full vector."""

    perp_second_moment: float
    total_second_moment: float
    stderr: float


def ssc_estimate(counts: StateCounts) -> SscEstimate:
    """Mean squared norm of the queue component orthogonal to the diagonal,
    over a count table of raw queue vectors.

    Uses the Pythagoras identity per state:
    |q_perp|^2 = |q|^2 - <q, 1>^2 / n.
    """
    n = counts.rows.shape[1]
    if n < 2:
        raise ValueError("perpendicular component needs n >= 2 queues")
    q = counts.rows.astype(float)
    sq = (q**2).sum(axis=1)
    perp = sq - q.sum(axis=1) ** 2 / n
    bm = counts.batch_means(np.column_stack([perp, sq]))
    return SscEstimate(
        perp_second_moment=float(bm[:, 0].mean()),
        total_second_moment=float(bm[:, 1].mean()),
        stderr=float(batch_stderr(bm[:, 0])),
    )


@dataclass(frozen=True)
class UnusedServiceRate:
    """Mean unused service per slot, raw and on the critical scale."""

    raw: float
    critical_scaled: float
    stderr_raw: float


def unused_service_rate(samples: SampleSet) -> UnusedServiceRate:
    bm = samples.batch_u_mean
    raw = float(bm.mean())
    return UnusedServiceRate(
        raw=raw,
        critical_scaled=raw / math.sqrt(samples.gamma),
        stderr_raw=float(batch_stderr(bm)),
    )


@dataclass(frozen=True)
class Comparison:
    """One batch-means estimate against its target (a moment against its
    limit, a residual against 0, a simulated statistic against the exact
    chain), keyed as in results.csv; `usable` is False at an unusable MGF
    grid point, whose z-score no summary may read."""

    key: str
    estimate: float
    stderr: float
    target: float = 0.0
    usable: bool = True

    @property
    def zscore(self) -> float:
        """(estimate - target) / stderr. NaN when the standard error is NaN
        (fewer than two batches); with a zero standard error, 0 if the
        estimate equals the target and inf otherwise."""
        if self.stderr == 0:
            return 0.0 if self.estimate == self.target else math.inf
        return (self.estimate - self.target) / self.stderr


def _comparisons(keys, rows: np.ndarray, targets=0.0, usable=True) -> list[Comparison]:
    """One comparison per column of the per-batch rows (B, K): its mean and
    batch-means stderr against `targets`, flagged by `usable` (each a scalar
    or one value per column)."""
    columns = np.broadcast_arrays(rows.mean(axis=0), batch_stderr(rows), targets, usable)
    return [
        Comparison(key, float(e), float(s), float(t), bool(u))
        for key, e, s, t, u in zip(keys, *columns)
    ]


def drift_relation_values(
    m_values, m_derivs, phi_grid, drift_scaled: float, c2: float, u_scaled, abandon_weight: float
) -> np.ndarray:
    """Left side of the steady-state MGF relation of the total queue Q at
    scaling exponent e:

      (drift_scaled + phi * c2 / 2) * M(phi) - abandon_weight * M'(phi) + u_scaled

    with M(phi) = E[exp(phi gamma^e Q)], drift_scaled = drift / gamma^e,
    abandon_weight = gamma^(1 - 2e) and u_scaled = mean unused service / gamma^e.
    It is the one-slot drift of exp(phi gamma^e Q), expanded to second order
    and divided by phi gamma^(2e); the M' term is the abandonment drift
    -gamma Q. At phi = 0 it reduces to the drift identity
    (drift - gamma E[Q] + E[u]) / gamma^e = 0.
    """
    phi = np.asarray(phi_grid, dtype=float)
    m = np.asarray(m_values, dtype=float)
    return (
        (drift_scaled + 0.5 * phi * c2) * m
        - abandon_weight * np.asarray(m_derivs, dtype=float)
        + u_scaled
    )


def _residuals(mgf: MgfEstimate, rows: np.ndarray) -> list[Comparison]:
    """Residuals against 0 per grid point of `mgf`, keyed `phi=<g>`."""
    return _comparisons([f"phi={phi:g}" for phi in mgf.phi_grid], rows, usable=mgf.usable)


def _require_kind(mgf: MgfEstimate, kind: str) -> None:
    if mgf.spec.kind != kind:
        raise RegimeMismatchError(
            f"{kind} residual applied to the MGF of the {mgf.spec.kind} regime"
        )


def classic_residual(mgf: MgfEstimate) -> list[Comparison]:
    """Residuals of the classic-regime MGF relation over the grid.

    Needs the MGF of a classic regime: the total queue length scaled with
    the classic exponent alpha, with per-batch unused-service means. Keeps
    the abandonment term gamma^(1 - 2 alpha) M'(phi) and the measured unused
    service, both of which the gamma -> 0 limit relation
    (drift_scaled + phi c2 / 2) M(phi) = drift_scaled drops; at finite gamma
    dropping them biases the residual by several standard errors.
    """
    _require_kind(mgf, "classic")
    config, alpha = mgf.config, mgf.spec.alpha
    gamma = config.gamma
    scale = gamma**alpha
    c2 = config.variance + config.drift**2
    rows = drift_relation_values(
        mgf.batch_values, mgf.batch_derivs, mgf.phi_grid, config.drift / scale, c2,
        mgf.batch_u_mean[:, None] / scale, gamma ** (1.0 - 2.0 * alpha),
    )
    return _residuals(mgf, rows)


def critical_ode_residual(mgf: MgfEstimate) -> list[Comparison]:
    """Residuals of the critical-regime MGF differential relation.

    Needs the MGF of a critical regime: the total queue length scaled by
    gamma^(1/2), with analytic derivatives and per-batch unused-service
    means. The relation is -M(phi) * (phi * c2 / 2 + drift_scaled) + M'(phi)
    - u_scaled, the drift relation at e = 1/2 with its sign flipped.
    """
    _require_kind(mgf, "critical")
    config = mgf.config
    gamma = config.gamma
    drift_scaled = config.drift / math.sqrt(gamma)
    c2 = config.variance + config.drift**2
    u_scaled = mgf.batch_u_mean[:, None] / math.sqrt(gamma)
    rows = -drift_relation_values(
        mgf.batch_values, mgf.batch_derivs, mgf.phi_grid, drift_scaled, c2, u_scaled, 1.0
    )
    return _residuals(mgf, rows)


def overloaded_ode_residual(mgf: MgfEstimate) -> list[Comparison]:
    """Residuals of the overloaded-regime MGF differential relation
    (phi * bar_c2 / 2) * M(phi) - M'(phi), on the MGF of an overloaded
    regime (the total centered at drift/gamma, scaled by gamma^(1/2)): the
    drift relation at e = 1/2 with no drift and no unused service."""
    _require_kind(mgf, "overloaded")
    config = mgf.config
    bar_c2 = config.variance + config.drift * (1.0 - config.gamma)
    rows = drift_relation_values(
        mgf.batch_values, mgf.batch_derivs, mgf.phi_grid, 0.0, bar_c2, 0.0, 1.0
    )
    return _residuals(mgf, rows)


def ks_statistic(samples, dist: LimitDistribution, counts=None) -> float:
    """Sup distance between the empirical CDF and `dist`.

    `samples` are the sample points, or distinct points whose multiplicities
    are `counts`. Within a group of tied points the CDF of `dist` is constant,
    so the upper gap peaks at the end of the group and the lower gap at its
    start; the distance is the larger of those maxima.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    points, group = np.unique(x, return_inverse=True)
    weights = np.bincount(group.reshape(-1), weights=counts, minlength=points.size)
    end = np.cumsum(weights)
    n = end[-1]
    cdf = dist.cdf(points)
    upper = end / n - cdf
    lower = cdf - (end - weights) / n
    return float(max(upper.max(), lower.max()))


def moment_report(
    scaled: StateCounts, dist: LimitDistribution, max_order: int = 2
) -> list[Comparison]:
    """Compare pooled per-coordinate moments (and, for n >= 2, cross-coordinate
    product moments of the first two coordinates) against the limit law.
    `scaled` is the count table of the scaled coordinates (`regimes.scale`).

    Cross moments test the rank-one structure of the limit: every product
    E[x_1^m1 * x_2^m2] must converge to the (m1+m2)-th moment of the scalar
    law. Orders above 4 are rejected since their empirical variance explodes.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("moment orders must lie in 1..4")
    x = scaled.rows
    keys, targets, columns = [], [], []
    for m in range(1, max_order + 1):
        keys.append(f"coordinate_m={m}")
        targets.append(dist.moment(m))
        columns.append((x**m).mean(axis=1))
    if x.shape[1] >= 2:
        for m1 in range(1, max_order):
            for m2 in range(1, max_order - m1 + 1):
                keys.append(f"cross_m1={m1}_m2={m2}")
                targets.append(dist.moment(m1 + m2))
                columns.append(x[:, 0] ** m1 * x[:, 1] ** m2)
    return _comparisons(keys, scaled.batch_means(np.column_stack(columns)), targets)
