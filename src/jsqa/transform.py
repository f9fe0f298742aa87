"""Empirical transform-side statistics over steady-state samples: scaled MGFs
with analytic derivatives, the collapse (perpendicular-component) estimator,
unused-service rates, goodness-of-fit distances, moment comparisons, and the
residuals of the three steady-state transform identities.

All estimators are folds over per-batch means; reported standard errors are
batch-means standard errors, and residuals are evaluated per batch before
aggregation so covariances between the MGF, its derivative, and the
unused-service mean propagate automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeMismatchError
from .limits import LimitDistribution
from .model import SystemConfig
from .regimes import RegimeSpec, ScaledSampleSet, scaling_exponent
from .simulator import SampleSet

__all__ = [
    "MgfEstimate",
    "SscEstimate",
    "UnusedServiceRate",
    "ResidualPoint",
    "MomentRow",
    "empirical_mgf",
    "mgf_from_values",
    "ssc_estimate",
    "unused_service_rate",
    "classic_residual",
    "critical_ode_residual",
    "overloaded_ode_residual",
    "drift_relation_values",
    "critical_residual_values",
    "overloaded_residual_values",
    "ks_statistic",
    "ks_two_sample",
    "moment_report",
]

# exp() overflows past ~709; exponents beyond this make a grid point unusable
MAX_EXPONENT = 700.0
# grid points whose value estimate has relative stderr above this are unusable
MAX_RELATIVE_STDERR = 0.10

STATISTICS = ("per-queue", "total", "centered-total")


def _batch_means(values: np.ndarray, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-batch means and batch sizes; `values` may be (N,) or (N, K)."""
    nb = int(batch.max()) + 1
    sizes = np.bincount(batch, minlength=nb).astype(float)
    if values.ndim == 1:
        sums = np.bincount(batch, weights=values, minlength=nb)
        return sums / sizes, sizes
    means = np.empty((nb, values.shape[1]))
    for k in range(values.shape[1]):
        means[:, k] = np.bincount(batch, weights=values[:, k], minlength=nb) / sizes
    return means, sizes


def _stderr(batch_means: np.ndarray) -> np.ndarray:
    b = batch_means.shape[0]
    if b < 2:
        return np.full(batch_means.shape[1:], np.nan)
    return np.std(batch_means, axis=0, ddof=1) / math.sqrt(b)


@dataclass
class MgfEstimate:
    """Empirical MGF of a scaled statistic on a phi grid.

    `values[k]` estimates E[exp(phi_k * gamma^exponent * X)] and
    `derivatives[k]` its exact analytic phi-derivative
    E[gamma^exponent * X * exp(...)], not a finite difference. Per-batch
    matrices back the standard errors and downstream residuals; `usable`
    flags grid points that neither overflowed nor exceeded the relative
    stderr threshold.
    """

    phi_grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    stderr: np.ndarray
    usable: np.ndarray
    gamma: float
    exponent: float
    statistic: str
    batch_values: np.ndarray
    batch_derivs: np.ndarray
    batch_u_mean: np.ndarray | None = None


def mgf_from_values(
    x: np.ndarray,
    batch: np.ndarray,
    gamma: float,
    phi_grid,
    exponent: float = 0.5,
    statistic: str = "raw",
    u_total: np.ndarray | None = None,
) -> MgfEstimate:
    """Empirical MGF of `gamma**exponent * x` over a phi grid.

    Overflow guard: a grid point whose largest exponent would exceed
    MAX_EXPONENT is flagged unusable instead of returning infinity. A point
    whose standard error is NaN (fewer than two batches) or zero is unusable
    too, since no z-score can be formed from it.
    """
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.size == 0:
        raise ValueError("phi grid must be nonempty")
    if np.any(np.abs(phi_grid) > 2.0):
        raise ValueError("phi grid must lie within [-2, 2]")
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    scaled = gamma**exponent * x

    lo, hi = scaled.min(), scaled.max()
    extremes = np.maximum(phi_grid * lo, phi_grid * hi)
    overflow = extremes > MAX_EXPONENT

    nb = int(batch.max()) + 1
    k = phi_grid.size
    batch_values = np.ones((nb, k))
    batch_derivs = np.zeros((nb, k))
    for j in np.nonzero(~overflow)[0]:
        e = np.exp(phi_grid[j] * scaled)
        bv, _ = _batch_means(e, batch)
        bd, _ = _batch_means(scaled * e, batch)
        batch_values[:, j] = bv
        batch_derivs[:, j] = bd

    values = batch_values.mean(axis=0)
    derivatives = batch_derivs.mean(axis=0)
    stderr = _stderr(batch_values)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(values > 0, stderr / values, np.inf)
    usable = ~overflow & (stderr > 0) & (rel <= MAX_RELATIVE_STDERR)
    values = np.where(overflow, np.nan, values)
    derivatives = np.where(overflow, np.nan, derivatives)

    u_mean = None
    if u_total is not None:
        u_mean, _ = _batch_means(np.asarray(u_total, dtype=float), batch)
    return MgfEstimate(
        phi_grid=phi_grid,
        values=values,
        derivatives=derivatives,
        stderr=stderr,
        usable=usable,
        gamma=gamma,
        exponent=exponent,
        statistic=statistic,
        batch_values=batch_values,
        batch_derivs=batch_derivs,
        batch_u_mean=u_mean,
    )


def empirical_mgf(
    samples: SampleSet,
    gamma: float,
    phi_grid,
    statistic: str = "total",
    exponent: float = 0.5,
) -> MgfEstimate:
    """Empirical MGF of a queue statistic from steady-state samples.

    `statistic` picks the underlying variable: each coordinate pooled
    ("per-queue"), the total queue length ("total"), or the total centered at
    drift/gamma ("centered-total").
    """
    if statistic not in STATISTICS:
        raise ValueError(f"statistic must be one of {STATISTICS}")
    if statistic == "per-queue":
        n = samples.n
        x = samples.q.reshape(-1).astype(float)
        batch = np.repeat(samples.batch, n)
        u = None
    elif statistic == "total":
        x = samples.totals().astype(float)
        batch = samples.batch
        u = samples.u_total
    else:
        x = samples.totals() - samples.config.drift / gamma
        batch = samples.batch
        u = samples.u_total
    return mgf_from_values(
        x, batch, gamma, phi_grid, exponent=exponent, statistic=statistic, u_total=u
    )


@dataclass(frozen=True)
class SscEstimate:
    """Second moments of the perpendicular component and of the full vector."""

    perp_second_moment: float
    total_second_moment: float
    stderr: float


def ssc_estimate(samples: SampleSet) -> SscEstimate:
    """Mean squared norm of the queue component orthogonal to the diagonal.

    Uses the Pythagoras identity per sample:
    |q_perp|^2 = |q|^2 - <q, 1>^2 / n.
    """
    if samples.n < 2:
        raise ValueError("perpendicular component needs n >= 2 queues")
    q = samples.q.astype(float)
    sq = (q**2).sum(axis=1)
    perp = sq - samples.totals().astype(float) ** 2 / samples.n
    bm_perp, _ = _batch_means(perp, samples.batch)
    bm_sq, _ = _batch_means(sq, samples.batch)
    return SscEstimate(
        perp_second_moment=float(bm_perp.mean()),
        total_second_moment=float(bm_sq.mean()),
        stderr=float(_stderr(bm_perp[:, None])[0]),
    )


@dataclass(frozen=True)
class UnusedServiceRate:
    """Mean unused service per slot, raw and on the critical scale."""

    raw: float
    critical_scaled: float
    stderr_raw: float


def unused_service_rate(samples: SampleSet, gamma: float) -> UnusedServiceRate:
    bm, _ = _batch_means(samples.u_total.astype(float), samples.batch)
    raw = float(bm.mean())
    return UnusedServiceRate(
        raw=raw,
        critical_scaled=raw / math.sqrt(gamma),
        stderr_raw=float(_stderr(bm[:, None])[0]),
    )


@dataclass(frozen=True)
class ResidualPoint:
    """One phi grid point of a transform-identity residual."""

    phi: float
    residual: float
    stderr: float
    usable: bool

    @property
    def zscore(self) -> float:
        return self.residual / self.stderr if self.stderr > 0 else math.inf


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


def critical_residual_values(
    m_values, m_derivs, phi_grid, drift_scaled: float, c2: float, u_scaled
) -> np.ndarray:
    """Left side of the critical MGF differential relation:
    -M(phi) * (phi * c2 / 2 + drift_scaled) + M'(phi) - u_scaled, which is
    drift_relation_values at e = 1/2 with the sign flipped."""
    return -drift_relation_values(m_values, m_derivs, phi_grid, drift_scaled, c2, u_scaled, 1.0)


def overloaded_residual_values(m_values, m_derivs, phi_grid, bar_c2: float) -> np.ndarray:
    """Left side of the overloaded MGF differential relation:
    (phi * bar_c2 / 2) * M(phi) - M'(phi)."""
    phi = np.asarray(phi_grid, dtype=float)
    return 0.5 * phi * bar_c2 * np.asarray(m_values, dtype=float) - np.asarray(
        m_derivs, dtype=float
    )


def _points(phi_grid, batch_rows: np.ndarray, usable) -> list[ResidualPoint]:
    res = batch_rows.mean(axis=0)
    se = _stderr(batch_rows)
    return [
        ResidualPoint(phi=float(p), residual=float(r), stderr=float(s), usable=bool(u))
        for p, r, s, u in zip(phi_grid, res, se, usable)
    ]


def classic_residual(
    mgf: MgfEstimate, config: SystemConfig, spec: RegimeSpec
) -> list[ResidualPoint]:
    """Residuals of the classic-regime MGF relation over the grid.

    Expects the MGF of the total queue length scaled with the classic
    exponent alpha, with per-batch unused-service means. Keeps the
    abandonment term gamma^(1 - 2 alpha) M'(phi) and the measured unused
    service, both of which the gamma -> 0 limit relation
    (drift_scaled + phi c2 / 2) M(phi) = drift_scaled drops; at finite gamma
    dropping them biases the residual by several standard errors.
    """
    if spec.kind != "classic":
        raise RegimeMismatchError("classic residual needs a classic regime spec")
    if mgf.exponent != scaling_exponent(spec) or mgf.statistic != "total":
        raise RegimeMismatchError(
            f"classic residual needs the total-queue MGF at exponent {scaling_exponent(spec)}"
        )
    if mgf.batch_u_mean is None:
        raise RegimeMismatchError("classic residual needs unused-service totals in the samples")
    scale = mgf.gamma**spec.alpha
    c2 = config.variance + config.drift**2
    rows = drift_relation_values(
        mgf.batch_values, mgf.batch_derivs, mgf.phi_grid, config.drift / scale, c2,
        mgf.batch_u_mean[:, None] / scale, mgf.gamma ** (1.0 - 2.0 * spec.alpha),
    )
    return _points(mgf.phi_grid, rows, mgf.usable)


def critical_ode_residual(mgf: MgfEstimate, config: SystemConfig) -> list[ResidualPoint]:
    """Residuals of the critical-regime MGF differential relation.

    Needs the total-queue MGF at exponent 1/2 together with analytic
    derivatives and per-batch unused-service means.
    """
    if mgf.exponent != 0.5 or mgf.statistic != "total":
        raise RegimeMismatchError("critical residual needs the sqrt-scaled total-queue MGF")
    if mgf.batch_u_mean is None:
        raise RegimeMismatchError("critical residual needs unused-service totals in the samples")
    gamma = mgf.gamma
    drift_scaled = config.drift / math.sqrt(gamma)
    c2 = config.variance + config.drift**2
    u_scaled = mgf.batch_u_mean[:, None] / math.sqrt(gamma)
    rows = critical_residual_values(
        mgf.batch_values, mgf.batch_derivs, mgf.phi_grid, drift_scaled, c2, u_scaled
    )
    return _points(mgf.phi_grid, rows, mgf.usable)


def overloaded_ode_residual(mgf: MgfEstimate, config: SystemConfig) -> list[ResidualPoint]:
    """Residuals of the overloaded-regime MGF differential relation, on the
    centered-total statistic."""
    if mgf.exponent != 0.5 or mgf.statistic != "centered-total":
        raise RegimeMismatchError("overloaded residual needs the centered-total MGF")
    gamma = mgf.gamma
    bar_c2 = config.variance + config.drift * (1.0 - gamma)
    rows = overloaded_residual_values(mgf.batch_values, mgf.batch_derivs, mgf.phi_grid, bar_c2)
    return _points(mgf.phi_grid, rows, mgf.usable)


def ks_statistic(samples, dist: LimitDistribution) -> float:
    """Sup distance between the empirical CDF and `dist`, evaluated with both
    one-sided gaps at every sample point."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    n = x.size
    cdf = dist.cdf(x)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def ks_two_sample(x, y) -> float:
    """Sup distance between two empirical CDFs."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


@dataclass(frozen=True)
class MomentRow:
    """One empirical-vs-limit moment comparison."""

    label: str
    empirical: float
    stderr: float
    limit: float

    @property
    def zscore(self) -> float:
        if self.stderr == 0:
            return 0.0 if self.empirical == self.limit else math.inf
        return (self.empirical - self.limit) / self.stderr


def moment_report(
    scaled: ScaledSampleSet, dist: LimitDistribution, max_order: int = 2
) -> list[MomentRow]:
    """Compare pooled per-coordinate moments (and, for n >= 2, cross-coordinate
    product moments of the first two coordinates) against the limit law.

    Cross moments test the rank-one structure of the limit: every product
    E[x_1^m1 * x_2^m2] must converge to the (m1+m2)-th moment of the scalar
    law. Orders above 4 are rejected since their empirical variance explodes.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("moment orders must lie in 1..4")
    rows: list[MomentRow] = []
    n = scaled.n
    pooled = scaled.x.reshape(-1)
    pooled_batch = np.repeat(scaled.batch, n)
    for m in range(1, max_order + 1):
        bm, _ = _batch_means(pooled**m, pooled_batch)
        rows.append(
            MomentRow(
                label=f"coordinate m={m}",
                empirical=float(bm.mean()),
                stderr=float(_stderr(bm[:, None])[0]),
                limit=dist.moment(m),
            )
        )
    if n >= 2:
        for m1 in range(1, max_order):
            for m2 in range(1, max_order - m1 + 1):
                prod = scaled.x[:, 0] ** m1 * scaled.x[:, 1] ** m2
                bm, _ = _batch_means(prod, scaled.batch)
                rows.append(
                    MomentRow(
                        label=f"cross m1={m1} m2={m2}",
                        empirical=float(bm.mean()),
                        stderr=float(_stderr(bm[:, None])[0]),
                        limit=dist.moment(m1 + m2),
                    )
                )
    return rows
