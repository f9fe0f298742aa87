"""Closed-form limiting distributions for the three regimes: density, CDF,
MGF, and moments, plus the limiting unused-service rate of the critical
family.

Per coordinate, with sigma2 = limiting per-slot variance and n queues:

  classic:     Exponential with mean sigma2 / (2 n constant)
  critical:    Normal(constant / n, sigma2 / (2 n^2)) conditioned positive
  overloaded:  Normal(0, bar_sigma2 / (2 n^2))

The scaled total follows the same law with n replaced by 1 (the limit vector
is a single scalar times the all-ones vector).

Gaussian integrals use error-function closed forms, and truncated-normal
moments a fixed composite Gauss-Legendre rule over the density, which avoids
a recurrence. The truncated forms are ratios to the mass above zero,
Phi(mu0 / sd), which underflows for a mean far below zero, so they are taken
in log space through log_ndtr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regimes import RegimeSpec, limit_sigma2

__all__ = [
    "LimitDistribution",
    "exponential",
    "truncated_gaussian",
    "gaussian",
    "limit_for_regime",
    "critical_unused_limit",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LimitDistribution:
    """One limiting law. `kind` selects the family; `mean` is the exponential
    mean, (`mu0`, `var`) the underlying Gaussian parameters (truncation at 0
    from below applies only to the truncated kind, and the plain Gaussian is
    centered). A parameter its kind does not use must be 0."""

    kind: str
    mean: float = 0.0
    mu0: float = 0.0
    var: float = 0.0

    def __post_init__(self):
        if self.kind == "exponential":
            if self.mean <= 0:
                raise ValueError("exponential mean must be positive")
            if self.mu0 or self.var:
                raise ValueError("an exponential law takes no mu0 or var")
        elif self.kind in ("truncated-gaussian", "gaussian"):
            if self.var <= 0:
                raise ValueError("gaussian variance must be positive")
            if self.mean or (self.kind == "gaussian" and self.mu0):
                raise ValueError("gaussian laws take no mean, and the centered kind no mu0")
        else:
            raise ValueError(f"unknown limit kind {self.kind!r}")

    def _log_mass_above_zero(self) -> float:
        from scipy.special import log_ndtr  # loaded on first use, not with the package
        return float(log_ndtr(self.mu0 / math.sqrt(self.var)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            out = np.where(x < 0, 0.0, np.exp(-x / self.mean) / self.mean)
        elif self.kind == "truncated-gaussian":
            sd = math.sqrt(self.var)
            log_body = -0.5 * ((x - self.mu0) / sd) ** 2 - self._log_mass_above_zero()
            out = np.where(x < 0, 0.0, np.exp(log_body) / (sd * _SQRT2PI))
        else:
            sd = math.sqrt(self.var)
            out = np.exp(-0.5 * (x / sd) ** 2) / (sd * _SQRT2PI)
        return out if out.ndim else float(out)

    def cdf(self, x):
        from scipy.special import log_ndtr, ndtr
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            out = np.where(x < 0, 0.0, 1.0 - np.exp(-x / self.mean))
        elif self.kind == "truncated-gaussian":
            # one minus the survival ratio P(X > x) / P(X > 0), which is 1 at
            # and below zero; the clip keeps rounding from giving a cdf below 0
            sd = math.sqrt(self.var)
            log_surv = log_ndtr((self.mu0 - np.maximum(x, 0.0)) / sd)
            log_ratio = log_surv - self._log_mass_above_zero()
            out = -np.expm1(np.minimum(log_ratio, 0.0))
        else:
            out = ndtr(x / math.sqrt(self.var))
        return out if out.ndim else float(out)

    def mgf(self, phi: float) -> float:
        if self.kind == "exponential":
            if phi >= 1.0 / self.mean:
                raise ValueError(
                    f"exponential MGF diverges for phi >= {1.0 / self.mean:g}"
                )
            return 1.0 / (1.0 - phi * self.mean)
        if self.kind == "truncated-gaussian":
            from scipy.special import log_ndtr
            sd = math.sqrt(self.var)
            log_ratio = log_ndtr((self.mu0 + self.var * phi) / sd) - self._log_mass_above_zero()
            return math.exp(self.mu0 * phi + 0.5 * self.var * phi**2 + log_ratio)
        return math.exp(0.5 * self.var * phi**2)

    def moment(self, m: int) -> float:
        if m < 1:
            raise ValueError("moment order must be >= 1")
        if self.kind == "exponential":
            return math.factorial(m) * self.mean**m
        if self.kind == "gaussian":
            if m % 2 == 1:
                return 0.0
            # (m-1)!! * var^(m/2)
            return float(np.prod(np.arange(1, m, 2))) * self.var ** (m // 2)
        # numpy.polynomial is not loaded by `import numpy`; loaded on first use
        from numpy.polynomial.legendre import leggauss

        # composite 24-point Gauss-Legendre over the mean +- (12 + m) sd, cut
        # at 0, in panels at most sd wide: panels that keep doubling miss the
        # body of a law far above zero (1.6e-2 relative error at mu0 / sd = 50).
        # A mean far below zero squeezes the body against 0 to a width of about
        # sd / |mu0 / sd|, so panels from 0 start at that width and double
        sd = math.sqrt(self.var)
        top = max(self.mu0, 0.0) + (12.0 + m) * sd
        edges = [max(0.0, self.mu0 - (12.0 + m) * sd)]
        width = sd / max(1.0, -self.mu0 / sd) if edges[0] == 0.0 else sd
        while edges[-1] < top:
            edges.append(min(edges[-1] + width, top))
            width = min(2.0 * width, sd)
        nodes, weights = leggauss(24)
        half = np.diff(edges)[:, None] / 2.0
        x = np.array(edges[:-1])[:, None] + half * (1.0 + nodes)
        return float((half * weights * x**m * self.pdf(x)).sum())


def exponential(mean: float) -> LimitDistribution:
    return LimitDistribution(kind="exponential", mean=mean)


def truncated_gaussian(mu0: float, var: float) -> LimitDistribution:
    return LimitDistribution(kind="truncated-gaussian", mu0=mu0, var=var)


def gaussian(var: float) -> LimitDistribution:
    return LimitDistribution(kind="gaussian", var=var)


def limit_for_regime(spec: RegimeSpec) -> tuple[LimitDistribution, LimitDistribution]:
    """(per-coordinate, scaled-total) limiting laws of the family."""
    sigma2, bar_sigma2 = limit_sigma2(spec)
    n = spec.n
    if spec.kind == "classic":
        return (
            exponential(sigma2 / (2.0 * n * spec.constant)),
            exponential(sigma2 / (2.0 * spec.constant)),
        )
    if spec.kind == "critical":
        return (
            truncated_gaussian(spec.constant / n, sigma2 / (2.0 * n**2)),
            truncated_gaussian(spec.constant, sigma2 / 2.0),
        )
    return (
        gaussian(bar_sigma2 / (2.0 * n**2)),
        gaussian(bar_sigma2 / 2.0),
    )


def critical_unused_limit(c_c: float, sigma2: float) -> float:
    """Limiting unused service per sqrt(gamma) slot in the critical family.

    Equals the reciprocal of the integral of
    exp(-s^2 sigma2 / 4 - c_c s) over s < 0, evaluated via the scaled
    complementary error function:

      integral = (sqrt(pi) / sigma) * exp(c_c^2 / sigma2) * (1 + erf(c_c / sigma))
               = (sqrt(pi) / sigma) * erfcx(-c_c / sigma).

    The erfcx form stays finite for every c_c: the erf form overflows for
    large positive c_c and cancels to 0 * inf for large negative c_c.
    """
    from scipy.special import erfcx
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    sigma = math.sqrt(sigma2)
    integral = (math.sqrt(math.pi) / sigma) * float(erfcx(-c_c / sigma))
    return 1.0 / integral
