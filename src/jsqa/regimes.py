"""One-parameter config families indexed by the abandonment probability, and
the matching scaling/centering transform for tables of queue vectors.

Each family holds the service laws fixed and moves only the arrival mean, so
the per-slot drift hits the target of its regime exactly:

  classic:     drift = -constant * gamma^alpha   (underloaded, alpha in (0, 1/2))
  critical:    drift =  constant * sqrt(gamma)
  overloaded:  drift =  constant * gamma^alpha   (constant > 0, alpha in [0, 1/2))

Arrivals are Binomial(bound, lam/bound) with lam = drift + total service mean,
which keeps the arrival variance available in closed form along the sweep.

`scale` maps a per-batch count table of raw queue vectors (`jsqa.counts`):
a sample set's `counts` or the exact law from `oracle.exact_law`. Every
scaled statistic is a function of the queue state, so the scaled rows share
the raw table and batch sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .counts import StateCounts
from .errors import ConfigError, as_int, parsing
from .model import Binomial, BoundedDistribution, SystemConfig, distribution_from_dict

__all__ = [
    "RegimeSpec",
    "regime_drift",
    "build_config",
    "scale",
    "limit_sigma2",
    "regime_from_dict",
]

KINDS = ("classic", "critical", "overloaded")


@dataclass(frozen=True)
class RegimeSpec:
    """One asymptotic family: regime kind, drift constant, drift exponent,
    fixed service templates, and the arrival support bound."""

    kind: str
    constant: float
    alpha: float
    base_services: tuple[BoundedDistribution, ...]
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "base_services", tuple(self.base_services))
        if self.kind not in KINDS:
            raise ConfigError(f"regime kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "classic":
            if not (self.constant > 0 and 0.0 < self.alpha < 0.5):
                raise ConfigError("classic regime needs constant > 0 and alpha in (0, 1/2)")
        elif self.kind == "critical":
            if self.alpha != 0.5:
                raise ConfigError("critical regime fixes alpha = 1/2")
        else:
            if not (self.constant > 0 and 0.0 <= self.alpha < 0.5):
                raise ConfigError("overloaded regime needs constant > 0 and alpha in [0, 1/2)")
        if not self.base_services:
            raise ConfigError("base_services must not be empty")
        if self.bound < 1:
            raise ConfigError("bound must be a positive integer")

    @property
    def n(self) -> int:
        return len(self.base_services)

    @property
    def total_service_mean(self) -> float:
        return sum(s.mean for s in self.base_services)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "constant": self.constant,
            "alpha": self.alpha,
            "base_services": [s.to_dict() for s in self.base_services],
            "bound": self.bound,
        }


def regime_from_dict(obj: dict) -> RegimeSpec:
    with parsing("regime spec"):
        return RegimeSpec(
            kind=str(obj["kind"]),
            constant=float(obj["constant"]),
            alpha=float(obj["alpha"]),
            base_services=tuple(distribution_from_dict(s) for s in obj["base_services"]),
            bound=as_int(obj["bound"]),
        )


def regime_drift(spec: RegimeSpec, gamma: float) -> float:
    """Target per-slot drift of the family member at `gamma`."""
    if spec.kind == "classic":
        return -spec.constant * gamma**spec.alpha
    if spec.kind == "critical":
        return spec.constant * math.sqrt(gamma)
    return spec.constant * gamma**spec.alpha


def build_config(spec: RegimeSpec, gamma: float) -> SystemConfig:
    """Config whose drift equals the regime target exactly at `gamma`."""
    if not 0.0 < gamma < 1.0:
        raise ConfigError("gamma must lie in (0, 1)")
    lam = regime_drift(spec, gamma) + spec.total_service_mean
    if not 0.0 < lam <= spec.bound:
        raise ConfigError(
            f"arrival mean {lam:.6g} falls outside (0, {spec.bound}] at gamma={gamma:g}"
        )
    arrivals = Binomial(trial_count=spec.bound, success_probability=lam / spec.bound)
    return SystemConfig(gamma=gamma, arrivals=arrivals, services=spec.base_services)


def scaling_exponent(spec: RegimeSpec) -> float:
    """Exponent e such that gamma^e multiplies the (centered) queue lengths."""
    return spec.alpha if spec.kind == "classic" else 0.5


def center_per_queue(spec: RegimeSpec, gamma: float) -> float:
    """Per-queue centering subtracted before scaling (overloaded only)."""
    if spec.kind != "overloaded":
        return 0.0
    return regime_drift(spec, gamma) / (spec.n * gamma)


def scale(counts: StateCounts, spec: RegimeSpec, gamma: float) -> StateCounts:
    """The regime's scaling (and centering) at `gamma` applied to a count
    table of raw queue vectors: the same table and batch sizes, with each
    distinct state q mapped to gamma^e * (q - center)."""
    factor = gamma ** scaling_exponent(spec)
    return replace(counts, rows=factor * (counts.rows - center_per_queue(spec, gamma)))


def limit_sigma2(spec: RegimeSpec) -> tuple[float, float]:
    """Limits (sigma2, bar_sigma2) of the per-slot variance as gamma -> 0.

    The arrival mean tends to the total service mean except in the overloaded
    family with alpha = 0, where the limiting drift stays at `constant`;
    bar_sigma2 adds that limiting drift.
    """
    drift_limit = spec.constant if (spec.kind == "overloaded" and spec.alpha == 0.0) else 0.0
    lam = spec.total_service_mean + drift_limit
    arrivals = Binomial(trial_count=spec.bound, success_probability=lam / spec.bound)
    sigma2 = arrivals.variance + sum(s.variance for s in spec.base_services)
    return sigma2, sigma2 + drift_limit
