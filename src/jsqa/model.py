"""Core model types: bounded integer distributions, system configuration,
and the reproducible random-stream contract.

Every arrival/service law is an integer-valued distribution with bounded
support, so all first and second moments used by the limit formulas are
available in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "Constant",
    "BernoulliScaled",
    "Binomial",
    "BoundedDistribution",
    "SystemConfig",
    "RngStream",
    "ValidationReport",
    "validate",
    "sample_many",
    "distribution_from_dict",
    "config_from_dict",
    "config_from_json",
]


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution: always `value`."""

    value: int
    bound: int = -1

    def __post_init__(self):
        if self.bound < 0:
            object.__setattr__(self, "bound", self.value)

    @property
    def kind(self) -> str:
        return "constant"

    @property
    def mean(self) -> float:
        return float(self.value)

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return int(self.value)
        return np.full(size, self.value, dtype=np.int64)

    def pmf(self) -> np.ndarray:
        p = np.zeros(self.bound + 1)
        p[self.value] = 1.0
        return p

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": self.value, "bound": self.bound}


@dataclass(frozen=True)
class BernoulliScaled:
    """Takes `support_point` with probability `success_probability`, else 0.

    Models batched arrivals: the whole batch joins one queue.
    """

    support_point: int
    success_probability: float
    bound: int = -1

    def __post_init__(self):
        if self.bound < 0:
            object.__setattr__(self, "bound", self.support_point)

    @property
    def kind(self) -> str:
        return "bernoulli-scaled"

    @property
    def mean(self) -> float:
        return self.support_point * self.success_probability

    @property
    def variance(self) -> float:
        p = self.success_probability
        return self.support_point**2 * p * (1.0 - p)

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return int(self.support_point) if rng.random() < self.success_probability else 0
        hits = rng.random(size) < self.success_probability
        return hits.astype(np.int64) * self.support_point

    def pmf(self) -> np.ndarray:
        p = np.zeros(self.bound + 1)
        p[0] = 1.0 - self.success_probability
        p[self.support_point] += self.success_probability
        return p

    def to_dict(self) -> dict:
        return {
            "kind": "bernoulli-scaled",
            "support-point": self.support_point,
            "success-probability": self.success_probability,
            "bound": self.bound,
        }


@dataclass(frozen=True)
class Binomial:
    """Binomial(`trial_count`, `success_probability`) on {0, ..., trial_count}."""

    trial_count: int
    success_probability: float
    bound: int = -1

    def __post_init__(self):
        if self.bound < 0:
            object.__setattr__(self, "bound", self.trial_count)

    @property
    def kind(self) -> str:
        return "binomial"

    @property
    def mean(self) -> float:
        return self.trial_count * self.success_probability

    @property
    def variance(self) -> float:
        p = self.success_probability
        return self.trial_count * p * (1.0 - p)

    def sample(self, rng: np.random.Generator, size=None):
        out = rng.binomial(self.trial_count, self.success_probability, size=size)
        if size is None:
            return int(out)
        return out.astype(np.int64)

    def pmf(self) -> np.ndarray:
        from scipy.stats import binom

        p = np.zeros(self.bound + 1)
        p[: self.trial_count + 1] = binom.pmf(
            np.arange(self.trial_count + 1), self.trial_count, self.success_probability
        )
        return p

    def to_dict(self) -> dict:
        return {
            "kind": "binomial",
            "trial-count": self.trial_count,
            "success-probability": self.success_probability,
            "bound": self.bound,
        }


BoundedDistribution = Union[Constant, BernoulliScaled, Binomial]


def distribution_from_dict(obj: dict) -> BoundedDistribution:
    """Build a bounded distribution from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"distribution must be an object with a 'kind' key, got {obj!r}")
    kind = obj["kind"]
    bound = int(obj.get("bound", -1))
    try:
        if kind == "constant":
            return Constant(value=int(obj["value"]), bound=bound)
        if kind == "bernoulli-scaled":
            return BernoulliScaled(
                support_point=int(obj["support-point"]),
                success_probability=float(obj["success-probability"]),
                bound=bound,
            )
        if kind == "binomial":
            return Binomial(
                trial_count=int(obj["trial-count"]),
                success_probability=float(obj["success-probability"]),
                bound=bound,
            )
    except KeyError as exc:
        raise ConfigError(f"distribution of kind {kind!r} is missing field {exc}") from exc
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _distribution_violations(dist: BoundedDistribution, label: str) -> list[str]:
    out = []
    if dist.bound < 0:
        out.append(f"{label}: bound must be a non-negative integer")
    if isinstance(dist, Constant):
        if dist.value < 0:
            out.append(f"{label}: constant value must be >= 0")
        elif dist.value > dist.bound:
            out.append(f"{label}: constant value exceeds bound")
    elif isinstance(dist, BernoulliScaled):
        if dist.support_point < 0:
            out.append(f"{label}: support-point must be >= 0")
        elif dist.support_point > dist.bound:
            out.append(f"{label}: support-point exceeds bound")
        if not 0.0 <= dist.success_probability <= 1.0:
            out.append(f"{label}: success-probability out of [0,1]")
    elif isinstance(dist, Binomial):
        if dist.trial_count < 0:
            out.append(f"{label}: trial-count must be >= 0")
        elif dist.trial_count > dist.bound:
            out.append(f"{label}: trial-count exceeds bound")
        if not 0.0 <= dist.success_probability <= 1.0:
            out.append(f"{label}: success-probability out of [0,1]")
    else:
        out.append(f"{label}: unknown distribution type {type(dist).__name__}")
    return out


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one system: queue count, per-slot abandonment
    probability, arrival law, and one service law per queue.

    `gamma` is the probability that each waiting job independently leaves
    during a slot; abandonment totals are Binomial(q_i, gamma) and are sampled
    inside the simulator because they depend on the state.
    """

    n: int
    gamma: float
    arrivals: BoundedDistribution
    services: tuple[BoundedDistribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))

    @property
    def drift(self) -> float:
        """Mean arrivals minus total mean service per slot."""
        return self.arrivals.mean - sum(s.mean for s in self.services)

    @property
    def variance(self) -> float:
        """Arrival variance plus the sum of service variances."""
        return self.arrivals.variance + sum(s.variance for s in self.services)

    @property
    def bound(self) -> int:
        """Joint bound on arrivals and any single service draw."""
        return max([self.arrivals.bound] + [s.bound for s in self.services])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": self.gamma,
            "arrivals": self.arrivals.to_dict(),
            "services": [s.to_dict() for s in self.services],
        }


def config_from_dict(obj: dict) -> SystemConfig:
    for key in ("n", "gamma", "arrivals", "services"):
        if key not in obj:
            raise ConfigError(f"config is missing required key {key!r}")
    services = obj["services"]
    if not isinstance(services, list):
        raise ConfigError("'services' must be a list of distribution objects")
    return SystemConfig(
        n=int(obj["n"]),
        gamma=float(obj["gamma"]),
        arrivals=distribution_from_dict(obj["arrivals"]),
        services=tuple(distribution_from_dict(s) for s in services),
    )


def config_from_json(text: str) -> SystemConfig:
    return config_from_dict(json.loads(text))


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, stream_id).

    Equal (seed, stream_id) pairs always produce the same sequence; distinct
    stream ids give statistically independent sequences, so parallel replicas
    stay reproducible without shared state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


def sample_many(dist: BoundedDistribution, gen: np.random.Generator, size) -> np.ndarray:
    """Draw `size` values from `dist` as an int64 array, advancing `gen`."""
    return dist.sample(gen, size)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of config validation plus the derived drift quantities."""

    ok: bool
    violations: tuple[str, ...]
    drift: float
    variance: float
    ssc_condition: bool = field(default=False)

    def __bool__(self) -> bool:
        return self.ok


def validate(config: SystemConfig) -> ValidationReport:
    """Check every config invariant and report derived quantities.

    Never raises: returns the list of violated invariants, the derived drift
    and variance, and whether the state-space-collapse condition
    drift >= -(1/2) * n * min service mean holds.
    """
    violations: list[str] = []
    if config.n < 1:
        violations.append("n must be >= 1")
    if not 0.0 < config.gamma <= 1.0:
        violations.append("gamma out of (0,1]")
    if config.n >= 1 and len(config.services) != config.n:
        violations.append(
            f"length mismatch: {len(config.services)} service distributions for n={config.n}"
        )
    violations.extend(_distribution_violations(config.arrivals, "arrivals"))
    for i, svc in enumerate(config.services):
        violations.extend(_distribution_violations(svc, f"services[{i}]"))

    drift = config.drift
    variance = config.variance
    if not np.isfinite(drift):
        violations.append("derived drift is not finite")
    if variance < 0:
        violations.append("derived variance is negative")

    ssc_condition = False
    if config.services:
        mu_min = min(s.mean for s in config.services)
        ssc_condition = drift >= -0.5 * config.n * mu_min
    return ValidationReport(
        ok=not violations,
        violations=tuple(violations),
        drift=drift,
        variance=variance,
        ssc_condition=ssc_condition,
    )


def require_valid(config: SystemConfig) -> ValidationReport:
    """Validate and raise ConfigError on any violation."""
    report = validate(config)
    if not report.ok:
        raise ConfigError("; ".join(report.violations))
    return report
