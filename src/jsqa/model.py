"""Core model types: bounded integer distributions, system configuration,
and the reproducible random-stream contract.

Every arrival/service law is an integer-valued distribution with bounded
support, so all first and second moments used by the limit formulas are
available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, as_int, parsing

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
]


# Cells of each law's inversion guide table (`BoundedDistribution.guide`).
GUIDE = 4096

# Per kind: the JSON field that holds the law's size, and whether the law has
# a success probability (a constant's is 1).
KINDS = {
    "constant": ("value", False),
    "bernoulli-scaled": ("support-point", True),
    "binomial": ("trial-count", True),
}


@dataclass(frozen=True)
class BoundedDistribution:
    """An integer law on {0, ..., size}.

    `size` is the constant value (kind "constant"), the one nonzero support
    point, taken with probability `success_probability` (kind
    "bernoulli-scaled", which models a batch that joins one queue whole), or
    the trial count of a Binomial(size, success_probability) (kind
    "binomial").
    """

    kind: str
    size: int
    success_probability: float = 1.0

    @property
    def bound(self) -> int:
        """The largest value the law can take."""
        return self.size

    @property
    def mean(self) -> float:
        return self.size * self.success_probability

    @property
    def variance(self) -> float:
        p = self.success_probability
        spread = self.size if self.kind == "binomial" else self.size**2
        return spread * p * (1.0 - p)

    def pmf(self) -> np.ndarray:
        """Probabilities of 0, ..., size."""
        m, prob = self.size, self.success_probability
        if self.kind == "binomial":
            from scipy.special import gammaln, xlog1py, xlogy  # loaded on first use
            # in logs: the binomial coefficients overflow a double from 1030
            # trials on
            k = np.arange(m + 1)
            return np.exp(
                gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
                + xlogy(k, prob) + xlog1py(m - k, -prob)
            )
        out = np.zeros(m + 1)
        out[0] = 1.0 - prob
        out[m] += prob
        return out

    @cached_property
    def cdf(self) -> np.ndarray:
        """The CDF on 0..top, top the largest value of positive mass. Its last
        entry is exactly 1, so no uniform in [0, 1) is inverted past top."""
        pmf = self.pmf()
        cdf = np.minimum(np.cumsum(pmf[: np.flatnonzero(pmf)[-1] + 1]), 1.0)
        cdf[-1] = 1.0
        return cdf

    @cached_property
    def guide(self) -> np.ndarray:
        """Indexed-search table of `cdf` (Chen and Asau 1974; Devroye 1986,
        section III.2.4): entry c is the inverse of every uniform in
        [c/GUIDE, (c+1)/GUIDE), or -1 where that cell holds a CDF value, so
        the inverse differs across it."""
        edges = np.arange(GUIDE + 1) / GUIDE
        lo = self.cdf.searchsorted(edges[:-1], side="right")
        split = self.cdf.searchsorted(edges[1:], side="left") > lo
        return np.where(split, -1, lo)

    def to_dict(self) -> dict:
        key, has_probability = KINDS[self.kind]
        out = {"kind": self.kind, key: self.size}
        if has_probability:
            out["success-probability"] = self.success_probability
        return out


def Constant(value: int) -> BoundedDistribution:
    """Degenerate law: always `value`."""
    return BoundedDistribution("constant", value)


def BernoulliScaled(support_point: int, success_probability: float) -> BoundedDistribution:
    """`support_point` with probability `success_probability`, else 0."""
    return BoundedDistribution("bernoulli-scaled", support_point, success_probability)


def Binomial(trial_count: int, success_probability: float) -> BoundedDistribution:
    """Binomial(`trial_count`, `success_probability`) on {0, ..., trial_count}."""
    return BoundedDistribution("binomial", trial_count, success_probability)


def distribution_from_dict(obj: dict) -> BoundedDistribution:
    """Build a bounded distribution from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"distribution must be an object with a 'kind' key, got {obj!r}")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"unknown distribution kind {kind!r}")
    key, has_probability = KINDS[kind]
    with parsing(f"distribution of kind {kind!r}"):
        return BoundedDistribution(
            kind,
            as_int(obj[key]),
            float(obj["success-probability"]) if has_probability else 1.0,
        )


def _distribution_violations(dist: BoundedDistribution, label: str) -> list[str]:
    if dist.kind not in KINDS:
        return [f"{label}: unknown distribution kind {dist.kind!r}"]
    key = KINDS[dist.kind][0]
    out = []
    if dist.size < 0:
        out.append(f"{label}: {key} must be >= 0")
    if not 0.0 <= dist.success_probability <= 1.0:
        out.append(f"{label}: success-probability out of [0,1]")
    return out


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one system: per-slot abandonment probability,
    arrival law, and one service law per queue.

    `gamma` is the probability that each waiting job independently leaves
    during a slot; abandonment totals are Binomial(q_i, gamma) and are sampled
    inside the simulator because they depend on the state.
    """

    gamma: float
    arrivals: BoundedDistribution
    services: tuple[BoundedDistribution, ...]

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))

    @property
    def n(self) -> int:
        """Number of queues: one per service law."""
        return len(self.services)

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
    """Build a config from its JSON object form, whose `n` must equal the
    number of service laws."""
    with parsing("config"):
        n = as_int(obj["n"])
        services = obj["services"]
        if not isinstance(services, list):
            raise ConfigError("'services' must be a list of distribution objects")
        if n != len(services):
            raise ConfigError(f"config has n={n} but {len(services)} service laws")
        return SystemConfig(
            gamma=float(obj["gamma"]),
            arrivals=distribution_from_dict(obj["arrivals"]),
            services=tuple(distribution_from_dict(s) for s in services),
        )


@dataclass(frozen=True)
class RngStream:
    """Random stream identified by (seed, stream_id): a PCG64DXSM bit
    generator seeded from SeedSequence(seed, spawn_key=(stream_id,)).

    Equal (seed, stream_id) pairs always produce the same sequence; distinct
    stream ids give statistically independent sequences from one seed. The
    simulator draws all replicas of a run from RngStream(seed, 0), and gamma
    points differ by seed, so it needs no other id.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64DXSM(ss))


def sample_many(dist: BoundedDistribution, gen: np.random.Generator, size) -> np.ndarray:
    """Draw `size` values from `dist` as an int64 array by inversion: one
    uniform from `gen` per value, mapped through the inverse of `dist.cdf`.

    Each uniform is looked up in `dist.guide`; only those in split cells
    search the CDF. GUIDE is a power of two, so u * GUIDE and the cell edges
    are exact and the result equals `dist.cdf.searchsorted(u, side="right")`.
    """
    u = gen.random(size)
    out = dist.guide.take((u * GUIDE).astype(np.intp))
    split = out < 0
    if split.any():
        out[split] = dist.cdf.searchsorted(u[split], side="right")
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of config validation: the violated invariants, if any."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(config: SystemConfig) -> ValidationReport:
    """Check every config invariant. Never raises: returns the list of
    violated invariants."""
    violations: list[str] = []
    if not config.services:
        violations.append("at least one service law is needed")
    if not 0.0 < config.gamma <= 1.0:
        violations.append("gamma out of (0,1]")
    violations.extend(_distribution_violations(config.arrivals, "arrivals"))
    for i, svc in enumerate(config.services):
        violations.extend(_distribution_violations(svc, f"services[{i}]"))

    if not np.isfinite(config.drift):
        violations.append("derived drift is not finite")
    if config.variance < 0:
        violations.append("derived variance is negative")
    return ValidationReport(tuple(violations))


def require_valid(config: SystemConfig) -> ValidationReport:
    """Validate and raise ConfigError on any violation."""
    report = validate(config)
    if not report.ok:
        raise ConfigError("; ".join(report.violations))
    return report
