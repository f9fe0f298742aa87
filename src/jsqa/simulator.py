"""Exact slot-by-slot evolution of the queue-length Markov chain, steady-state
sample collection, and the coupled-domination construction for the
single-queue case.

One slot, starting from queue vector q:
  d_i ~ Binomial(q_i, gamma) independently (abandonments, pre-slot state),
  the arrival batch a joins a queue of minimal pre-slot length (uniform ties),
  s_i ~ service law i, and
  q+_i = max(0, q_i + a*1{i=dest} - s_i - d_i),
with the unused service u_i making up the clamp, so q+_i * u_i = 0 always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counts import StateCounts, count_rows
from .errors import ConfigError, ResourceLimitError
from .model import RngStream, SystemConfig, require_valid, sample_many

__all__ = [
    "SamplingPlan",
    "SampleSet",
    "DominationReport",
    "GROUP_SIZE",
    "BLOCK",
    "step_many",
    "relaxation_slots",
    "default_plan",
    "plan_from_dict",
    "collect_steady_state",
    "simulate_coupled_domination",
]

# Replicas are simulated in vectorized groups of GROUP_SIZE rows, one random
# stream per group. Within a group the draws that do not depend on the state
# (arrivals, services, tie noise) come in blocks of BLOCK slots, one call per
# draw; only the abandonment binomial is drawn slot by slot. Both sizes fix
# the order in which each stream is consumed, so they are part of the
# (config, plan, seed) -> samples contract and are not options.
GROUP_SIZE = 256
BLOCK = 64

# Memory cap for collect_steady_state, in int64 cells (q plus per-sample totals).
MAX_SAMPLE_CELLS = 1 << 28


@dataclass(frozen=True)
class SamplingPlan:
    """How steady-state samples are gathered: per-replica warmup, retained
    sample count (total across replicas), slots between retained samples, and
    the number of independent replicas."""

    warmup_slots: int
    num_samples: int
    thinning: int
    replicas: int

    def check(self) -> None:
        if min(self.warmup_slots, self.num_samples, self.thinning, self.replicas) < 1:
            raise ConfigError("sampling plan fields must all be positive")
        if self.warmup_slots < self.thinning:
            raise ConfigError("warmup_slots must be >= thinning")

    def to_dict(self) -> dict:
        return {
            "warmup_slots": self.warmup_slots,
            "num_samples": self.num_samples,
            "thinning": self.thinning,
            "replicas": self.replicas,
        }


def plan_from_dict(obj: dict) -> SamplingPlan:
    try:
        return SamplingPlan(
            warmup_slots=int(obj["warmup_slots"]),
            num_samples=int(obj["num_samples"]),
            thinning=int(obj["thinning"]),
            replicas=int(obj["replicas"]),
        )
    except KeyError as exc:
        raise ConfigError(f"sampling plan is missing field {exc}") from exc


@dataclass
class SampleSet:
    """Column store of retained steady-state samples.

    `q` is (N, n); `u_total` is the unused-service total of the slot that
    produced each state. `batch` assigns each sample to a contiguous
    within-replica batch; batch spans are sized against the chain's
    relaxation time so batch means give honest standard errors. `counts` is
    the per-batch count table of the distinct rows of `q`, built on first
    use; `q` and `batch` must not change after that.
    """

    q: np.ndarray
    u_total: np.ndarray
    batch: np.ndarray
    config: SystemConfig
    plan: SamplingPlan
    seed: int

    def __len__(self) -> int:
        return self.q.shape[0]

    @property
    def n(self) -> int:
        return self.q.shape[1]

    @property
    def gamma(self) -> float:
        return self.config.gamma

    @property
    def num_batches(self) -> int:
        return int(self.batch.max()) + 1 if len(self) else 0

    def totals(self) -> np.ndarray:
        return self.q.sum(axis=1)

    @cached_property
    def counts(self) -> StateCounts:
        return count_rows(self.q, self.batch)


def relaxation_slots(config: SystemConfig) -> float:
    """Rough relaxation time of the chain, in slots.

    Underloaded chains equilibrate on the diffusive scale variance/drift^2;
    the abandonment restoring force acts on scale 1/gamma and is what matters
    at or above critical load.
    """
    gamma = config.gamma
    drift = config.drift
    t_abandon = 1.0 / gamma if gamma > 0 else math.inf
    if drift < 0:
        t_drift = max(config.variance, 1e-12) / drift**2
        return max(1.0, min(t_drift, t_abandon))
    return max(1.0, t_abandon)


def default_plan(
    config: SystemConfig,
    num_samples: int = 1_000_000,
    replicas: int = 64,
) -> SamplingPlan:
    """Sampling plan with warmup and thinning derived from the relaxation time."""
    relax = relaxation_slots(config)
    warmup = min(int(math.ceil(30.0 * relax)), 100_000_000)
    thinning = max(1, min(64, int(math.ceil(relax / 32.0))))
    return SamplingPlan(
        warmup_slots=max(warmup, thinning),
        num_samples=num_samples,
        thinning=thinning,
        replicas=replicas,
    )


def _batches_for(counts: np.ndarray, thinning: int, relax: float) -> np.ndarray:
    """Assign contiguous within-replica batch ids sized >= ~10 relaxation times."""
    min_span_samples = max(1, int(math.ceil(10.0 * relax / thinning)))
    ids = []
    next_id = 0
    for cnt in counts:
        b = max(1, min(32, cnt // min_span_samples))
        edges = np.linspace(0, cnt, b + 1).astype(np.int64)
        lab = np.repeat(np.arange(b) + next_id, np.diff(edges))
        ids.append(lab)
        next_id += b
    return np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)


def _draw_block(config: SystemConfig, gen: np.random.Generator, slots: int, rows: int):
    """The state-independent draws of `slots` consecutive slots for `rows`
    replicas: arrivals (slots, rows), services and tie noise (slots, rows, n)."""
    services = config.services
    a = sample_many(config.arrivals, gen, (slots, rows))
    if all(svc == services[0] for svc in services):
        s = sample_many(services[0], gen, (slots, rows, config.n))
    else:
        s = np.stack([sample_many(svc, gen, (slots, rows)) for svc in services], axis=2)
    noise = gen.random((slots, rows, config.n))
    return a, s, noise


def _slot(q, a, s, noise, offsets, gamma, gen, hook):
    """Advance the (replicas, n) state q by one slot, given that slot's arrivals,
    services and tie noise; `offsets` is arange(replicas) * n.

    Returns (q_next, pre, dest, d), where pre is the unclamped next state, so
    the unused service is q_next - pre.
    """
    d = gen.binomial(q, gamma)
    if hook is not None:
        d = hook(d, q)
    # adding U(0,1) noise keys the argmin on queue length first and breaks
    # integer ties uniformly
    dest = (q + noise).argmin(axis=1)
    pre = np.subtract(q, s, order="C")
    pre -= d
    # flat indexing into the C-ordered pre is cheaper than pre[rows, dest]
    pre.ravel()[offsets + dest] += a
    return np.maximum(pre, 0), pre, dest, d


def step_many(q: np.ndarray, config: SystemConfig, gen: np.random.Generator, hook=None):
    """Advance every row of the (replicas, n) state matrix by one slot.

    Returns (q_next, arrivals, destinations, services, abandonments, unused),
    all as arrays over replicas. `hook` may replace the abandonment matrix
    (test instrumentation).
    """
    r = q.shape[0]
    a, s, noise = _draw_block(config, gen, 1, r)
    offsets = np.arange(r) * config.n
    q_next, pre, dest, d = _slot(q, a[0], s[0], noise[0], offsets, config.gamma, gen, hook)
    return q_next, a[0], dest, s[0], d, q_next - pre


def _run_group(config, counts, warmup, thinning, stream, hook=None):
    """Simulate one vectorized group of replicas; returns their retained
    samples (q, u_total) stacked in replica order."""
    gen = stream.generator()
    r = len(counts)
    offsets = np.arange(r) * config.n
    ones = np.ones(config.n, dtype=np.int64)
    q = np.zeros((r, config.n), dtype=np.int64)
    max_count = int(counts.max())
    out_q = np.empty((max_count, r, config.n), dtype=np.int64)
    out_u = np.empty((max_count, r), dtype=np.int64)

    total = warmup + max_count * thinning
    for b0 in range(0, total, BLOCK):
        a, s, noise = _draw_block(config, gen, min(BLOCK, total - b0), r)
        for j in range(a.shape[0]):
            q, pre, _, _ = _slot(q, a[j], s[j], noise[j], offsets, config.gamma, gen, hook)
            # b0 + j + 1 slots have run; sample k (from 1) is retained once
            # that reaches warmup + k * thinning
            k, rem = divmod(b0 + j + 1 - warmup, thinning)
            if rem == 0 and k > 0:
                out_q[k - 1] = q
                # row sums as products with ones: cheaper than sum(axis=1)
                # on rows this narrow
                out_u[k - 1] = (q - pre) @ ones

    keep = np.arange(max_count)[None, :] < counts[:, None]
    return out_q.transpose(1, 0, 2)[keep], out_u.T[keep]


def collect_steady_state(
    config: SystemConfig,
    plan: SamplingPlan,
    seed: int,
    max_cells: int = MAX_SAMPLE_CELLS,
    abandonment_hook=None,
) -> SampleSet:
    """Run independent replicas from the empty state and collect thinned
    steady-state samples.

    Each replica discards `plan.warmup_slots` slots, then retains one state
    every `plan.thinning` slots; retained counts are split as evenly as
    possible across replicas so that exactly `plan.num_samples` samples come
    back, in replica order. Replicas run in groups of GROUP_SIZE, group g on
    RngStream(seed, g), so identical (config, plan, seed) always produce the
    identical sample set.

    `abandonment_hook` is test instrumentation: it may replace the sampled
    abandonment vector and deliberately corrupt the dynamics.
    """
    require_valid(config)
    plan.check()
    if plan.num_samples * (config.n + 1) > max_cells:
        raise ResourceLimitError(
            f"plan retains {plan.num_samples} samples x {config.n + 1} cells, "
            f"exceeding the cap of {max_cells} cells"
        )

    base, rem = divmod(plan.num_samples, plan.replicas)
    counts = np.full(plan.replicas, base, dtype=np.int64)
    counts[:rem] += 1
    counts = counts[counts > 0]

    results = [
        _run_group(
            config, counts[g0 : g0 + GROUP_SIZE], plan.warmup_slots, plan.thinning,
            RngStream(seed, g0 // GROUP_SIZE), hook=abandonment_hook,
        )
        for g0 in range(0, len(counts), GROUP_SIZE)
    ]
    q = np.concatenate([r[0] for r in results])
    u = np.concatenate([r[1] for r in results])
    batch = _batches_for(counts, plan.thinning, relaxation_slots(config))
    return SampleSet(q=q, u_total=u, batch=batch, config=config, plan=plan, seed=seed)


@dataclass(frozen=True)
class DominationReport:
    """Result of running the three coupled chains with shared randomness.

    `mean_queue` is the time average of the middle (unmodified) chain over
    the checked slots, 0.0 for an empty horizon.
    """

    slots_checked: int
    violations: int
    max_violation: int
    mean_queue: float

    @property
    def holds(self) -> bool:
        return self.violations == 0


def _mark_gaps(gen: np.random.Generator, gamma: float, chunk: int):
    """Endless stream of Geometric(gamma) gaps, drawn `chunk` at a time."""
    while True:
        yield from gen.geometric(gamma, chunk).tolist()


def simulate_coupled_domination(
    config: SystemConfig,
    c_tilde: float,
    horizon: int,
    seed: int,
) -> DominationReport:
    """Run the single-queue chain together with two coupled chains and check
    the sandwich ordering lower <= q <= upper at every slot.

    All three chains share the same arrival and service draws and the same
    sequence of per-job abandonment marks. The upper chain exposes at most
    floor(c_tilde / gamma) jobs to the marks, the lower chain at least
    ceil(c_tilde / gamma). With shared marks the per-slot abandonment gap
    between two chains never exceeds their queue gap, so the ordering holds
    path by path, not just in distribution.

    Within a slot the marks are i.i.d. Bernoulli(gamma) over job positions
    1, 2, ..., so the marked positions form a renewal sequence with
    Geometric(gamma) gaps. Each slot walks that sequence until it passes the
    largest exposed head count and discards the overshooting gap, which by
    memorylessness leaves the next slot a fresh start; a chain's abandonments
    are the marked positions at or below its own head count. A slot thus
    costs O(1 + gamma * heads) with no numpy call.
    """
    require_valid(config)
    if config.n != 1:
        raise ConfigError("coupled domination is defined for single-queue systems only")
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    gamma = config.gamma
    if not math.isfinite(c_tilde / gamma):
        raise ConfigError(f"c_tilde must be finite, as must c_tilde / gamma; got {c_tilde}")
    cap_heads = max(0, math.floor(c_tilde / gamma))
    floor_heads = max(0, math.ceil(c_tilde / gamma))

    gen = RngStream(seed, 0).generator()
    chunk = 1 << 14
    next_gap = _mark_gaps(gen, gamma, chunk).__next__
    q = q_hi = q_lo = 0
    violations = 0
    max_violation = 0
    queue_sum = 0
    done = 0
    while done < horizon:
        m = min(chunk, horizon - done)
        a = sample_many(config.arrivals, gen, m).tolist()
        s = sample_many(config.services[0], gen, m).tolist()
        for a_t, s_t in zip(a, s):
            # conditional expressions rather than min/max calls: this loop
            # runs once per slot in pure Python
            h_hi = q_hi if q_hi < cap_heads else cap_heads
            h_lo = q_lo if q_lo > floor_heads else floor_heads
            top = q if q > h_hi else h_hi
            if h_lo > top:
                top = h_lo
            c = a_t - s_t
            d_mid = d_hi = d_lo = 0
            pos = next_gap()
            while pos <= top:
                d_mid += pos <= q
                d_hi += pos <= h_hi
                d_lo += pos <= h_lo
                pos += next_gap()
            q += c - d_mid
            if q < 0:
                q = 0
            q_hi += c - d_hi
            if q_hi < 0:
                q_hi = 0
            q_lo += c - d_lo
            if q_lo < 0:
                q_lo = 0
            queue_sum += q
            if not q_lo <= q <= q_hi:
                violations += 1
                max_violation = max(max_violation, q_lo - q, q - q_hi)
        done += m
    return DominationReport(
        slots_checked=horizon,
        violations=violations,
        max_violation=max_violation,
        mean_queue=queue_sum / horizon if horizon else 0.0,
    )
