"""Exact slot-by-slot evolution of the queue-length Markov chain, steady-state
sample collection, and the coupled-domination construction for the
single-queue case.

One slot, starting from queue vector q:
  d_i ~ Binomial(q_i, gamma) independently (abandonments, pre-slot state),
  the arrival batch a joins a queue of minimal pre-slot length (uniform ties),
  s_i ~ service law i, and
  q+_i = max(0, q_i + a*1{i=dest} - s_i - d_i),
with the unused service u_i making up the clamp, so q+_i * u_i = 0 always.

The abandonments of queue i are the marked positions among its q_i jobs in
an i.i.d. Bernoulli(gamma) marking, read as a renewal sequence with
Geometric(gamma) gaps. Each cell (replica, queue) carries the position of
its next mark, counted from the first job of the current slot, from one slot
to the next (see `_abandon`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counts import StateCounts, count_rows
from .errors import ConfigError, ResourceLimitError, as_int, parsing
from .model import RngStream, SystemConfig, require_valid, sample_many

__all__ = [
    "SamplingPlan",
    "SampleSet",
    "DominationReport",
    "BLOCK",
    "BLOCK_ROWS",
    "step_many",
    "relaxation_slots",
    "default_plan",
    "plan_from_dict",
    "collect_steady_state",
    "simulate_coupled_domination",
]

# The replicas are simulated as one (replicas, n) state matrix on one random
# stream. Its first draw is each cell's first abandonment mark; then the draws
# that do not depend on the state (arrivals, services, tie noise) come in
# blocks of slots, one call per law and one for the noise, and only the fresh
# mark gaps of the cells that abandon are drawn slot by slot. A block is
# BLOCK slots, fewer where that would pass BLOCK_ROWS row-slots, and at
# least one. Both sizes fix the order in which the stream is consumed, so
# they are part of the (config, plan, seed) -> samples contract and are not
# options.
BLOCK = 64
BLOCK_ROWS = 1 << 14

# Retained samples are counted into the batch table as they are simulated.
# They are written into a buffer of at most FLUSH_SAMPLES retained samples
# (one slot's worth if the replicas are more), and each time a batch of
# either replica class ends, or the buffer fills, its samples are counted into
# (batch, state, count) entries. The buffer's size changes when the samples
# are counted, not which samples or batches there are, so it is not part of
# the (config, plan, seed) -> samples contract.
FLUSH_SAMPLES = 1 << 18

# A flush is counted on a dense (replica, state) grid over its bounding box
# of states when the grid holds at most DENSE_CELLS_PER_SAMPLE cells per
# sample of the flush, else by a sort (`count_rows`).
DENSE_CELLS_PER_SAMPLE = 4

# Memory cap for collect_steady_state, in 8-byte cells: 3n + 8 per retained
# sample, plus per replica one slot's working arrays and its rows of one draw
# block. The samples' share bounds the worst case, one entry per sample: the
# entry store holds n + 2 cells per entry, its merge into the table
# (`count_rows`) builds the table and its distinct rows on top, and a flush's
# buffer, codes and grid, freed before the merge, stay below that. Under
# tracemalloc, for n = 1..4 and flushes counted either way, such collections
# peak at 3n + 7.0 to 3n + 7.8 cells per sample. A slot's arrays (state,
# marks and temporaries) peak at 6n + 2 cells per replica and a block's
# draws at 2n + 2 per row-slot, counted here as 6 (n + 1) and 2 (n + 1).
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
    with parsing("sampling plan"):
        return SamplingPlan(
            warmup_slots=as_int(obj["warmup_slots"]),
            num_samples=as_int(obj["num_samples"]),
            thinning=as_int(obj["thinning"]),
            replicas=as_int(obj["replicas"]),
        )


@dataclass
class SampleSet:
    """Retained steady-state samples, kept as the statistics the estimators
    read.

    `counts` is the per-batch count table of the distinct retained states
    (`jsqa.counts`). A batch is a run of consecutive retained samples of one
    replica, its span sized against the chain's relaxation time so that
    batch means give honest standard errors. `batch_u_mean` holds each
    batch's mean of the unused-service total of the slots that produced its
    samples. No per-sample array is kept: `collect_steady_state` counts the
    samples into the table as they are simulated, and `from_arrays` builds a
    set from per-sample columns gathered elsewhere.
    """

    counts: StateCounts
    batch_u_mean: np.ndarray
    config: SystemConfig

    @classmethod
    def from_arrays(cls, q, u_total, batch, config: SystemConfig) -> SampleSet:
        """The sample set of per-sample columns: the states `q` (N, n), the
        unused-service total `u_total` of the slot that produced each, and
        their batch labels `batch`. The columns must have equal lengths, and
        the labels must be 0..B-1, each holding at least one sample (a label
        with no sample would make every batch mean of it 0/0); `count_rows`
        checks them and raises ConfigError. No statistic depends on the order
        of the samples."""
        if not len(q) == len(u_total) == len(batch):
            raise ConfigError(
                f"q, u_total and batch must have equal lengths, not "
                f"{len(q)}, {len(u_total)} and {len(batch)}"
            )
        counts = count_rows(q, batch)
        return cls(counts, np.bincount(batch, weights=u_total) / counts.sizes, config)

    def __len__(self) -> int:
        return int(self.counts.sizes.sum())

    @property
    def q(self) -> np.ndarray:
        """The retained states (N, n): the table's distinct rows, each
        repeated by its pooled count, in state order. The order they were
        simulated in is not kept."""
        return np.repeat(self.counts.rows, self.counts.pooled.astype(np.int64), axis=0)

    @property
    def gamma(self) -> float:
        return self.config.gamma


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


def _batches_for(counts: np.ndarray, thinning: int, relax: float):
    """How the retained samples fall into batches, where replica i retains
    counts[i] samples: returns (edges, which, first).

    Each replica's samples are split into contiguous runs of its retained
    index, sized >= ~10 relaxation times, and the batches are numbered
    replica by replica. A replica's split depends only on its count, so it is
    worked out once per distinct count (at most two): replica i's batches
    start at the retained indices edges[which[i]][:-1], the last entry being
    its count, and its batches are first[i] .. first[i + 1] - 1.
    """
    min_span_samples = max(1, int(math.ceil(10.0 * relax / thinning)))
    values, which = np.unique(counts, return_inverse=True)
    per_value = np.clip(values // min_span_samples, 1, 32)
    first = np.concatenate(([0], np.cumsum(per_value[which])))
    edges = [np.linspace(0, cnt, b + 1).astype(np.int64) for cnt, b in zip(values, per_value)]
    return edges, which, first


def _draw_block(config: SystemConfig, gen: np.random.Generator, slots: int, rows: int):
    """The state-independent draws of `slots` consecutive slots for `rows`
    replicas: arrivals (slots, rows), then services queue by queue and tie
    noise, both (slots, rows, n)."""
    a = sample_many(config.arrivals, gen, (slots, rows))
    s = np.dstack([sample_many(svc, gen, (slots, rows)) for svc in config.services])
    noise = gen.random((slots, rows, config.n))
    return a, s, noise


def _abandon(q, marks, gamma, gen):
    """Abandonments of the (replicas, n) state q in one slot, read from the
    per-cell mark positions `marks` (each >= 1, counted from the cell's first
    job), which are advanced in place to the next slot's.

    A cell whose next mark lies at or below q loses that job and draws the
    gap to its following mark, until its next mark lies beyond q. The marks
    beyond q are unread Bernoulli(gamma) positions, so by memorylessness the
    overshoot is a fresh Geometric(gamma) start for the next slot. A slot
    costs one pass per abandonment of its busiest cell, plus one.
    """
    marks -= q
    hit = marks <= 0
    d = hit.astype(np.int64)
    idx = hit.ravel().nonzero()[0]
    if idx.size:
        # both arrays are C-ordered, so ravel() is a view
        flat, d_flat = marks.ravel(), d.ravel()
        while True:
            flat[idx] += gen.geometric(gamma, idx.size)
            idx = idx[flat[idx] <= 0]
            if not idx.size:
                break
            d_flat[idx] += 1
    return d


def _shortest(key):
    """The shortest queue of each row: its first column of least `key`, the
    queue lengths plus U(0,1) tie noise, so the pick goes by length first and
    breaks integer ties uniformly. argmin keeps the first minimum; one queue
    needs no pick and two take one strict < comparison, both faster."""
    if key.shape[1] == 1:
        return np.zeros(len(key), dtype=np.intp)
    if key.shape[1] == 2:
        return (key[:, 1] < key[:, 0]).astype(np.intp)
    return key.argmin(axis=1)


def _slot(q, a, s, noise, offsets, marks, gamma, gen):
    """Advance the (replicas, n) state q by one slot, given that slot's arrivals,
    services and tie noise and the cells' next abandonment marks (advanced in
    place); `offsets` is arange(replicas) * n.

    Returns (q_next, pre, dest, d), where pre is the unclamped next state, so
    the unused service is q_next - pre.
    """
    d = _abandon(q, marks, gamma, gen)
    dest = _shortest(q + noise)
    pre = np.subtract(q, s, order="C")
    pre -= d
    # flat indexing into the C-ordered pre is cheaper than pre[rows, dest]
    pre.ravel()[offsets + dest] += a
    return np.maximum(pre, 0), pre, dest, d


def _first_marks(gamma, gen, shape):
    """Each cell's first mark position, Geometric(gamma); with gamma = 0 no
    job is ever marked, so the mark sits beyond every queue length."""
    if gamma == 0:
        return np.full(shape, np.iinfo(np.int64).max)
    return gen.geometric(gamma, shape)


def step_many(q: np.ndarray, config: SystemConfig, gen: np.random.Generator):
    """Advance every row of the (replicas, n) state matrix by one slot.

    Returns (q_next, arrivals, destinations, services, abandonments, unused),
    all as arrays over replicas. Each call draws fresh abandonment marks, which
    is exact for one slot; only `collect_steady_state` carries marks across
    slots.
    """
    r = q.shape[0]
    a, s, noise = _draw_block(config, gen, 1, r)
    offsets = np.arange(r) * config.n
    marks = _first_marks(config.gamma, gen, q.shape)
    q_next, pre, dest, d = _slot(q, a[0], s[0], noise[0], offsets, marks, config.gamma, gen)
    return q_next, a[0], dest, s[0], d, q_next - pre


def _block_slots(replicas: int) -> int:
    """Slots per draw block for `replicas` rows (see BLOCK_ROWS)."""
    return max(1, min(BLOCK, BLOCK_ROWS // replicas))


def _count_block(block):
    """Counts of the distinct states of each replica in the (slots, replicas,
    n) block of retained states: returns (replica, count, state) arrays, one
    entry per distinct (replica, state) pair.

    The states are numbered in their bounding box (mixed-radix digits, as in
    `count_rows`). Where the (replicas x box) grid holds at most
    DENSE_CELLS_PER_SAMPLE cells per sample, the entries are the grid's
    nonzero cells, counted by one bincount; a wider grid, or one whose codes
    would overflow int64, is counted by `count_rows` with the replica as the
    batch label.
    """
    m, r, n = block.shape
    lows = [int(block[:, :, j].min()) for j in range(n)]
    spans = [int(block[:, :, j].max()) - low + 1 for j, low in enumerate(lows)]
    box = math.prod(spans)
    # r * box grid cells against m * r samples
    if box > DENSE_CELLS_PER_SAMPLE * m:
        counts = count_rows(block.reshape(-1, n), np.tile(np.arange(r), m))
        table = counts.table
        replica = np.repeat(np.arange(r), np.diff(table.indptr))
        return replica, table.data.astype(np.int64), counts.rows[table.indices]
    # the replica is the leading digit of each code
    code = np.empty((m, r), dtype=np.int64)
    code[:] = np.arange(r)
    for j, (low, span) in enumerate(zip(lows, spans)):
        code *= span
        code += block[:, :, j]
        code -= low
    grid = np.bincount(code.reshape(-1), minlength=r * box)
    del code
    cells = np.flatnonzero(grid)
    hits = grid[cells]
    del grid
    replica, state = np.divmod(cells, box)
    del cells
    states = np.column_stack(np.unravel_index(state, spans))
    states += lows
    return replica, hits, states


def _run_replicas(config, counts, warmup, thinning, stream):
    """Simulate the replicas as one state matrix, replica i retaining
    counts[i] samples, and count the retained samples into their batches;
    `counts` must not increase, so that the replicas with one sample more
    come first.

    Returns (table, batch_u_sum): the count table of the retained states per
    batch (`count_rows`) and each batch's total unused service. The samples
    are written in (retained index, replica) order into a buffer, which is
    counted (`_count_block`) when a batch of either replica class ends or it
    holds FLUSH_SAMPLES samples. Within one flush, then, each replica's
    samples lie in one batch, so the replica names it. The entries of all
    flushes go to one store, whose rows (batch, count, state) double when
    full; `count_rows` merges them at the end. The unused service of each
    retained slot is summed per replica and added to its batch at the same
    flush.
    """
    gen = stream.generator()
    r, n = len(counts), config.n
    edges, which, first = _batches_for(counts, thinning, relaxation_slots(config))
    # each flush ends at a batch edge of either class, or after `most`
    # retained slots
    most = max(1, FLUSH_SAMPLES // r)
    cuts = np.unique(np.concatenate(edges)).tolist()
    ends = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        ends += [*range(lo + most, hi, most), hi]
    depth = int(np.diff(ends, prepend=0).max())

    offsets = np.arange(r) * n
    ones = np.ones(n, dtype=np.int64)
    q = np.zeros((r, n), dtype=np.int64)
    marks = _first_marks(config.gamma, gen, q.shape)
    buf = np.empty((depth, r, n), dtype=np.int64)
    u = np.zeros(r, dtype=np.int64)
    batch_u_sum = np.zeros(int(first[-1]), dtype=np.int64)
    # at most one entry per sample
    limit = int(counts.sum())
    store = np.empty((min(limit, 4096), n + 2), dtype=np.int64)
    stored = 0

    def flush(k0, k1):
        nonlocal store, stored
        active = int(np.count_nonzero(counts > k0))
        within = [np.searchsorted(e, k0, side="right") - 1 for e in edges]
        labels = first[:active] + np.take(within, which[:active])
        batch_u_sum[labels] += u[:active]
        u[:] = 0
        replica, hits, states = _count_block(buf[: k1 - k0, :active])
        end = stored + hits.size
        if end > store.shape[0]:
            store.resize((max(end, min(2 * store.shape[0], limit)), n + 2), refcheck=False)
        store[stored:end, 0] = labels[replica]
        store[stored:end, 1] = hits
        store[stored:end, 2:] = states
        stored = end

    total = warmup + ends[-1] * thinning
    block = _block_slots(r)
    k0, nxt = 0, 0
    for b0 in range(0, total, block):
        a, s, noise = _draw_block(config, gen, min(block, total - b0), r)
        for j in range(a.shape[0]):
            q, pre, _, _ = _slot(q, a[j], s[j], noise[j], offsets, marks, config.gamma, gen)
            # b0 + j + 1 slots have run; sample k (from 1) is retained once
            # that reaches warmup + k * thinning
            k, rem = divmod(b0 + j + 1 - warmup, thinning)
            if rem == 0 and k > 0:
                buf[k - 1 - k0] = q
                # row sums as products with ones: cheaper than sum(axis=1)
                # on rows this narrow
                u += (q - pre) @ ones
                if k == ends[nxt]:
                    flush(k0, k)
                    k0, nxt = k, nxt + 1

    del buf
    store.resize((stored, n + 2), refcheck=False)
    table = count_rows(store[:, 2:], store[:, 0], weights=store[:, 1])
    return table, batch_u_sum


def collect_steady_state(config: SystemConfig, plan: SamplingPlan, seed: int) -> SampleSet:
    """Run independent replicas from the empty state and collect thinned
    steady-state samples.

    Each replica discards `plan.warmup_slots` slots, then retains one state
    every `plan.thinning` slots; retained counts are split as evenly as
    possible across replicas, the first ones taking one more, so that exactly
    `plan.num_samples` samples are retained. A replica that would retain no
    sample is not simulated, so at most `plan.num_samples` replicas run. They
    run as one state matrix on RngStream(seed, 0), so identical (config,
    plan, seed) always produce the identical sample set.

    The samples are counted into their batches as they are simulated, in
    (retained index, replica) order: every replica's first sample, then every
    replica's second, and so on. The batches are runs of consecutive
    retained samples of one replica, numbered replica by replica. Only the
    count table and the per-batch unused-service means come back; neither
    depends on the order in which the samples were counted.
    """
    require_valid(config)
    plan.check()
    replicas = min(plan.replicas, plan.num_samples)
    per_sample = 3 * config.n + 8
    per_replica = (config.n + 1) * (6 + 2 * _block_slots(replicas))
    cells = plan.num_samples * per_sample + replicas * per_replica
    if cells > MAX_SAMPLE_CELLS:
        raise ResourceLimitError(
            f"plan retains {plan.num_samples} samples x {per_sample} cells and runs {replicas} "
            f"replicas x {per_replica} working cells, exceeding the cap of {MAX_SAMPLE_CELLS} cells"
        )

    base, rem = divmod(plan.num_samples, replicas)
    counts = np.repeat(np.array([base + 1, base], dtype=np.int64), [rem, replicas - rem])
    table, batch_u_sum = _run_replicas(
        config, counts, plan.warmup_slots, plan.thinning, RngStream(seed, 0)
    )
    return SampleSet(table, batch_u_sum / table.sizes, config)


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
