import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsqa import simulator
from jsqa.counts import count_rows
from jsqa.errors import ConfigError, ResourceLimitError
from jsqa.model import BernoulliScaled, Binomial, Constant, RngStream, SystemConfig
from jsqa.oracle import build_chain, exact_law, stationary
from jsqa.regimes import RegimeSpec, build_config
from jsqa.simulator import (
    SampleSet,
    SamplingPlan,
    collect_steady_state,
    default_plan,
    plan_from_dict,
    simulate_coupled_domination,
    step_many,
)

SSQ = SystemConfig(
    gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)


def _gen(seed=0):
    return RngStream(seed).generator()


def _config(n, gamma=0.1, arrivals=Constant(1), service=Constant(1)):
    return SystemConfig(gamma=gamma, arrivals=arrivals, services=(service,) * n)


def _trials(q, trials):
    """`trials` copies of the state q, one row per independent trial."""
    return np.tile(np.asarray(q, dtype=np.int64), (trials, 1))


class TestDispatch:
    def test_unique_minimum(self):
        dest = step_many(_trials((3, 1, 2), 20), _config(3), _gen())[2]
        assert (dest == 1).all()

    def test_two_way_tie_is_fair(self):
        dest = step_many(_trials((2, 2), 1_000_000), _config(2), _gen(1))[2]
        hits = int((dest == 0).sum())
        assert abs(hits - 500_000) < 2000

    def test_three_way_tie_is_fair(self):
        trials = 1_000_000
        dest = step_many(_trials((0, 0, 0), trials), _config(3), _gen(2))[2]
        counts = np.bincount(dest, minlength=3)
        assert np.abs(counts / trials - 1 / 3).max() < 0.002

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pick_is_first_minimum(self, n):
        rows = 4096
        gen = _gen(n)
        q = gen.integers(0, 3, (rows, n))
        # noise on a grid of quarters, so q + noise often ties exactly
        noise = gen.integers(0, 4, (rows, n)) / 4
        marks = np.full((rows, n), 1 << 40)
        zeros = np.zeros((rows, n), dtype=np.int64)
        dest = simulator._slot(
            q, zeros[:, 0], zeros, noise, np.arange(rows) * n, marks, 0.1, gen
        )[2]
        key = q + noise
        assert np.array_equal(dest, key.argmin(axis=1))
        ties = (key == key.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert n == 1 or ties.sum() > 100


class TestAbandonments:
    def test_gamma_zero_and_one(self):
        q = _trials((4, 7, 0), 1)
        assert not step_many(q, _config(3, gamma=0.0), _gen())[4].any()
        assert np.array_equal(step_many(q, _config(3, gamma=1.0), _gen())[4], q)

    def test_mean_matches_binomial(self):
        d = step_many(_trials((5,), 1_000_000), _config(1, gamma=0.1), _gen(3))[4]
        assert abs(d.mean() - 0.5) < 0.003

    def test_never_exceeds_queue(self):
        q = _trials((3, 1, 6), 200)
        d = step_many(q, _config(3, gamma=0.7), _gen(4))[4]
        assert (d <= q).all()

    @pytest.mark.parametrize("q, gamma", [(5, 0.1), (40, 1.0)])
    def test_variance_matches_binomial(self, q, gamma):
        # the sample variance of 1M draws of Binomial(5, 0.1) (variance 0.45)
        # has a standard error of about 8e-4
        d = step_many(_trials((q,), 1_000_000), _config(1, gamma=gamma), _gen(6))[4]
        assert abs(d.var() - q * gamma * (1 - gamma)) < 0.004

    def test_empty_cells_never_abandon(self):
        q = _trials((0, 5, 0), 100_000)
        d = step_many(q, _config(3, gamma=0.5), _gen(9))[4]
        assert not d[:, [0, 2]].any()
        assert abs(d[:, 1].mean() - 2.5) < 0.02


class TestStep:
    def test_arrival_batch_to_short_queue(self):
        # from (0,0) no abandonments are possible; the batch of 2 lands on a
        # tied queue, and only queue 0 serves
        config = SystemConfig(
            gamma=0.5, arrivals=Constant(2), services=(Constant(1), Constant(0))
        )
        q_next, _, dest, _, _, u = step_many(_trials((0, 0), 20), config, _gen())
        to0, to1 = dest == 0, dest == 1
        assert to0.any() and to1.any()
        assert (q_next[to0] == (1, 0)).all() and (u[to0] == (0, 0)).all()
        assert (q_next[to1] == (0, 2)).all() and (u[to1] == (1, 0)).all()

    def test_unused_service_is_shortfall(self):
        config = SystemConfig(gamma=0.5, arrivals=Constant(0), services=(Constant(1),))
        q_next, _, _, _, _, u = step_many(_trials((0,), 1), config, _gen())
        assert q_next.tolist() == [[0]]
        assert u.tolist() == [[1]]

    def test_full_abandonment_keeps_only_new_batch(self):
        config = SystemConfig(
            gamma=1.0, arrivals=Constant(1), services=(Constant(0), Constant(0))
        )
        q_next, _, dest, _, d, u = step_many(_trials((4, 4), 1), config, _gen(5))
        assert d.tolist() == [[4, 4]]
        assert sorted(q_next[0]) == [0, 1]
        assert q_next[0, dest[0]] == 1
        assert not u.any()

    @given(
        q=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
        gamma=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_slot_invariants_property(self, q, gamma, seed):
        n = len(q)
        config = SystemConfig(
            gamma=gamma, arrivals=Binomial(3, 0.4), services=(Binomial(2, 0.5),) * n
        )
        state = _trials(q, 1)
        q_next, a, dest, s, d, u = step_many(state, config, RngStream(seed).generator())
        add = np.zeros_like(state)
        add[0, dest[0]] = a[0]
        assert np.array_equal(q_next, np.maximum(state + add - s - d, 0))
        assert (d <= state).all()
        assert ((0 <= u) & (u <= s)).all()
        assert (q_next * u == 0).all()


def _assert_same_set(a, b):
    """The two sample sets' count tables and unused-service means are equal,
    bitwise and in dtype."""
    for x, y in [
        (a.counts.rows, b.counts.rows),
        (a.counts.table.data, b.counts.table.data),
        (a.counts.table.indices, b.counts.table.indices),
        (a.counts.table.indptr, b.counts.table.indptr),
        (a.counts.sizes, b.counts.sizes),
        (a.batch_u_mean, b.batch_u_mean),
    ]:
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


def _reference_columns(config, plan):
    """(replica, retained index, batch label) of every retained sample,
    replica by replica, as a loop over replicas labels them: replica i
    retains num_samples // replicas samples, one more if
    i < num_samples % replicas, split into at most 32 runs of consecutive
    retained index, each at least ten relaxation times long, and the
    batches are numbered replica by replica."""
    replicas = min(plan.replicas, plan.num_samples)
    base, extra = divmod(plan.num_samples, replicas)
    span = max(1, math.ceil(10.0 * simulator.relaxation_slots(config) / plan.thinning))
    replica, index, labels, first = [], [], [], 0
    for i in range(replicas):
        cnt = base + (i < extra)
        b = max(1, min(32, cnt // span))
        edges = np.linspace(0, cnt, b + 1).astype(np.int64)
        replica.append(np.full(cnt, i))
        index.append(np.arange(cnt))
        labels.append(first + np.repeat(np.arange(b), np.diff(edges)))
        first += b
    return np.concatenate(replica), np.concatenate(index), np.concatenate(labels)


class TestCollect:
    def test_absorbing_empty_state(self):
        config = SystemConfig(gamma=1.0, arrivals=Constant(0), services=(Constant(0),))
        plan = SamplingPlan(warmup_slots=10, num_samples=500, thinning=1, replicas=4)
        samples = collect_steady_state(config, plan, seed=0)
        assert not samples.q.any()
        assert not samples.batch_u_mean.any()

    def test_determinism_contract(self):
        plan = default_plan(SSQ, num_samples=20_000, replicas=8)
        a = collect_steady_state(SSQ, plan, seed=123)
        b = collect_steady_state(SSQ, plan, seed=123)
        _assert_same_set(a, b)

    def test_determinism_across_groups(self):
        # more replicas than BLOCK_ROWS // BLOCK, so each draw block is cut
        # from 64 slots to 55
        plan = default_plan(SSQ, num_samples=50_000, replicas=296)
        a = collect_steady_state(SSQ, plan, seed=7)
        b = collect_steady_state(SSQ, plan, seed=7)
        assert len(a) == plan.num_samples
        _assert_same_set(a, b)

    def test_mean_matches_exact_chain(self):
        chain = build_chain(SSQ, 100)
        law = exact_law(chain, stationary(chain))
        exact = law.estimate(law.rows.sum(axis=1))[0]
        plan = default_plan(SSQ, num_samples=400_000, replicas=64)
        samples = collect_steady_state(SSQ, plan, seed=11)
        totals = samples.counts.rows.sum(axis=1)
        means = samples.counts.batch_means(totals)
        se = means.std(ddof=1) / math.sqrt(samples.counts.num_batches)
        assert abs(samples.counts.pooled @ totals / len(samples) - exact) < 4 * se

    def test_stationarity_drift_identity(self):
        # mean of gamma * total - u_total equals the drift in steady state
        plan = default_plan(SSQ, num_samples=400_000, replicas=64)
        samples = collect_steady_state(SSQ, plan, seed=13)
        counts = samples.counts
        means = SSQ.gamma * counts.batch_means(counts.rows.sum(axis=1)) - samples.batch_u_mean
        se = means.std(ddof=1) / math.sqrt(counts.num_batches)
        assert abs(counts.sizes @ means / len(samples) - SSQ.drift) < 4 * se

    def test_marks_carried_across_slots_are_exact(self, monkeypatch):
        """Abandonments over a whole steady-state run, where each cell's next
        mark is carried from slot to slot: given the state, d is Binomial(q,
        gamma) in every slot, so the residuals d - gamma q of one cell form a
        martingale difference sequence. Their sum has variance gamma (1 - gamma)
        sum(q) and consecutive residuals are uncorrelated."""
        spec = RegimeSpec("critical", 0.0, 0.5, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
        config = build_config(spec, 1e-2)
        plan = SamplingPlan(warmup_slots=2000, num_samples=128 * 2000, thinning=1, replicas=128)
        seen = []
        abandon = simulator._abandon

        def record(q, marks, gamma, gen):
            d = abandon(q, marks, gamma, gen)
            seen.append((d.copy(), q.copy()))
            return d

        monkeypatch.setattr(simulator, "_abandon", record)
        collect_steady_state(config, plan, seed=31)
        d = np.array([x[0] for x in seen], dtype=float)  # (slots, replicas, n)
        q = np.array([x[1] for x in seen], dtype=float)
        assert d.shape == (4000, 128, 2)

        gamma = config.gamma
        z_sum = (d.sum() - gamma * q.sum()) / math.sqrt(gamma * (1 - gamma) * q.sum())
        res = d - gamma * q
        lag = res[1:] * res[:-1]
        corr = lag.mean() / res.var()
        # self-normalized z of the lag-1 products, themselves martingale differences
        z_lag = lag.sum() / math.sqrt((lag**2).sum())
        assert abs(z_sum) < 4.0, f"z_sum={z_sum:+.2f}"
        assert abs(z_lag) < 4.0, f"lag-1 corr={corr:+.4f}, z={z_lag:+.2f}"

    def test_statistics_built_at_construction(self, monkeypatch):
        """The count table and the unused-service means are those of the
        per-sample columns: every slot's state and unused-service total are
        recorded from `_slot`, the retained ones picked out by the plan, and
        each labelled by the documented batch contract."""
        plan = default_plan(SSQ, num_samples=20_000, replicas=8)
        seen = []
        slot = simulator._slot

        def record(q, *args):
            q_next, pre, dest, d = slot(q, *args)
            seen.append((q_next.copy(), (q_next - pre).sum(axis=1)))
            return q_next, pre, dest, d

        monkeypatch.setattr(simulator, "_slot", record)
        samples = collect_steady_state(SSQ, plan, seed=5)
        states = np.array([x[0] for x in seen])  # (slots, replicas, n)
        unused = np.array([x[1] for x in seen])  # (slots, replicas)

        replica, index, batch = _reference_columns(SSQ, plan)
        # retained sample k (from 0) is the state after slot warmup + (k + 1) * thinning
        slot_of = plan.warmup_slots + (index + 1) * plan.thinning - 1
        q, u = states[slot_of, replica], unused[slot_of, replica]
        expect = count_rows(q, batch)
        assert len(samples) == plan.num_samples
        assert np.array_equal(samples.counts.rows, expect.rows)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(samples.counts.table, name), getattr(expect.table, name))
        assert np.array_equal(samples.counts.sizes, expect.sizes)
        means = np.bincount(batch, weights=u) / np.bincount(batch)
        assert np.array_equal(samples.batch_u_mean, means)

    @pytest.mark.parametrize("batch", [[0, 2], [-1, 0]], ids=["gap", "negative"])
    def test_batch_labels_must_cover_every_batch(self, batch):
        with pytest.raises(ConfigError, match="batch labels must be 0..B-1"):
            SampleSet.from_arrays(q=np.array([[1], [2]]), u_total=np.zeros(2, dtype=np.int64),
                                  batch=np.array(batch), config=SSQ)

    @pytest.mark.parametrize(
        "u,batch", [(2, 1), (1, 2), (2, 3)], ids=["one-label", "short-u", "long-labels"]
    )
    def test_columns_must_have_equal_lengths(self, u, batch):
        with pytest.raises(ConfigError, match="equal lengths"):
            SampleSet.from_arrays(q=np.array([[1], [2]]), u_total=np.zeros(u, dtype=np.int64),
                                  batch=np.zeros(batch, dtype=np.int64), config=SSQ)

    @pytest.mark.parametrize("extra", [123, 270], ids=["first-group-ragged", "second-group-ragged"])
    def test_sample_order_contract(self, monkeypatch, extra):
        """Batches are runs of consecutive retained samples of one replica,
        numbered replica by replica. The plan's 296 replicas draw blocks
        shorter than BLOCK slots, and its extra samples end at two places.

        `_slot` is replaced by a stand-in whose state is (replica, slots run)
        and whose unused service is their sum, so each sample is a distinct
        state that names its replica and retained index."""

        def fake_slot(q, a, s, noise, offsets, marks, gamma, gen):
            nxt = np.empty_like(q)
            nxt[:, 0] = np.arange(len(q))
            nxt[:, 1] = q[:, 1] + 1
            return nxt, np.zeros_like(q), None, None

        monkeypatch.setattr(simulator, "_slot", fake_slot)
        replicas = 296
        config = _config(2, gamma=0.5)
        plan = SamplingPlan(warmup_slots=6, num_samples=replicas * 30 + extra,
                            thinning=2, replicas=replicas)
        samples = collect_steady_state(config, plan, seed=0)
        counts, table = samples.counts, samples.counts.table
        assert (table.data == 1).all()
        # the table's entries in (batch, state) order, and so, within a
        # batch, in retained-index order
        batch = np.repeat(np.arange(counts.num_batches), np.diff(table.indptr))
        state = counts.rows[table.indices]
        replica = state[:, 0]
        index = (state[:, 1] - plan.warmup_slots) // plan.thinning - 1
        assert np.bincount(replica).tolist() == [31] * extra + [30] * (replicas - extra)

        ref_replica, ref_index, ref_batch = _reference_columns(config, plan)
        assert counts.num_batches > 2 * replicas  # several batches per replica
        assert np.array_equal(batch, ref_batch)
        assert np.array_equal(replica, ref_replica)
        assert np.array_equal(index, ref_index)
        means = np.bincount(batch, weights=state.sum(axis=1)) / np.bincount(batch)
        assert np.array_equal(samples.batch_u_mean, means)

    @pytest.mark.parametrize("spread", [3, 40, 2**62], ids=["dense", "sorted", "numbered"])
    def test_flush_counts_either_way(self, monkeypatch, spread):
        """A flush is counted on a dense (replica, state) grid when the
        states' bounding box holds at most DENSE_CELLS_PER_SAMPLE cells per
        sample, else by `count_rows`, which numbers rows whose codes would
        overflow; either way its entries are the distinct (replica, state)
        pairs in order, with their counts."""
        block = _gen(8).integers(-spread, spread, size=(16, 5, 2))
        calls = []

        def spy(rows, batch):
            calls.append(rows.shape)
            return count_rows(rows, batch)

        monkeypatch.setattr(simulator, "count_rows", spy)
        replica, hits, states = simulator._count_block(block)
        box = math.prod(int(c.max()) - int(c.min()) + 1 for c in block.reshape(-1, 2).T)
        assert bool(calls) == (box > simulator.DENSE_CELLS_PER_SAMPLE * 16)
        pairs = np.column_stack([np.tile(np.arange(5), 16), block.reshape(-1, 2)])
        expect, expect_hits = np.unique(pairs, axis=0, return_counts=True)
        assert np.array_equal(np.column_stack([replica, states]), expect)
        assert np.array_equal(hits, expect_hits)

    @staticmethod
    def _peak_over_samples(num_samples, replicas):
        """tracemalloc peak of an overloaded two-queue collection over
        num_samples x (n + 2) cells, the bytes of per-sample columns of the
        states, their unused service and their batch labels."""
        spec = RegimeSpec("overloaded", 0.2, 0.0, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
        config = build_config(spec, 0.1)
        plan = SamplingPlan(warmup_slots=200, num_samples=num_samples, thinning=1, replicas=replicas)
        # a first collection loads scipy modules on first use: run a small
        # one before tracing
        collect_steady_state(config, SamplingPlan(10, 10, 1, 1), seed=0)
        tracemalloc.start()
        try:
            collect_steady_state(config, plan, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (num_samples * (2 + 2) * 8)

    def test_peak_memory_of_collection(self):
        """The retained samples are counted into the batch table a flush at
        a time, so no per-sample array is built: on this plan collection
        peaks at 1.03x the bytes per-sample columns would take (1.56x when
        they were kept)."""
        assert self._peak_over_samples(1 << 16, 256) <= 1.25

    def test_peak_memory_of_a_wide_collection(self):
        """With more replicas than BLOCK_ROWS // BLOCK, a draw block is cut to
        at most BLOCK_ROWS row-slots, so the draws stay small beside the
        flush, which here holds the whole plan: it peaks at 1.39x (1.84x
        when per-sample columns were kept)."""
        assert self._peak_over_samples(1 << 18, 4096) <= 1.6

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_SAMPLE_CELLS", 1000)
        plan = SamplingPlan(warmup_slots=10, num_samples=10_000, thinning=1, replicas=2)
        with pytest.raises(ResourceLimitError):
            collect_steady_state(SSQ, plan, seed=0)

    def test_memory_cap_counts_the_replicas(self, monkeypatch):
        # 1000 samples of SSQ are 11000 cells, but 1000 replicas also hold a
        # slot's working arrays and 16-slot draw blocks
        monkeypatch.setattr(simulator, "MAX_SAMPLE_CELLS", 20_000)
        plan = SamplingPlan(warmup_slots=10, num_samples=1000, thinning=1, replicas=1)
        assert len(collect_steady_state(SSQ, plan, seed=0)) == 1000
        with pytest.raises(ResourceLimitError, match="1000 replicas"):
            collect_steady_state(SSQ, dataclasses.replace(plan, replicas=1000), seed=0)

    def test_replicas_past_the_sample_count_do_not_run(self):
        # a replica that retains no sample is never allocated
        plan = SamplingPlan(warmup_slots=50, num_samples=100, thinning=1, replicas=10**12)
        a = collect_steady_state(SSQ, plan, seed=4)
        b = collect_steady_state(SSQ, dataclasses.replace(plan, replicas=100), seed=4)
        _assert_same_set(a, b)

    def test_invalid_plan_rejected(self):
        with pytest.raises(ConfigError):
            SamplingPlan(warmup_slots=0, num_samples=10, thinning=1, replicas=1).check()
        with pytest.raises(ConfigError):
            SamplingPlan(warmup_slots=2, num_samples=10, thinning=5, replicas=1).check()

    @pytest.mark.parametrize("value", [2.7, True])
    @pytest.mark.parametrize("field", ["warmup_slots", "num_samples", "thinning", "replicas"])
    def test_fractional_or_bool_plan_field_rejected(self, field, value):
        obj = dict(SamplingPlan(10, 10, 1, 2).to_dict(), **{field: value})
        with pytest.raises(ConfigError, match="expected an integer"):
            plan_from_dict(obj)

    def test_invalid_config_rejected(self):
        bad = SystemConfig(gamma=0.0, arrivals=Constant(1), services=(Constant(1),))
        plan = SamplingPlan(warmup_slots=10, num_samples=10, thinning=1, replicas=1)
        with pytest.raises(ConfigError):
            collect_steady_state(bad, plan, seed=0)


class TestStepMany:
    def test_matches_scalar_semantics(self):
        config = SystemConfig(
            gamma=0.3, arrivals=Binomial(2, 0.5), services=(Binomial(2, 0.3),) * 2
        )
        gen = _gen(17)
        q = np.array([[0, 5], [3, 3], [10, 0]], dtype=np.int64)
        q_next, a, dest, s, d, u = step_many(q, config, gen)
        add = np.zeros_like(q)
        add[np.arange(3), dest] = a
        pre = q + add - s - d
        assert np.array_equal(q_next, np.maximum(pre, 0))
        assert np.array_equal(u, q_next - pre)
        assert (d <= q).all()
        assert (q_next * u == 0).all()


@functools.cache
def _domination_runs(gamma, arrival_p):
    """10 seeds x 100k slots of the coupled chains at the default constant,
    shared by the law and ordering tests."""
    config = SystemConfig(
        gamma=gamma, arrivals=BernoulliScaled(1, arrival_p),
        services=(BernoulliScaled(1, 0.4),),
    )
    c_tilde = config.drift + config.bound * math.sqrt(gamma)
    reports = [simulate_coupled_domination(config, c_tilde, 100_000, seed) for seed in range(10)]
    return config, reports


class TestDomination:
    def test_no_abandonment_cap_dominates(self):
        # cap 0 exposes no jobs for the upper chain while gamma=1 drains q
        config = SystemConfig(
            gamma=1.0, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
        )
        report = simulate_coupled_domination(config, c_tilde=0.5, horizon=20_000, seed=2)
        assert report.holds

    def test_default_constant_zero_violations(self):
        c_tilde = SSQ.drift + SSQ.bound * math.sqrt(SSQ.gamma)
        report = simulate_coupled_domination(SSQ, c_tilde, horizon=100_000, seed=5)
        assert report.slots_checked == 100_000
        assert report.violations == 0

    def test_empty_horizon_vacuous(self):
        report = simulate_coupled_domination(SSQ, 0.3, horizon=0, seed=0)
        assert report.slots_checked == 0 and report.holds
        assert report.mean_queue == 0.0

    @pytest.mark.parametrize("c_tilde", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_rejected(self, c_tilde):
        with pytest.raises(ConfigError):
            simulate_coupled_domination(SSQ, c_tilde, horizon=10, seed=0)

    @pytest.mark.parametrize(
        "gamma, arrival_p, cap",
        [(0.05, 0.3, 200), (0.05, 0.5, 400), (1e-3, 0.5, 400)],
    )
    def test_mean_queue_matches_oracle(self, gamma, arrival_p, cap):
        # zero violations holds for any shared mark process; the time average
        # of the unmodified chain is what pins the abandonment law itself
        config, reports = _domination_runs(gamma, arrival_p)
        chain = build_chain(config, cap)
        law = exact_law(chain, stationary(chain))
        exact = law.estimate(law.rows.sum(axis=1))[0]
        means = np.array([r.mean_queue for r in reports])
        z = (means.mean() - exact) / (means.std(ddof=1) / math.sqrt(len(means)))
        assert abs(z) < 4.0, f"mean {means.mean():.4f} vs exact {exact:.4f}, z={z:+.2f}"

    def test_ordering_at_small_gamma(self):
        # overloaded single queue at gamma = 1e-3: about 132 exposed heads
        _, reports = _domination_runs(1e-3, 0.5)
        assert [r.violations for r in reports] == [0] * len(reports)

    def test_requires_single_queue(self):
        config = SystemConfig(
            gamma=0.1, arrivals=Constant(1), services=(Constant(1), Constant(1))
        )
        with pytest.raises(ConfigError):
            simulate_coupled_domination(config, 0.3, horizon=10, seed=0)
