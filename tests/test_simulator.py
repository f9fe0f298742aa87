import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsqa.errors import ConfigError, ResourceLimitError
from jsqa.model import BernoulliScaled, Binomial, Constant, RngStream, SystemConfig
from jsqa.oracle import build_chain, oracle_moments, stationary
from jsqa.simulator import (
    GROUP_SIZE,
    SamplingPlan,
    collect_steady_state,
    default_plan,
    simulate_coupled_domination,
    step_many,
)

SSQ = SystemConfig(
    n=1, gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)


def _gen(seed=0):
    return RngStream(seed).generator()


def _config(n, gamma=0.1, arrivals=Constant(1), service=Constant(1)):
    return SystemConfig(n=n, gamma=gamma, arrivals=arrivals, services=(service,) * n)


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


class TestStep:
    def test_arrival_batch_to_short_queue(self):
        # from (0,0) no abandonments are possible; the batch of 2 lands on a
        # tied queue, and only queue 0 serves
        config = SystemConfig(
            n=2, gamma=0.5, arrivals=Constant(2), services=(Constant(1), Constant(0))
        )
        q_next, _, dest, _, _, u = step_many(_trials((0, 0), 20), config, _gen())
        to0, to1 = dest == 0, dest == 1
        assert to0.any() and to1.any()
        assert (q_next[to0] == (1, 0)).all() and (u[to0] == (0, 0)).all()
        assert (q_next[to1] == (0, 2)).all() and (u[to1] == (1, 0)).all()

    def test_unused_service_is_shortfall(self):
        config = SystemConfig(n=1, gamma=0.5, arrivals=Constant(0), services=(Constant(1),))
        q_next, _, _, _, _, u = step_many(_trials((0,), 1), config, _gen())
        assert q_next.tolist() == [[0]]
        assert u.tolist() == [[1]]

    def test_full_abandonment_keeps_only_new_batch(self):
        config = SystemConfig(
            n=2, gamma=1.0, arrivals=Constant(1), services=(Constant(0), Constant(0))
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
            n=n, gamma=gamma, arrivals=Binomial(3, 0.4), services=(Binomial(2, 0.5),) * n
        )
        state = _trials(q, 1)
        q_next, a, dest, s, d, u = step_many(state, config, RngStream(seed).generator())
        add = np.zeros_like(state)
        add[0, dest[0]] = a[0]
        assert np.array_equal(q_next, np.maximum(state + add - s - d, 0))
        assert (d <= state).all()
        assert ((0 <= u) & (u <= s)).all()
        assert (q_next * u == 0).all()


class TestCollect:
    def test_absorbing_empty_state(self):
        config = SystemConfig(n=1, gamma=1.0, arrivals=Constant(0), services=(Constant(0),))
        plan = SamplingPlan(warmup_slots=10, num_samples=500, thinning=1, replicas=4)
        samples = collect_steady_state(config, plan, seed=0)
        assert not samples.q.any()
        assert not samples.u_total.any()

    def test_determinism_contract(self):
        plan = default_plan(SSQ, num_samples=20_000, replicas=8)
        a = collect_steady_state(SSQ, plan, seed=123)
        b = collect_steady_state(SSQ, plan, seed=123)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.u_total, b.u_total)

    def test_determinism_across_groups(self):
        # more replicas than one group: a full group plus a partial one, each
        # on its own stream
        plan = default_plan(SSQ, num_samples=50_000, replicas=GROUP_SIZE + 40)
        a = collect_steady_state(SSQ, plan, seed=7)
        b = collect_steady_state(SSQ, plan, seed=7)
        assert len(a) == plan.num_samples
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.u_total, b.u_total)

    def test_mean_matches_exact_chain(self):
        chain = build_chain(SSQ, 100)
        exact = oracle_moments(chain, stationary(chain), order=1)["total_m1"]
        plan = default_plan(SSQ, num_samples=400_000, replicas=64)
        samples = collect_steady_state(SSQ, plan, seed=11)
        totals = samples.totals().astype(float)
        nb = samples.num_batches
        means = np.array([totals[samples.batch == b].mean() for b in range(nb)])
        se = means.std(ddof=1) / math.sqrt(nb)
        assert abs(totals.mean() - exact) < 4 * se

    def test_stationarity_drift_identity(self):
        # mean of gamma * total - u_total equals the drift in steady state
        plan = default_plan(SSQ, num_samples=400_000, replicas=64)
        samples = collect_steady_state(SSQ, plan, seed=13)
        vals = SSQ.gamma * samples.totals() - samples.u_total
        nb = samples.num_batches
        means = np.array([vals[samples.batch == b].mean() for b in range(nb)])
        se = means.std(ddof=1) / math.sqrt(nb)
        assert abs(vals.mean() - SSQ.drift) < 4 * se

    def test_memory_cap(self):
        plan = SamplingPlan(warmup_slots=10, num_samples=10_000, thinning=1, replicas=2)
        with pytest.raises(ResourceLimitError):
            collect_steady_state(SSQ, plan, seed=0, max_cells=1000)

    def test_invalid_plan_rejected(self):
        with pytest.raises(ConfigError):
            SamplingPlan(warmup_slots=0, num_samples=10, thinning=1, replicas=1).check()
        with pytest.raises(ConfigError):
            SamplingPlan(warmup_slots=2, num_samples=10, thinning=5, replicas=1).check()

    def test_invalid_config_rejected(self):
        bad = SystemConfig(n=1, gamma=0.0, arrivals=Constant(1), services=(Constant(1),))
        plan = SamplingPlan(warmup_slots=10, num_samples=10, thinning=1, replicas=1)
        with pytest.raises(ConfigError):
            collect_steady_state(bad, plan, seed=0)


class TestStepMany:
    def test_matches_scalar_semantics(self):
        config = SystemConfig(
            n=2, gamma=0.3, arrivals=Binomial(2, 0.5), services=(Binomial(2, 0.3),) * 2
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
        n=1, gamma=gamma, arrivals=BernoulliScaled(1, arrival_p),
        services=(BernoulliScaled(1, 0.4),),
    )
    c_tilde = config.drift + config.bound * math.sqrt(gamma)
    reports = [simulate_coupled_domination(config, c_tilde, 100_000, seed) for seed in range(10)]
    return config, reports


class TestDomination:
    def test_no_abandonment_cap_dominates(self):
        # cap 0 exposes no jobs for the upper chain while gamma=1 drains q
        config = SystemConfig(
            n=1, gamma=1.0, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
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
        exact = oracle_moments(chain, stationary(chain))["total_m1"]
        means = np.array([r.mean_queue for r in reports])
        z = (means.mean() - exact) / (means.std(ddof=1) / math.sqrt(len(means)))
        assert abs(z) < 4.0, f"mean {means.mean():.4f} vs exact {exact:.4f}, z={z:+.2f}"

    def test_ordering_at_small_gamma(self):
        # overloaded single queue at gamma = 1e-3: about 132 exposed heads
        _, reports = _domination_runs(1e-3, 0.5)
        assert [r.violations for r in reports] == [0] * len(reports)

    def test_requires_single_queue(self):
        config = SystemConfig(
            n=2, gamma=0.1, arrivals=Constant(1), services=(Constant(1), Constant(1))
        )
        with pytest.raises(ConfigError):
            simulate_coupled_domination(config, 0.3, horizon=10, seed=0)
