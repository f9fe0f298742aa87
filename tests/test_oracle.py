import itertools
import math
import re
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import binom

from jsqa import oracle, transform
from jsqa.errors import ConfigError, StateBudgetError
from jsqa.limits import LimitDistribution, limit_for_regime
from jsqa.model import BernoulliScaled, Binomial, Constant, SystemConfig
from jsqa.oracle import auto_chain, build_chain, exact_law, stationary, stationary_leakage
from jsqa.regimes import RegimeSpec, build_config, scale

SSQ = SystemConfig(
    gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)
# the two-queue config of acceptance criterion 2
JSQ2 = SystemConfig(
    gamma=0.1,
    arrivals=BernoulliScaled(2, 0.2),
    services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
)
UNEQUAL = SystemConfig(
    gamma=0.3, arrivals=Binomial(3, 0.4), services=(BernoulliScaled(1, 0.5), Binomial(2, 0.3))
)

# frozen exact values for SSQ at cap=200 (produced by this module at build
# time; the simulator must reproduce them statistically)
SSQ_EXACT_MEAN = 0.654424783140
SSQ_EXACT_SECOND = 1.240312058990
SSQ_EXACT_UNUSED = 0.165442478314


def exact_mean(chain, pi, f):
    """Exact E[f(state)] under pi: f evaluated on the exact law's rows."""
    law = exact_law(chain, pi)
    return law.estimate(f(law.rows))[0]


def total(rows):
    return rows.sum(axis=1)


def reference_chain(config, cap):
    """Dense kernel, row clamp and expected unused service built state by
    state: each row is the dispatch mixture of outer products of the
    per-queue next-state laws, with no entry dropped."""
    side = cap + 1
    arrivals = config.arrivals.pmf()

    def marginal(i, q, hit):
        """Law of max(0, q - d + a - s) over 0..cap (a only if queue i is
        hit) with the mass above cap folded into cap, that mass, and the
        expected unused service E[max(0, -(q - d + a - s))]."""
        svc = config.services[i]
        minus_s = svc.pmf()[::-1]
        increment = np.convolve(arrivals, minus_s) if hit else minus_s
        # q - d, d ~ Binomial(q, gamma), is Binomial(q, 1 - gamma) over 0..q
        law = np.convolve(binom.pmf(np.arange(q + 1), q, 1.0 - config.gamma), increment)
        values = np.arange(law.size) - svc.bound
        row = np.zeros(side)
        np.add.at(row, np.clip(values, 0, cap), law)
        return row, law[values > cap].sum(), -(np.minimum(values, 0) * law).sum()

    states = list(itertools.product(range(side), repeat=config.n))
    P = np.zeros((len(states), len(states)))
    clamp = np.zeros(len(states))
    unused = np.zeros(len(states))
    for s, qs in enumerate(states):
        shortest = [i for i, q in enumerate(qs) if q == min(qs)]
        for dest in shortest:
            w = 1.0 / len(shortest)
            parts = [marginal(i, q, i == dest) for i, q in enumerate(qs)]
            P[s] += w * reduce(np.multiply.outer, [p[0] for p in parts]).ravel()
            clamp[s] += w * sum(p[1] for p in parts)
            unused[s] += w * sum(p[2] for p in parts)
    return P, clamp, unused


class TestBuildChain:
    def test_total_abandonment_resets_to_empty(self):
        config = SystemConfig(gamma=1.0, arrivals=Constant(0), services=(Constant(1),))
        chain = build_chain(config, 10)
        assert np.allclose(chain.matrix.toarray()[:, 0], 1.0)

    def test_birth_chain_rows_by_inspection(self):
        # no services, no abandonment: q -> q+1 w.p. p else stay
        p = 0.3
        config = SystemConfig(
            gamma=0.0, arrivals=BernoulliScaled(1, p), services=(Constant(0),)
        )
        P = build_chain(config, 6).matrix.toarray()
        for q in range(6):
            assert P[q, q] == pytest.approx(1 - p)
            assert P[q, q + 1] == pytest.approx(p)

    def test_row_sums_and_leakage(self):
        chain = build_chain(SSQ, 100)
        assert np.abs(chain.matrix.sum(axis=1) - 1.0).max() < 1e-12
        pi = stationary(chain)
        assert stationary_leakage(chain, pi) < 1e-10

    def test_state_budget(self):
        with pytest.raises(StateBudgetError):
            build_chain(SSQ, 2_000_000)
        config3 = SystemConfig(gamma=0.5, arrivals=Constant(1), services=(Constant(1),) * 3)
        with pytest.raises(StateBudgetError):
            build_chain(config3, 10)

    def test_refused_table_stays_within_the_budget(self, monkeypatch):
        """A queue table's buffers double when full, but never past the
        budget of MAX_KERNEL_NONZEROS entries, the most a table that is not
        refused can hold: refusing cap 2000 of SSQ at a 2^16-entry budget
        peaks at 1.09x the budget's column and value bytes (2.04x when the
        buffers doubled past it)."""
        build_chain(SSQ, 10)  # scipy's first-use imports are not traced
        monkeypatch.setattr(oracle, "MAX_KERNEL_NONZEROS", 1 << 16)
        tracemalloc.start()
        try:
            with pytest.raises(StateBudgetError, match="over 65536 entries"):
                build_chain(SSQ, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 16) * (8 + 8)

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigError, match="cap must be nonnegative"):
            build_chain(SSQ, -1)

    @pytest.mark.parametrize("config", [SSQ, JSQ2], ids=["n1", "n2"])
    def test_cap_zero_is_one_state(self, config):
        chain = build_chain(config, 0)
        assert chain.matrix.toarray().tolist() == [[1.0]]
        assert stationary(chain).tolist() == [1.0]

    def test_kernel_nonzero_budget(self):
        # 301^2 = 90,601 states pass the table-size check, but their kernel
        # has far more nonzeros than the budget
        with pytest.raises(StateBudgetError) as info:
            build_chain(JSQ2, 300)
        match = re.search(r"cap 300 gives 90601 states and a kernel of (\d+) nonzeros", str(info.value))
        assert match is not None
        assert int(match.group(1)) > oracle.MAX_KERNEL_NONZEROS

    @pytest.mark.parametrize("config", [JSQ2, UNEQUAL], ids=["equal", "unequal"])
    def test_nonzero_count_is_exact(self, config, monkeypatch):
        # the count checked before the build is the built kernel's nnz
        nnz = build_chain(config, 20).matrix.nnz
        monkeypatch.setattr(oracle, "MAX_KERNEL_NONZEROS", nnz)
        assert build_chain(config, 20).matrix.nnz == nnz
        monkeypatch.setattr(oracle, "MAX_KERNEL_NONZEROS", nnz - 1)
        with pytest.raises(StateBudgetError, match=f"a kernel of {nnz} nonzeros"):
            build_chain(config, 20)

    def test_build_peak_memory_about_twice_the_kernel(self, monkeypatch):
        # each row is written in place at its pre-counted size, so the build
        # and the first read of `matrix`, which assembles the kernel, peak at
        # about the kernel itself: 1.04x its CSR bytes for JSQ2 at
        # cap 40 and 1.07x for UNEQUAL at cap 30, against 2.09x and 2.12x when
        # two sparse parts were built and added. UNEQUAL's tied rows merge two
        # different pairs of queue tables
        for config, cap in [(JSQ2, 40), (UNEQUAL, 30)]:
            tracemalloc.start()
            try:
                matrix = build_chain(config, cap).matrix
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
            assert matrix.has_canonical_format and (matrix.data > 0).all()
            monkeypatch.setattr(oracle, "MAX_KERNEL_NONZEROS", matrix.nnz - 1)
            with pytest.raises(StateBudgetError, match=f"a kernel of {matrix.nnz} nonzeros"):
                build_chain(config, cap)
            monkeypatch.undo()

    def test_one_queue_build_keeps_one_abandonment_pmf(self):
        """A long one-queue chain holds about 12 nonzeros per row, while all
        cap + 1 Binomial(q, gamma) pmfs would hold about cap^2 / 2 floats; the
        build keeps only the current row's law and, building no miss table
        and writing the rows into buffers that double when full, peaks at
        1.38x and 1.42x the kernel (3.4x when each row was kept as its own
        arrays, 43x if it kept every pmf). The second case is the classic
        family (C = 1/2, alpha = 1/4) at gamma = 1e-6 and `auto_chain`'s first
        cap: its rows stay stochastic, and away from the cap the carried
        law's trim adds no clamped mass beyond the DROP_BELOW drop."""
        cases = [
            (SystemConfig(gamma=1e-5, arrivals=Binomial(4, 0.125), services=(Binomial(2, 0.25),)), 2000),
            (build_config(RegimeSpec("classic", 0.5, 0.25, (Binomial(2, 0.25),), 4), 1e-6), 8948),
        ]
        for config, cap in cases:
            tracemalloc.start()
            try:
                chain = build_chain(config, cap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            matrix = chain.matrix
            assert peak <= 1.6 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
            assert np.abs(matrix.sum(axis=1) - 1.0).max() < 1e-12
            assert chain.row_clamp[: cap - 20].max() < 1e-13

    def test_one_queue_table_budget_is_exact(self, monkeypatch):
        # one queue's kernel is its hit table, whose entries are counted as
        # they are stored
        nnz = build_chain(SSQ, 200).matrix.nnz
        monkeypatch.setattr(oracle, "MAX_KERNEL_NONZEROS", nnz)
        assert build_chain(SSQ, 200).matrix.nnz == nnz
        monkeypatch.setattr(oracle, "MAX_KERNEL_NONZEROS", nnz - 1)
        with pytest.raises(StateBudgetError, match="^cap 200 gives"):
            build_chain(SSQ, 200)

    def test_two_queue_kernel_rows_stochastic(self):
        chain = build_chain(JSQ2, 20)
        assert np.abs(chain.matrix.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize(
        "config, cap", [(SSQ, 50), (JSQ2, 20), (UNEQUAL, 12)], ids=["n1", "n2", "n2-unequal"]
    )
    def test_matches_per_state_reference(self, config, cap):
        chain = build_chain(config, cap)
        P, clamp, unused = reference_chain(config, cap)
        assert isinstance(chain.matrix, sp.csr_array)
        assert np.abs(chain.matrix.toarray() - P).max() < 1e-12
        assert np.abs(chain.row_clamp - clamp).max() < 1e-12
        assert np.abs(chain.expected_unused - unused).max() < 1e-12


class TestStationary:
    def test_two_state_doubly_stochastic(self):
        chain = build_chain(SSQ, 30)
        chain.matrix = sp.csr_array(np.array([[0.5, 0.5], [0.5, 0.5]]))
        pi = stationary(chain)
        assert np.allclose(pi, [0.5, 0.5])

    def test_reducible_kernel_raises(self):
        # two closed classes: no unique stationary law, though an iterative
        # solve of this consistent singular system converges to [1/2, 1/2]
        chain = build_chain(SSQ, 30)
        chain.matrix = sp.csr_array(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            stationary(chain)

    def test_frozen_two_queue_chain_raises(self):
        # no arrivals, services or abandonment: every one of the 16 states is
        # its own closed class and the built kernel is the identity
        config = SystemConfig(gamma=0.0, arrivals=Constant(0), services=(Constant(0),) * 2)
        chain = build_chain(config, 3)
        assert (chain.matrix.toarray() == np.eye(16)).all()
        with pytest.raises(np.linalg.LinAlgError):
            stationary(chain)

    @staticmethod
    def dense_solve(chain):
        A = chain.matrix.toarray().T - np.eye(chain.num_states)
        A[-1, :] = 1.0
        b = np.zeros(chain.num_states)
        b[-1] = 1.0
        return np.linalg.solve(A, b)

    def test_matches_dense_solve(self):
        chain = build_chain(JSQ2, 30)
        assert np.abs(stationary(chain) - self.dense_solve(chain)).sum() < 1e-12

    def test_slow_mixing_chain_matches_dense_solve(self):
        # the acceptance servers on the critical family at gamma 1e-2: the
        # total queue relaxes over about 1/gamma slots
        spec = RegimeSpec("critical", 0.0, 0.5, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
        chain = build_chain(build_config(spec, 1e-2), 30)
        assert np.abs(stationary(chain) - self.dense_solve(chain)).sum() < 1e-12

    def test_birth_death_geometric_closed_form(self):
        # births w.p. p(1-r), deaths w.p. r(1-p): geometric stationary law
        p, r, cap = 0.3, 0.4, 60
        config = SystemConfig(
            gamma=0.0, arrivals=BernoulliScaled(1, p), services=(BernoulliScaled(1, r),)
        )
        chain = build_chain(config, cap)
        pi = stationary(chain)
        ratio = p * (1 - r) / (r * (1 - p))
        expect = ratio ** np.arange(cap + 1)
        expect /= expect.sum()
        assert np.abs(pi - expect).max() < 1e-12

    def test_fixed_point_residual(self):
        chain = build_chain(SSQ, 150)
        pi = stationary(chain)
        assert np.abs(pi @ chain.matrix - pi).sum() < 1e-10

    @pytest.mark.parametrize("config, cap", [(JSQ2, 20), (UNEQUAL, 12)], ids=["equal", "unequal"])
    def test_table_products_match_the_kernel(self, config, cap):
        # UNEQUAL's tied rows mix two different pairs of queue tables
        chain = build_chain(config, cap)
        left, right = oracle._table_products(chain)
        rng = np.random.default_rng(5)
        v, x = rng.random((2, chain.num_states))
        for got, want in [(left(v), v @ chain.matrix), (right(x), chain.matrix @ x)]:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_two_queue_solve_never_assembles_the_kernel(self):
        # build and solve read only the queue tables and a few state-sized
        # vectors: 0.097x the CSR bytes, against 1.09x when the build wrote
        # the kernel and the solve applied it
        tracemalloc.start()
        try:
            chain = build_chain(JSQ2, 60)
            stationary(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "matrix" not in vars(chain)
        matrix = chain.matrix
        assert peak <= 0.15 * (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)



class TestMoments:
    def test_absorbing_empty_chain(self):
        config = SystemConfig(gamma=1.0, arrivals=Constant(0), services=(Constant(0),))
        chain = build_chain(config, 5)
        pi = stationary(chain)
        assert exact_mean(chain, pi, total) == pytest.approx(0.0, abs=1e-12)
        mgf = exact_mean(chain, pi, lambda x: np.exp(math.sqrt(config.gamma) * 0.7 * total(x)))
        assert mgf == pytest.approx(1.0, abs=1e-12)

    def test_frozen_ssq_values(self):
        chain = build_chain(SSQ, 200)
        pi = stationary(chain)
        assert exact_mean(chain, pi, total) == pytest.approx(SSQ_EXACT_MEAN, abs=1e-9)
        second = exact_mean(chain, pi, lambda x: total(x) ** 2)
        assert second == pytest.approx(SSQ_EXACT_SECOND, abs=1e-9)
        unused = exact_law(chain, pi).estimate(chain.expected_unused)[0]
        assert unused == pytest.approx(SSQ_EXACT_UNUSED, abs=1e-9)

    def test_scaled_mean_bounded_across_gammas(self):
        # gamma * E[total] stays under one constant along the abandonment sweep
        values = {}
        for gamma in (0.05, 0.1, 0.2):
            config = SystemConfig(
                gamma=gamma,
                arrivals=BernoulliScaled(1, 0.3),
                services=(BernoulliScaled(1, 0.4),),
            )
            chain = build_chain(config, 300)
            pi = stationary(chain)
            values[gamma] = gamma * exact_mean(chain, pi, total)
        assert all(np.isfinite(v) for v in values.values())
        assert max(values.values()) < 0.11  # frozen bound from this sweep, max is ~0.0946

    def test_detailed_conservation(self):
        for config, cap in [(SSQ, 120), (
            SystemConfig(
                gamma=0.1,
                arrivals=BernoulliScaled(2, 0.2),
                services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
            ),
            40,
        )]:
            chain = build_chain(config, cap)
            pi = stationary(chain)
            unused = exact_law(chain, pi).estimate(chain.expected_unused)[0]
            lhs = config.gamma * exact_mean(chain, pi, total) - unused
            assert abs(lhs - config.drift) < 1e-9

    def test_truncation_robustness(self):
        chain100 = build_chain(SSQ, 100)
        chain200 = build_chain(SSQ, 200)
        m100 = exact_mean(chain100, stationary(chain100), total)
        m200 = exact_mean(chain200, stationary(chain200), total)
        assert abs(m200 - m100) / m100 < 1e-6

    def test_symmetric_two_queue_stationary_exchangeable(self):
        config = SystemConfig(
            gamma=0.1,
            arrivals=BernoulliScaled(2, 0.2),
            services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
        )
        chain = build_chain(config, 30)
        pi = stationary(chain).reshape(31, 31)
        assert np.abs(pi - pi.T).max() < 1e-12


class TestExactLaw:
    """The stationary law as a one-batch count table runs through the
    simulator's own estimators."""

    @pytest.fixture(scope="class")
    def law(self):
        chain = build_chain(JSQ2, 30)
        pi = stationary(chain)
        return chain, pi, exact_law(chain, pi)

    def test_estimate_is_the_expectation(self, law):
        chain, pi, table = law
        x = chain.states.astype(float)
        for values in [x.sum(axis=1), x[:, 0] ** 2, (x[:, 0] - x[:, 1]) ** 2 / 2,
                       chain.expected_unused]:
            mean, stderr = table.estimate(values)
            assert mean == pytest.approx(pi @ values, abs=1e-12)
            assert np.isnan(stderr)

    def test_moment_report_averages_the_coordinates(self, law):
        chain, pi, table = law
        x = chain.states.astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = transform.moment_report(table, LimitDistribution("exponential", mean=1.0), 2)
        coordinate = [c for c in report if c.key.startswith("coordinate_m=")]
        assert len(coordinate) == 2
        for m, c in enumerate(coordinate, start=1):
            assert c.estimate == pytest.approx(pi @ (x**m).mean(axis=1), abs=1e-12)
            assert np.isnan(c.stderr)

    def test_ks_matches_weighted_cdf(self, law):
        chain, pi, table = law
        dist = LimitDistribution("exponential", mean=1.5)
        ks = transform.ks_statistic(table.rows[:, 0], dist, table.pooled)
        # the marginal law of queue 0 over 0..30, from the row-major state order
        mass = pi.reshape(31, 31).sum(axis=1)
        cdf, limit = np.cumsum(mass), dist.cdf(np.arange(31.0))
        assert ks == pytest.approx(max((cdf - limit).max(), (limit - cdf + mass).max()), abs=1e-15)

    def test_scaled_exact_law_through_the_estimators(self):
        # the acceptance servers on the critical family: `scale` and
        # `ssc_estimate` take the exact law as they take a sample set's table
        spec = RegimeSpec("critical", 0.0, 0.5, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
        chain, pi = auto_chain(build_config(spec, 0.1))
        law = exact_law(chain, pi)
        x = chain.states.astype(float)
        ssc = transform.ssc_estimate(law)
        perp = (x[:, 0] - x[:, 1]) ** 2 / 2
        assert ssc.perp_second_moment == pytest.approx(pi @ perp, rel=1e-12)
        per_coord, _ = limit_for_regime(spec)
        report = transform.moment_report(scale(law, spec, 0.1), per_coord)
        (first,) = [c for c in report if c.key == "coordinate_m=1"]
        mean = math.sqrt(0.1) * (pi @ x.mean(axis=1))
        assert first.estimate == pytest.approx(mean, rel=1e-12)
        assert np.isnan(ssc.stderr)
        assert np.isnan(first.stderr)


class TestAutoChain:
    def test_reaches_target_leakage(self):
        chain, pi = auto_chain(SSQ)
        assert stationary_leakage(chain, pi) < 1e-8

    def test_mgf_consistency_with_moments(self):
        chain, pi = auto_chain(SSQ)
        scaled = np.sqrt(0.1) * chain.states.sum(axis=1)
        h = 1e-6
        fd = (pi @ np.exp(h * scaled) - pi @ np.exp(-h * scaled)) / (2 * h)
        mean_scaled = pi @ scaled
        assert fd == pytest.approx(mean_scaled, abs=1e-6)
