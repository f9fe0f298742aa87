import itertools
import re
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import binom

from jsqa import oracle
from jsqa.errors import StateBudgetError
from jsqa.model import BernoulliScaled, Binomial, Constant, SystemConfig
from jsqa.oracle import (
    _next_pmf,
    auto_chain,
    build_chain,
    oracle_mgf,
    oracle_moments,
    stationary,
    stationary_leakage,
)

SSQ = SystemConfig(
    n=1, gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)
# the two-queue config of acceptance criterion 2
JSQ2 = SystemConfig(
    n=2,
    gamma=0.1,
    arrivals=BernoulliScaled(2, 0.2),
    services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
)
UNEQUAL = SystemConfig(
    n=2, gamma=0.3, arrivals=Binomial(3, 0.4), services=(BernoulliScaled(1, 0.5), Binomial(2, 0.3))
)

# frozen exact values for SSQ at cap=200 (produced by this module at build
# time; the simulator must reproduce them statistically)
SSQ_EXACT_MEAN = 0.654424783140
SSQ_EXACT_SECOND = 1.240312058990
SSQ_EXACT_UNUSED = 0.165442478314


def reference_chain(config, cap):
    """Dense kernel, row clamp and expected unused service built state by
    state: each row is the dispatch mixture of outer products of the
    per-queue next-state laws, with no entry dropped."""
    side = cap + 1
    abandon = [binom.pmf(np.arange(q + 1), q, config.gamma) for q in range(side)]
    arrivals = config.arrivals.pmf()

    def marginal(i, q, hit):
        svc = config.services[i]
        minus_s = svc.pmf()[::-1]
        kernel = np.convolve(arrivals, minus_s) if hit else minus_s
        return _next_pmf(q, abandon[q], kernel, -svc.bound, cap)

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
        config = SystemConfig(n=1, gamma=1.0, arrivals=Constant(0), services=(Constant(1),))
        chain = build_chain(config, 10)
        assert np.allclose(chain.matrix.toarray()[:, 0], 1.0)

    def test_birth_chain_rows_by_inspection(self):
        # no services, no abandonment: q -> q+1 w.p. p else stay
        p = 0.3
        config = SystemConfig(
            n=1, gamma=0.0, arrivals=BernoulliScaled(1, p), services=(Constant(0),)
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
        config3 = SystemConfig(n=3, gamma=0.5, arrivals=Constant(1), services=(Constant(1),) * 3)
        with pytest.raises(StateBudgetError):
            build_chain(config3, 10)

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
        # two closed classes: no unique stationary law, and the sparse solve
        # only warns and returns NaN
        chain = build_chain(SSQ, 30)
        chain.matrix = sp.csr_array(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            stationary(chain)

    def test_matches_dense_solve(self):
        chain = build_chain(JSQ2, 30)
        A = chain.matrix.toarray().T - np.eye(chain.num_states)
        A[-1, :] = 1.0
        b = np.zeros(chain.num_states)
        b[-1] = 1.0
        assert np.abs(stationary(chain) - np.linalg.solve(A, b)).sum() < 1e-12

    def test_birth_death_geometric_closed_form(self):
        # births w.p. p(1-r), deaths w.p. r(1-p): geometric stationary law
        p, r, cap = 0.3, 0.4, 60
        config = SystemConfig(
            n=1, gamma=0.0, arrivals=BernoulliScaled(1, p), services=(BernoulliScaled(1, r),)
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



class TestMoments:
    def test_absorbing_empty_chain(self):
        config = SystemConfig(n=1, gamma=1.0, arrivals=Constant(0), services=(Constant(0),))
        chain = build_chain(config, 5)
        pi = stationary(chain)
        moments = oracle_moments(chain, pi, order=2)
        assert moments["total_m1"] == pytest.approx(0.0, abs=1e-12)
        assert oracle_mgf(chain, pi, 1.0, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_ssq_values(self):
        chain = build_chain(SSQ, 200)
        pi = stationary(chain)
        moments = oracle_moments(chain, pi, order=2)
        assert moments["total_m1"] == pytest.approx(SSQ_EXACT_MEAN, abs=1e-9)
        assert moments["total_m2"] == pytest.approx(SSQ_EXACT_SECOND, abs=1e-9)
        assert moments["unused_mean"] == pytest.approx(SSQ_EXACT_UNUSED, abs=1e-9)

    def test_scaled_mean_bounded_across_gammas(self):
        # gamma * E[total] stays under one constant along the abandonment sweep
        values = {}
        for gamma in (0.05, 0.1, 0.2):
            config = SystemConfig(
                n=1,
                gamma=gamma,
                arrivals=BernoulliScaled(1, 0.3),
                services=(BernoulliScaled(1, 0.4),),
            )
            chain = build_chain(config, 300)
            pi = stationary(chain)
            values[gamma] = gamma * oracle_moments(chain, pi, 1)["total_m1"]
        assert all(np.isfinite(v) for v in values.values())
        assert max(values.values()) < 0.11  # frozen bound from this sweep, max is ~0.0946

    def test_detailed_conservation(self):
        for config, cap in [(SSQ, 120), (
            SystemConfig(
                n=2,
                gamma=0.1,
                arrivals=BernoulliScaled(2, 0.2),
                services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
            ),
            40,
        )]:
            chain = build_chain(config, cap)
            pi = stationary(chain)
            moments = oracle_moments(chain, pi, 1)
            lhs = config.gamma * moments["total_m1"] - moments["unused_mean"]
            assert abs(lhs - config.drift) < 1e-9

    def test_truncation_robustness(self):
        chain100 = build_chain(SSQ, 100)
        chain200 = build_chain(SSQ, 200)
        m100 = oracle_moments(chain100, stationary(chain100), 1)["total_m1"]
        m200 = oracle_moments(chain200, stationary(chain200), 1)["total_m1"]
        assert abs(m200 - m100) / m100 < 1e-6

    def test_symmetric_two_queue_stationary_exchangeable(self):
        config = SystemConfig(
            n=2,
            gamma=0.1,
            arrivals=BernoulliScaled(2, 0.2),
            services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
        )
        chain = build_chain(config, 30)
        pi = stationary(chain).reshape(31, 31)
        assert np.abs(pi - pi.T).max() < 1e-12


class TestAutoChain:
    def test_reaches_target_leakage(self):
        chain, pi = auto_chain(SSQ, target_leakage=1e-8)
        assert stationary_leakage(chain, pi) < 1e-8

    def test_mgf_consistency_with_moments(self):
        chain, pi = auto_chain(SSQ)
        h = 1e-6
        fd = (oracle_mgf(chain, pi, 0.1, h) - oracle_mgf(chain, pi, 0.1, -h)) / (2 * h)
        mean_scaled = np.sqrt(0.1) * oracle_moments(chain, pi, 1)["total_m1"]
        assert fd == pytest.approx(mean_scaled, abs=1e-6)
