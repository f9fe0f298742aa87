import math

import numpy as np
import pytest
from scipy import integrate

from jsqa.errors import RegimeMismatchError
from jsqa.limits import critical_unused_limit, exponential, gaussian, truncated_gaussian
from jsqa.model import BernoulliScaled, Binomial, RngStream, SystemConfig
from jsqa.oracle import build_chain, oracle_mgf, stationary
from jsqa.regimes import RegimeSpec, ScaledSampleSet, build_config, scale
from jsqa.simulator import SampleSet, SamplingPlan
from jsqa.transform import (
    classic_residual,
    critical_ode_residual,
    critical_residual_values,
    drift_relation_values,
    empirical_mgf,
    ks_statistic,
    ks_two_sample,
    mgf_from_values,
    moment_report,
    overloaded_ode_residual,
    overloaded_residual_values,
    ssc_estimate,
    unused_service_rate,
)

PLAN = SamplingPlan(warmup_slots=10, num_samples=10, thinning=1, replicas=1)


def make_samples(q, u=None, gamma=0.1, batches=4, config=None):
    q = np.atleast_2d(np.asarray(q, dtype=np.int64).T).T if np.ndim(q) == 1 else np.asarray(q, dtype=np.int64)
    n = q.shape[1]
    if config is None:
        config = SystemConfig(
            n=n, gamma=gamma, arrivals=Binomial(2, 0.3), services=(Binomial(2, 0.3),) * n
        )
    size = q.shape[0]
    u = np.zeros(size, dtype=np.int64) if u is None else np.asarray(u, dtype=np.int64)
    batch = (np.arange(size) * batches // size).astype(np.int64)
    return SampleSet(q=q, u_total=u, batch=batch, config=config, plan=PLAN, seed=0)


class TestEmpiricalMgf:
    def test_degenerate_samples_give_one(self):
        est = mgf_from_values(np.zeros(10), np.zeros(10, dtype=int), 1.0, [-1.0, 0.7])
        assert np.allclose(est.values, 1.0)

    def test_two_point_example(self):
        x = np.array([1.0, -1.0] * 50)
        est = mgf_from_values(x, np.zeros(100, dtype=int), 1.0, [1.0])
        assert est.values[0] == pytest.approx((math.e + math.exp(-1)) / 2, rel=1e-12)
        assert est.derivatives[0] == pytest.approx((math.e - math.exp(-1)) / 2, rel=1e-12)

    def test_value_at_zero_exact(self):
        x = RngStream(0).generator().exponential(3.0, 1000)
        est = mgf_from_values(x, np.arange(1000) % 8, 0.25, [-1.0, 0.0, 1.0])
        assert est.values[1] == 1.0

    def test_matches_exact_stationary_mgf(self):
        # iid draws from the exact stationary law vs the exact transform
        config = SystemConfig(
            n=1, gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
        )
        chain = build_chain(config, 100)
        pi = stationary(chain)
        gen = RngStream(5).generator()
        draws = gen.choice(chain.cap + 1, size=200_000, p=pi)
        est = mgf_from_values(draws.astype(float), np.arange(draws.size) % 32, 0.1, [-0.5])
        exact = oracle_mgf(chain, pi, 0.1, -0.5)
        assert abs(est.values[0] - exact) < 4 * est.stderr[0]

    def test_analytic_derivative_matches_finite_difference(self):
        x = RngStream(2).generator().gamma(2.0, 1.0, 5000)
        h = 1e-4
        for phi in (-0.8, -0.1, 0.3):
            est = mgf_from_values(x, np.arange(5000) % 8, 0.5, [phi - h, phi, phi + h])
            fd = (est.values[2] - est.values[0]) / (2 * h)
            assert abs(est.derivatives[1] - fd) < 1e-6

    def test_single_batch_is_unusable(self):
        # one batch gives a NaN stderr; zero spread gives a zero stderr
        x = RngStream(1).generator().exponential(1.0, 100)
        est = mgf_from_values(x, np.zeros(100, dtype=int), 0.5, [-0.5, 0.5])
        assert np.isnan(est.stderr).all()
        assert not est.usable.any()
        flat = mgf_from_values(np.ones(100), np.arange(100) % 4, 0.5, [-0.5])
        assert flat.stderr[0] == 0.0
        assert not flat.usable[0]

    def test_overflow_guard_flags_point(self):
        x = np.full(100, 5000.0)
        est = mgf_from_values(x, np.zeros(100, dtype=int), 1.0, [0.5])
        assert not est.usable[0]
        assert np.isnan(est.values[0])

    def test_grid_domain_enforced(self):
        with pytest.raises(ValueError, match=r"\[-2, 2\]"):
            mgf_from_values(np.ones(4), np.zeros(4, dtype=int), 0.1, [3.0])

    def test_statistic_extraction(self):
        samples = make_samples(np.array([[1, 3], [2, 0], [4, 4], [0, 1]]), gamma=0.25)
        grid = [0.5]
        total = empirical_mgf(samples, 0.25, grid, "total")
        expect = np.exp(0.5 * 0.5 * samples.totals()).mean()
        assert total.values[0] == pytest.approx(expect, rel=1e-12)
        pooled = empirical_mgf(samples, 0.25, grid, "per-queue")
        expect = np.exp(0.5 * 0.5 * samples.q.reshape(-1)).mean()
        assert pooled.values[0] == pytest.approx(expect, rel=1e-12)
        with pytest.raises(ValueError):
            empirical_mgf(samples, 0.25, grid, "median")


class TestSsc:
    def test_collapsed_samples_have_zero_perp(self):
        samples = make_samples(np.tile([[3, 3, 3]], (40, 1)))
        est = ssc_estimate(samples)
        assert est.perp_second_moment == pytest.approx(0.0, abs=1e-12)

    def test_hand_projection(self):
        samples = make_samples(np.array([[1, 0]]), batches=1)
        est = ssc_estimate(samples)
        assert est.perp_second_moment == pytest.approx(0.5)

    def test_pythagoras_identity(self):
        samples = make_samples(np.array([[3, 1, 2]]), batches=1)
        est = ssc_estimate(samples)
        assert est.perp_second_moment == pytest.approx(14 - 36 / 3)

    def test_bounded_by_total(self):
        gen = RngStream(3).generator()
        samples = make_samples(gen.integers(0, 20, size=(500, 3)))
        est = ssc_estimate(samples)
        assert 0.0 <= est.perp_second_moment <= est.total_second_moment

    def test_single_queue_rejected(self):
        with pytest.raises(ValueError):
            ssc_estimate(make_samples(np.array([[1], [2]])))


class TestUnusedRate:
    def test_zeros(self):
        est = unused_service_rate(make_samples(np.ones((20, 1), dtype=int)), 0.04)
        assert est.raw == 0.0 and est.critical_scaled == 0.0

    def test_scaling(self):
        samples = make_samples(np.ones((20, 1), dtype=int), u=np.tile([0, 1], 10))
        est = unused_service_rate(samples, 0.04)
        assert est.raw == pytest.approx(0.5)
        assert est.critical_scaled == pytest.approx(0.5 / 0.2)


TWO_BINOMIAL = (Binomial(2, 0.25), Binomial(2, 0.25))


class TestResidualFixedPoints:
    def test_classic_limit_is_exact_root(self):
        # as gamma -> 0 the abandonment weight gamma^(1 - 2 alpha) vanishes and
        # the scaled unused service tends to minus the scaled drift
        sigma2, c_f = 1.5, 0.5
        mean = sigma2 / (2 * c_f)
        dist = exponential(mean)
        grid = np.linspace(-1, 0.6, 20)
        m = np.array([dist.mgf(p) for p in grid])
        md = mean * m**2
        res = drift_relation_values(m, md, grid, -c_f, sigma2, c_f, 0.0)
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("c_c,sigma2", [(0.0, 2.0), (0.5, 1.5), (-0.7, 1.2)])
    def test_critical_limit_solves_ode(self, c_c, sigma2):
        dist = truncated_gaussian(c_c, sigma2 / 2)
        u_lim = critical_unused_limit(c_c, sigma2)
        grid = np.linspace(-1, 0, 9)
        m = np.array([dist.mgf(p) for p in grid])
        # derivative by quadrature against the truncated density, independent
        # of the erf closed form being tested
        md = np.array(
            [
                integrate.quad(
                    lambda x: x * math.exp(p * x) * dist.pdf(x), 0, 80, epsrel=1e-11, limit=400
                )[0]
                for p in grid
            ]
        )
        res = critical_residual_values(m, md, grid, c_c, sigma2, u_lim)
        assert np.abs(res).max() < 1e-8

    def test_overloaded_limit_solves_ode(self):
        bar_sigma2 = 1.79
        dist = gaussian(bar_sigma2 / 2)
        grid = np.linspace(-0.5, 0.5, 11)
        m = np.array([dist.mgf(p) for p in grid])
        md = grid * (bar_sigma2 / 2) * m
        res = overloaded_residual_values(m, md, grid, bar_sigma2)
        assert np.abs(res).max() < 1e-12


class TestResidualOps:
    def test_classic_phi_zero_is_drift_identity(self):
        gamma, alpha = 1e-3, 0.25
        spec = RegimeSpec("classic", 0.5, alpha, TWO_BINOMIAL, 4)
        config = SystemConfig(n=2, gamma=gamma, arrivals=Binomial(4, 0.25), services=TWO_BINOMIAL)
        gen = RngStream(1).generator()
        q = gen.integers(0, 30, size=(400, 2))
        u = gen.integers(0, 2, size=400)
        samples = make_samples(q, u=u, gamma=gamma, config=config)
        mgf = empirical_mgf(samples, gamma, [-0.5, 0.0, 0.5], "total", exponent=alpha)
        points = classic_residual(mgf, config, spec)
        expect = (config.drift - gamma * q.sum(1).mean() + u.mean()) / gamma**alpha
        assert points[1].residual == pytest.approx(expect, rel=1e-10)

    def test_critical_phi_zero_is_drift_identity(self):
        gamma = 0.04
        config = SystemConfig(
            n=1, gamma=gamma, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
        )
        gen = RngStream(2).generator()
        q = gen.integers(0, 12, size=(600, 1))
        u = gen.integers(0, 2, size=600)
        samples = make_samples(q, u=u, gamma=gamma, config=config)
        mgf = empirical_mgf(samples, gamma, [-0.5, 0.0], "total")
        points = critical_ode_residual(mgf, config)
        expect = (gamma * q.sum(1).mean() - config.drift - u.mean()) / math.sqrt(gamma)
        assert points[1].residual == pytest.approx(expect, rel=1e-10)

    def test_regime_mismatch_errors(self):
        spec = RegimeSpec("critical", 0.0, 0.5, TWO_BINOMIAL, 4)
        config = SystemConfig(n=2, gamma=0.01, arrivals=Binomial(4, 0.25), services=TWO_BINOMIAL)
        samples = make_samples(np.ones((40, 2), dtype=int), gamma=0.01, config=config)
        mgf = empirical_mgf(samples, 0.01, [0.0], "total")
        with pytest.raises(RegimeMismatchError):
            classic_residual(mgf, config, spec)
        centered = empirical_mgf(samples, 0.01, [0.0], "centered-total")
        with pytest.raises(RegimeMismatchError):
            critical_ode_residual(centered, config)
        with pytest.raises(RegimeMismatchError):
            overloaded_ode_residual(mgf, config)


class TestKs:
    def test_single_sample_at_origin(self):
        assert ks_statistic([0.0], exponential(1.0)) == pytest.approx(1.0)

    def test_exact_quantiles_nearly_perfect(self):
        n = 999
        dist = exponential(0.8)
        quantiles = [-0.8 * math.log(1 - k / (n + 1)) for k in range(1, n + 1)]
        assert ks_statistic(quantiles, dist) <= 2 / (n + 1)

    def test_true_samples_within_critical_value(self):
        n = 100_000
        gen = RngStream(4).generator()
        draws = gen.exponential(0.8, n)
        assert ks_statistic(draws, exponential(0.8)) < 1.95 / math.sqrt(n)

    def test_within_unit_interval(self):
        gen = RngStream(5).generator()
        draws = gen.normal(10.0, 1.0, 1000)
        assert 0.0 <= ks_statistic(draws, exponential(0.1)) <= 1.0

    def test_two_sample_identical(self):
        x = np.arange(10.0)
        assert ks_two_sample(x, x) == 0.0

    def test_two_sample_disjoint(self):
        assert ks_two_sample([1.0, 2.0], [5.0, 6.0]) == pytest.approx(1.0)


class TestMomentReport:
    def test_degenerate_first_moment(self):
        scaled = ScaledSampleSet(
            x=np.full((100, 1), 3.0),
            x_total=np.full(100, 3.0),
            batch=(np.arange(100) // 25).astype(np.int64),
            kind="classic",
            gamma=0.01,
        )
        rows = moment_report(scaled, exponential(1.0), 1)
        assert rows[0].empirical == pytest.approx(3.0)
        assert rows[0].stderr == 0.0

    def test_cross_rows_present_for_two_queues(self):
        gen = RngStream(6).generator()
        x = gen.exponential(1.0, size=(4000, 2))
        scaled = ScaledSampleSet(
            x=x, x_total=x.sum(1), batch=(np.arange(4000) // 500).astype(np.int64),
            kind="classic", gamma=0.01,
        )
        rows = moment_report(scaled, exponential(1.0), 2)
        labels = [r.label for r in rows]
        assert "cross m1=1 m2=1" in labels
        # independent coordinates: E[x1 x2] = 1, far from E[Y^2] = 2
        cross = next(r for r in rows if r.label == "cross m1=1 m2=1")
        assert cross.zscore < -4

    def test_order_cap(self):
        scaled = ScaledSampleSet(
            x=np.ones((10, 1)), x_total=np.ones(10), batch=np.zeros(10, dtype=np.int64),
            kind="classic", gamma=0.1,
        )
        with pytest.raises(ValueError):
            moment_report(scaled, exponential(1.0), 5)


# Per-sample reference estimators: the formulas the count-table estimators
# replace, folded over every sample instead of every distinct state.


def ref_batch_means(values, batch):
    sizes = np.bincount(batch)
    return np.bincount(batch, weights=np.asarray(values, dtype=float)) / sizes


def ref_stderr(bm):
    if bm.shape[0] < 2:
        return np.full(bm.shape[1:], np.nan)
    return np.std(bm, axis=0, ddof=1) / math.sqrt(bm.shape[0])


def ref_mgf(x, batch, gamma, grid, exponent):
    scaled = gamma**exponent * np.asarray(x, dtype=float)
    bv = np.column_stack([ref_batch_means(np.exp(p * scaled), batch) for p in grid])
    bd = np.column_stack([ref_batch_means(scaled * np.exp(p * scaled), batch) for p in grid])
    return bv, bd


def ref_ks(x, dist):
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    cdf = dist.cdf(x)
    return float(max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(0, n) / n).max()))


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


def random_samples(n, batches, seed, lo=0, hi=15, size=3000, config=None):
    gen = RngStream(seed).generator()
    q = gen.integers(lo, hi, size=(size, n))
    u = gen.integers(0, 3, size=size)
    return make_samples(q, u=u, batches=batches, config=config)


# drift 2 - 2 * 0.5 = 1 at gamma 0.1, so the centered total q1 + q2 - 10 of
# totals in [0, 28] takes both signs
OVERLOADED_CONFIG = SystemConfig(
    n=2, gamma=0.1, arrivals=Binomial(4, 0.5), services=(Binomial(2, 0.25),) * 2
)
GRID = np.linspace(-1.0, 0.5, 7)


class TestMatchesPerSampleReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("statistic", ["per-queue", "total", "centered-total"])
    def test_empirical_mgf(self, n, statistic):
        samples = random_samples(n, batches=6, seed=10 + n)
        gamma = samples.gamma
        est = empirical_mgf(samples, gamma, GRID, statistic, exponent=0.5)
        batch = samples.batch
        if statistic == "per-queue":
            x, batch = samples.q.reshape(-1), np.repeat(batch, n)
        elif statistic == "total":
            x = samples.totals()
        else:
            x = samples.totals() - samples.config.drift / gamma
        bv, bd = ref_mgf(x, batch, gamma, GRID, 0.5)
        assert_close(est.batch_values, bv)
        assert_close(est.batch_derivs, bd)
        assert_close(est.values, bv.mean(axis=0))
        assert_close(est.derivatives, bd.mean(axis=0))
        assert_close(est.stderr, ref_stderr(bv))
        if statistic == "per-queue":
            assert est.batch_u_mean is None
        else:
            assert_close(est.batch_u_mean, ref_batch_means(samples.u_total, samples.batch))

    def test_centered_total_takes_both_signs(self):
        samples = random_samples(2, batches=5, seed=3, hi=15, config=OVERLOADED_CONFIG)
        x = samples.totals() - OVERLOADED_CONFIG.drift / 0.1
        assert x.min() < 0 < x.max()
        est = empirical_mgf(samples, 0.1, GRID, "centered-total")
        bv, bd = ref_mgf(x, samples.batch, 0.1, GRID, 0.5)
        assert_close(est.batch_values, bv)
        assert_close(est.batch_derivs, bd)

    def test_continuous_values(self):
        gen = RngStream(8).generator()
        x = gen.normal(0.0, 3.0, 2000)
        batch = np.arange(2000) % 7
        u = gen.integers(0, 2, 2000)
        est = mgf_from_values(x, batch, 0.2, GRID, exponent=0.5, u_total=u)
        bv, bd = ref_mgf(x, batch, 0.2, GRID, 0.5)
        assert_close(est.batch_values, bv)
        assert_close(est.batch_derivs, bd)
        assert_close(est.batch_u_mean, ref_batch_means(u, batch))

    @pytest.mark.parametrize("n", [2, 3])
    def test_ssc(self, n):
        samples = random_samples(n, batches=6, seed=20 + n)
        q = samples.q.astype(float)
        sq = (q**2).sum(axis=1)
        perp = ref_batch_means(sq - q.sum(axis=1) ** 2 / n, samples.batch)
        est = ssc_estimate(samples)
        assert_close(est.perp_second_moment, perp.mean())
        assert_close(est.total_second_moment, ref_batch_means(sq, samples.batch).mean())
        assert_close(est.stderr, ref_stderr(perp))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moment_report_on_overloaded_scale(self, n):
        services = (Binomial(2, 0.25),) * n
        spec = RegimeSpec("overloaded", 0.2, 0.0, services, 4)
        gamma = 0.05
        config = build_config(spec, gamma)
        # per-queue center 0.2 / (n * gamma) = 4 / n: scaled coordinates of
        # both signs
        samples = random_samples(n, batches=6, seed=30 + n, hi=10, config=config)
        scaled = scale(samples, spec, gamma)
        assert scaled.x.min() < 0 < scaled.x.max()
        rows = moment_report(scaled, gaussian(1.0), 4)
        pooled, pooled_batch = scaled.x.reshape(-1), np.repeat(scaled.batch, n)
        expected = [ref_batch_means(pooled**m, pooled_batch) for m in range(1, 5)]
        if n >= 2:
            x = scaled.x
            expected += [
                ref_batch_means(x[:, 0] ** m1 * x[:, 1] ** m2, scaled.batch)
                for m1 in range(1, 4)
                for m2 in range(1, 5 - m1)
            ]
        assert len(rows) == len(expected)
        for row, bm in zip(rows, expected):
            assert_close(row.empirical, bm.mean())
            assert_close(row.stderr, ref_stderr(bm))

    def test_single_batch_stays_unusable(self):
        samples = random_samples(2, batches=1, seed=40)
        est = empirical_mgf(samples, samples.gamma, GRID, "total")
        assert np.isnan(est.stderr).all()
        assert not est.usable.any()
        assert math.isnan(ssc_estimate(samples).stderr)
        assert math.isnan(unused_service_rate(samples, samples.gamma).stderr_raw)
        x = samples.q.astype(float)
        scaled = ScaledSampleSet(x=x, x_total=x.sum(1), batch=samples.batch, kind="classic",
                                 gamma=samples.gamma)
        for row in moment_report(scaled, exponential(1.0), 2):
            assert math.isnan(row.stderr)
            assert math.isnan(row.zscore)

    def test_ks_with_ties_is_exact(self):
        gen = RngStream(9).generator()
        x = gen.integers(0, 12, 5000) * 0.25
        dist = exponential(1.0)
        assert ks_statistic(x, dist) == ref_ks(x, dist)
        points, counts = np.unique(x, return_counts=True)
        assert ks_statistic(points, dist, counts.astype(float)) == ref_ks(x, dist)

    def test_ks_of_scaled_coordinate_is_exact(self):
        spec = RegimeSpec("overloaded", 0.2, 0.0, TWO_BINOMIAL, 4)
        gamma = 0.05
        samples = random_samples(2, batches=4, seed=50, hi=10, config=build_config(spec, gamma))
        scaled = scale(samples, spec, gamma)
        dist = gaussian(0.8)
        counts = scaled.counts
        assert ks_statistic(counts.rows[:, 0], dist, counts.pooled) == ref_ks(scaled.x[:, 0], dist)
