import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from jsqa.counts import count_rows
from jsqa.errors import ConfigError, RegimeMismatchError
from jsqa.limits import critical_unused_limit, exponential, gaussian, truncated_gaussian
from jsqa.model import BernoulliScaled, Binomial, Constant, RngStream
from jsqa.oracle import build_chain, exact_law, stationary
from jsqa.regimes import RegimeSpec, build_config, center_per_queue, scale, scaling_exponent
from jsqa.simulator import SampleSet
from jsqa.transform import (
    Comparison,
    classic_residual,
    critical_ode_residual,
    drift_relation_values,
    empirical_mgf,
    ks_statistic,
    moment_report,
    overloaded_ode_residual,
    ssc_estimate,
    unused_service_rate,
)

TWO_BINOMIAL = (Binomial(2, 0.25), Binomial(2, 0.25))
# empirical_mgf scales by the spec (`regimes.scale`): the total scaled by
# gamma^(1/2), and the total centered at the regime's drift/gamma scaled by
# gamma^(1/2); it takes only samples whose config is the spec's family member
# at their gamma
CRITICAL = RegimeSpec("critical", 0.0, 0.5, TWO_BINOMIAL, 4)
OVERLOADED = RegimeSpec("overloaded", 0.2, 0.0, TWO_BINOMIAL, 4)


def critical(n):
    """The critical family of n Binomial(2, 1/4) servers, CRITICAL at n = 2."""
    return replace(CRITICAL, base_services=(Binomial(2, 0.25),) * n)


def make_samples(q, u=None, gamma=0.1, batches=4, config=None):
    """Samples of the rows of `q` in equal contiguous batches, by default
    from the member of `critical(n)` at `gamma`."""
    q = np.atleast_2d(np.asarray(q, dtype=np.int64).T).T if np.ndim(q) == 1 else np.asarray(q, dtype=np.int64)
    n = q.shape[1]
    if config is None:
        config = build_config(critical(n), gamma)
    size = q.shape[0]
    u = np.zeros(size, dtype=np.int64) if u is None else np.asarray(u, dtype=np.int64)
    batch = (np.arange(size) * batches // size).astype(np.int64)
    return SampleSet.from_arrays(q=q, u_total=u, batch=batch, config=config)


class TestEmpiricalMgf:
    def test_degenerate_samples_give_one(self):
        est = empirical_mgf(make_samples(np.zeros(10), batches=1), [-1.0, 0.7], critical(1))
        assert np.allclose(est.values, 1.0)

    def test_two_point_example(self):
        # drift / gamma = 0.5 / 0.25 = 2 and gamma^(1/2) = 1/2, so the scaled
        # centered total (q - 2) / 2 is -1 or +1
        spec = RegimeSpec("overloaded", 0.5, 0.0, (Constant(1),), 2)
        config = build_config(spec, 0.25)
        samples = make_samples(np.array([4, 0] * 50), config=config, batches=1)
        est = empirical_mgf(samples, [1.0], spec)
        assert est.values[0] == pytest.approx((math.e + math.exp(-1)) / 2, rel=1e-12)
        derivative = est.batch_derivs.mean(axis=0)[0]
        assert derivative == pytest.approx((math.e - math.exp(-1)) / 2, rel=1e-12)

    @pytest.mark.parametrize("spec", [replace(CRITICAL, constant=0.5), critical(3)],
                             ids=["constant", "queue-count"])
    def test_spec_of_another_family_rejected(self, spec):
        samples = make_samples(np.ones((40, 2), dtype=int), gamma=0.1)
        with pytest.raises(ConfigError, match="not the member of the critical family at gamma=0.1"):
            empirical_mgf(samples, [0.5], spec)

    def test_value_at_zero_exact(self):
        q = RngStream(0).generator().geometric(0.2, 1000)
        est = empirical_mgf(make_samples(q, gamma=0.25, batches=8), [-1.0, 0.0, 1.0], critical(1))
        assert est.values[1] == 1.0

    def test_matches_exact_stationary_mgf(self):
        # iid draws from the exact stationary law vs the exact transform: a
        # single queue of drift 0.3 - 0.4 = -sqrt(0.1) * sqrt(0.1) at gamma 0.1
        spec = RegimeSpec("critical", -math.sqrt(0.1), 0.5, (BernoulliScaled(1, 0.4),), 1)
        config = build_config(spec, 0.1)
        chain = build_chain(config, 100)
        pi = stationary(chain)
        gen = RngStream(5).generator()
        draws = gen.choice(chain.cap + 1, size=200_000, p=pi)
        est = empirical_mgf(make_samples(draws, config=config, batches=32), [-0.5], spec)
        law = exact_law(chain, pi)
        exact = law.estimate(np.exp(math.sqrt(config.gamma) * -0.5 * law.rows.sum(axis=1)))[0]
        assert abs(est.values[0] - exact) < 4 * est.stderr[0]

    def test_analytic_derivative_matches_finite_difference(self):
        samples = make_samples(RngStream(2).generator().poisson(2.0, 5000), gamma=0.5, batches=8)
        h = 1e-4
        for phi in (-0.8, -0.1, 0.3):
            est = empirical_mgf(samples, [phi - h, phi, phi + h], critical(1))
            fd = (est.values[2] - est.values[0]) / (2 * h)
            assert abs(est.batch_derivs.mean(axis=0)[1] - fd) < 1e-6

    def test_single_batch_is_unusable(self):
        # one batch gives a NaN stderr; zero spread gives a zero stderr
        q = RngStream(1).generator().geometric(0.5, 100)
        est = empirical_mgf(make_samples(q, gamma=0.5, batches=1), [-0.5, 0.5], critical(1))
        assert np.isnan(est.stderr).all()
        assert not est.usable.any()
        flat = empirical_mgf(make_samples(np.ones(100), gamma=0.5, batches=4), [-0.5], critical(1))
        assert flat.stderr[0] == 0.0
        assert not flat.usable[0]

    def test_overflow_guard_flags_point(self):
        # exponent 0.5 * sqrt(0.5) * 5000 = 1768
        samples = make_samples(np.full(100, 5000), gamma=0.5, batches=1)
        est = empirical_mgf(samples, [0.5], critical(1))
        assert not est.usable[0]
        assert np.isnan(est.values[0])

    def test_grid_domain_enforced(self):
        for grid in ([3.0], [np.nan, 0.5], [np.inf]):
            with pytest.raises(ValueError, match=r"finite and lie within \[-2, 2\]"):
                empirical_mgf(make_samples(np.ones(4)), grid, critical(1))

    def test_statistic_extraction(self):
        samples = make_samples(np.array([[1, 3], [2, 0], [4, 4], [0, 1]]), gamma=0.25)
        grid = [0.5]
        total = empirical_mgf(samples, grid, CRITICAL)
        expect = np.exp(0.5 * 0.5 * samples.q.sum(axis=1)).mean()
        assert total.values[0] == pytest.approx(expect, rel=1e-12)


class TestSsc:
    def test_collapsed_samples_have_zero_perp(self):
        samples = make_samples(np.tile([[3, 3, 3]], (40, 1)))
        est = ssc_estimate(samples.counts)
        assert est.perp_second_moment == pytest.approx(0.0, abs=1e-12)

    def test_hand_projection(self):
        samples = make_samples(np.array([[1, 0]]), batches=1)
        est = ssc_estimate(samples.counts)
        assert est.perp_second_moment == pytest.approx(0.5)

    def test_pythagoras_identity(self):
        samples = make_samples(np.array([[3, 1, 2]]), batches=1)
        est = ssc_estimate(samples.counts)
        assert est.perp_second_moment == pytest.approx(14 - 36 / 3)

    def test_bounded_by_total(self):
        gen = RngStream(3).generator()
        samples = make_samples(gen.integers(0, 20, size=(500, 3)))
        est = ssc_estimate(samples.counts)
        assert 0.0 <= est.perp_second_moment <= est.total_second_moment

    def test_single_queue_rejected(self):
        with pytest.raises(ValueError):
            ssc_estimate(count_rows(np.array([[1], [2]]), np.zeros(2, dtype=np.int64)))


class TestUnusedRate:
    def test_zeros(self):
        est = unused_service_rate(make_samples(np.ones((20, 1), dtype=int), gamma=0.04))
        assert est.raw == 0.0 and est.critical_scaled == 0.0

    def test_scaling(self):
        samples = make_samples(np.ones((20, 1), dtype=int), u=np.tile([0, 1], 10), gamma=0.04)
        est = unused_service_rate(samples)
        assert est.raw == pytest.approx(0.5)
        assert est.critical_scaled == pytest.approx(0.5 / 0.2)


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
        res = -drift_relation_values(m, md, grid, c_c, sigma2, u_lim, 1.0)
        assert np.abs(res).max() < 1e-8

    def test_overloaded_limit_solves_ode(self):
        bar_sigma2 = 1.79
        dist = gaussian(bar_sigma2 / 2)
        grid = np.linspace(-0.5, 0.5, 11)
        m = np.array([dist.mgf(p) for p in grid])
        md = grid * (bar_sigma2 / 2) * m
        res = drift_relation_values(m, md, grid, 0.0, bar_sigma2, 0.0, 1.0)
        assert np.abs(res).max() < 1e-12


class TestResidualOps:
    def test_classic_phi_zero_is_drift_identity(self):
        gamma, alpha = 1e-3, 0.25
        spec = RegimeSpec("classic", 0.5, alpha, TWO_BINOMIAL, 4)
        config = build_config(spec, gamma)
        gen = RngStream(1).generator()
        q = gen.integers(0, 30, size=(400, 2))
        u = gen.integers(0, 2, size=400)
        samples = make_samples(q, u=u, gamma=gamma, config=config)
        mgf = empirical_mgf(samples, [-0.5, 0.0, 0.5], spec)
        points = classic_residual(mgf)
        expect = (config.drift - gamma * q.sum(1).mean() + u.mean()) / gamma**alpha
        assert points[1].estimate == pytest.approx(expect, rel=1e-10)

    def test_critical_phi_zero_is_drift_identity(self):
        gamma = 0.04
        # drift 0.3 - 0.4 = -0.5 * sqrt(0.04)
        spec = RegimeSpec("critical", -0.5, 0.5, (BernoulliScaled(1, 0.4),), 1)
        config = build_config(spec, gamma)
        gen = RngStream(2).generator()
        q = gen.integers(0, 12, size=(600, 1))
        u = gen.integers(0, 2, size=600)
        samples = make_samples(q, u=u, gamma=gamma, config=config)
        mgf = empirical_mgf(samples, [-0.5, 0.0], spec)
        points = critical_ode_residual(mgf)
        expect = (gamma * q.sum(1).mean() - config.drift - u.mean()) / math.sqrt(gamma)
        assert points[1].estimate == pytest.approx(expect, rel=1e-10)

    def test_regime_mismatch_errors(self):
        specs = {"classic": RegimeSpec("classic", 0.5, 0.25, TWO_BINOMIAL, 4),
                 "critical": CRITICAL, "overloaded": OVERLOADED}
        residuals = {"classic": classic_residual, "critical": critical_ode_residual,
                     "overloaded": overloaded_ode_residual}
        for kind, spec in specs.items():
            config = build_config(spec, 0.01)
            samples = make_samples(np.ones((40, 2), dtype=int), gamma=0.01, config=config)
            mgf = empirical_mgf(samples, [0.0], spec)
            residuals[kind](mgf)
            for other, residual in residuals.items():
                if other != kind:
                    with pytest.raises(RegimeMismatchError, match=f"MGF of the {kind} regime"):
                        residual(mgf)


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


@pytest.mark.parametrize(
    "comparison, z",
    [
        (Comparison("k", 1.0, math.nan, 1.0), math.nan),
        (Comparison("k", 2.0, 0.0, 2.0), 0.0),
        (Comparison("k", 2.0, 0.0, 1.0), math.inf),
        (Comparison("k", 0.0, 0.0, 1.0), math.inf),
        (Comparison("k", 3.0, 0.5), 6.0),
        (Comparison("k", 1.0, 0.5, 2.0), -2.0),
    ],
    ids=["nan-stderr", "zero-stderr-equal", "zero-stderr-above", "zero-stderr-below",
         "default-target", "target"],
)
def test_zscore_rule(comparison, z):
    assert comparison.zscore == pytest.approx(z, nan_ok=True)


class TestMomentReport:
    def test_degenerate_first_moment(self):
        scaled = count_rows(np.full((100, 1), 3.0), np.arange(100) // 25)
        rows = moment_report(scaled, exponential(1.0), 1)
        assert rows[0].estimate == pytest.approx(3.0)
        assert rows[0].stderr == 0.0

    def test_cross_rows_present_for_two_queues(self):
        gen = RngStream(6).generator()
        x = gen.exponential(1.0, size=(4000, 2))
        scaled = count_rows(x, np.arange(4000) // 500)
        rows = moment_report(scaled, exponential(1.0), 2)
        keys = [r.key for r in rows]
        assert "cross_m1=1_m2=1" in keys
        # independent coordinates: E[x1 x2] = 1, far from E[Y^2] = 2
        cross = next(r for r in rows if r.key == "cross_m1=1_m2=1")
        assert cross.zscore < -4

    def test_order_cap(self):
        scaled = count_rows(np.ones((10, 1)), np.zeros(10, dtype=np.int64))
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
    """Random samples, with their per-sample columns (q, u_total, batch),
    which the sample set does not keep."""
    gen = RngStream(seed).generator()
    q = gen.integers(lo, hi, size=(size, n))
    u = gen.integers(0, 3, size=size)
    batch = np.arange(size) * batches // size
    return make_samples(q, u=u, batches=batches, config=config), q, u, batch


# arrivals Binomial(4, 0.5), drift 2 - 2 * 0.5 = 1 at gamma 0.1, so the
# centered total q1 + q2 - 10 of totals in [0, 28] takes both signs
OVERLOADED_DRIFT_1 = RegimeSpec("overloaded", 1.0, 0.0, TWO_BINOMIAL, 4)
OVERLOADED_CONFIG = build_config(OVERLOADED_DRIFT_1, 0.1)
GRID = np.linspace(-1.0, 0.5, 7)


class TestMatchesPerSampleReference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spec", [CRITICAL, OVERLOADED], ids=["total", "centered-total"])
    def test_empirical_mgf(self, n, spec):
        spec = replace(spec, base_services=(Binomial(2, 0.25),) * n)
        config = build_config(spec, 0.1)
        samples, q, u, batch = random_samples(n, batches=6, seed=10 + n, config=config)
        gamma = samples.gamma
        est = empirical_mgf(samples, GRID, spec)
        x = q.sum(axis=1)
        if spec.kind == "overloaded":
            x = x - samples.config.drift / gamma
        bv, bd = ref_mgf(x, batch, gamma, GRID, 0.5)
        assert_close(est.batch_values, bv)
        assert_close(est.batch_derivs, bd)
        assert_close(est.values, bv.mean(axis=0))
        assert_close(est.stderr, ref_stderr(bv))
        assert_close(est.batch_u_mean, ref_batch_means(u, batch))

    def test_centered_total_takes_both_signs(self):
        samples, q, u, batch = random_samples(2, batches=5, seed=3, hi=15, config=OVERLOADED_CONFIG)
        x = q.sum(axis=1) - OVERLOADED_CONFIG.drift / 0.1
        assert x.min() < 0 < x.max()
        est = empirical_mgf(samples, GRID, OVERLOADED_DRIFT_1)
        bv, bd = ref_mgf(x, batch, 0.1, GRID, 0.5)
        assert_close(est.batch_values, bv)
        assert_close(est.batch_derivs, bd)

    @pytest.mark.parametrize("n", [2, 3])
    def test_ssc(self, n):
        samples, q, u, batch = random_samples(n, batches=6, seed=20 + n)
        q = q.astype(float)
        sq = (q**2).sum(axis=1)
        perp = ref_batch_means(sq - q.sum(axis=1) ** 2 / n, batch)
        est = ssc_estimate(samples.counts)
        assert_close(est.perp_second_moment, perp.mean())
        assert_close(est.total_second_moment, ref_batch_means(sq, batch).mean())
        assert_close(est.stderr, ref_stderr(perp))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_moment_report_on_overloaded_scale(self, n):
        services = (Binomial(2, 0.25),) * n
        spec = RegimeSpec("overloaded", 0.2, 0.0, services, 4)
        gamma = 0.05
        config = build_config(spec, gamma)
        # per-queue center 0.2 / (n * gamma) = 4 / n: scaled coordinates of
        # both signs
        samples, q, u, batch = random_samples(n, batches=6, seed=30 + n, hi=10, config=config)
        x = gamma ** scaling_exponent(spec) * (q - center_per_queue(spec, gamma))
        assert x.min() < 0 < x.max()
        rows = moment_report(scale(samples.counts, spec, gamma), gaussian(1.0), 4)
        pooled, pooled_batch = x.reshape(-1), np.repeat(batch, n)
        expected = [ref_batch_means(pooled**m, pooled_batch) for m in range(1, 5)]
        if n >= 2:
            expected += [
                ref_batch_means(x[:, 0] ** m1 * x[:, 1] ** m2, batch)
                for m1 in range(1, 4)
                for m2 in range(1, 5 - m1)
            ]
        assert len(rows) == len(expected)
        for row, bm in zip(rows, expected):
            assert_close(row.estimate, bm.mean())
            assert_close(row.stderr, ref_stderr(bm))

    def test_single_batch_stays_unusable(self):
        samples, q, u, batch = random_samples(2, batches=1, seed=40)
        est = empirical_mgf(samples, GRID, CRITICAL)
        assert np.isnan(est.stderr).all()
        assert not est.usable.any()
        assert math.isnan(ssc_estimate(samples.counts).stderr)
        assert math.isnan(unused_service_rate(samples).stderr_raw)
        scaled = count_rows(q.astype(float), batch)
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
        spec = OVERLOADED
        gamma = 0.05
        config = build_config(spec, gamma)
        samples, q, u, batch = random_samples(2, batches=4, seed=50, hi=10, config=config)
        scaled = scale(samples.counts, spec, gamma)
        x0 = gamma ** scaling_exponent(spec) * (q[:, 0] - center_per_queue(spec, gamma))
        dist = gaussian(0.8)
        assert ks_statistic(scaled.rows[:, 0], dist, scaled.pooled) == ref_ks(x0, dist)
