import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import truncnorm

from jsqa.limits import (
    LimitDistribution,
    critical_unused_limit,
    exponential,
    gaussian,
    limit_for_regime,
    truncated_gaussian,
)
from jsqa.model import Binomial
from jsqa.regimes import RegimeSpec, limit_sigma2

TWO_BINOMIAL = (Binomial(2, 0.25), Binomial(2, 0.25))


class TestLimitForRegime:
    def test_classic_exponential_mean(self):
        spec = RegimeSpec("classic", 0.5, 0.25, TWO_BINOMIAL, 4)
        per_coord, total = limit_for_regime(spec)
        # sigma2 = 1.5, n = 2: per-coordinate mean sigma2 / (2 n constant)
        assert per_coord.kind == "exponential"
        assert per_coord.mean == pytest.approx(0.75)
        assert total.mean == pytest.approx(1.5)

    def test_critical_half_normal(self):
        # service mean 2 with variance 1; arrivals at the balance point add
        # another 1, so sigma2 = 2 and n=1 gives underlying N(0, 1)
        spec = RegimeSpec("critical", 0.0, 0.5, (Binomial(4, 0.5),), 4)
        per_coord, total = limit_for_regime(spec)
        assert per_coord.kind == "truncated-gaussian"
        assert per_coord.mu0 == 0.0
        assert per_coord.var == pytest.approx(1.0)
        assert total.var == pytest.approx(1.0)

    def test_overloaded_gaussian_variance(self):
        spec = RegimeSpec("overloaded", 0.2, 0.0, TWO_BINOMIAL, 4)
        per_coord, total = limit_for_regime(spec)
        assert per_coord.kind == "gaussian"
        assert per_coord.var == pytest.approx(1.79 / 8)
        assert total.var == pytest.approx(1.79 / 2)


class TestPdfCdf:
    def test_exponential_boundaries(self):
        dist = exponential(0.75)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(1e9) == pytest.approx(1.0)
        assert dist.pdf(-1.0) == 0.0

    def test_half_normal_density_at_origin(self):
        dist = truncated_gaussian(0.0, 1.0)
        assert dist.pdf(0.0) == pytest.approx(2.0 / math.sqrt(2 * math.pi), rel=1e-12)
        # quadrature normalization oracle
        mass, _ = integrate.quad(dist.pdf, 0, 40)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_median(self):
        assert gaussian(0.25).cdf(0.0) == pytest.approx(0.5)

    def test_truncated_gaussian_no_mass_below_zero(self):
        dist = truncated_gaussian(-0.4, 0.7)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(-3.0) == 0.0
        assert dist.pdf(-0.1) == 0.0

    @pytest.mark.parametrize(
        "dist",
        [exponential(0.6), truncated_gaussian(0.3, 0.8), truncated_gaussian(-0.5, 1.3), gaussian(0.9)],
    )
    def test_cdf_matches_integrated_pdf(self, dist):
        # 100-point grid, tolerance 1e-8
        lo = 0.0 if dist.kind != "gaussian" else -4.0
        grid = np.linspace(lo, 5.0, 100)
        acc = dist.cdf(lo)
        prev = lo
        for x in grid[1:]:
            inc, _ = integrate.quad(dist.pdf, prev, x, epsabs=1e-12)
            acc += inc
            prev = x
            assert abs(dist.cdf(x) - acc) < 1e-8
        assert np.all(np.diff(dist.cdf(grid)) >= 0)


class TestMgf:
    @pytest.mark.parametrize(
        "dist",
        [exponential(0.5), truncated_gaussian(0.2, 0.6), gaussian(1.0)],
    )
    def test_normalization(self, dist):
        assert dist.mgf(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_closed_form(self):
        # variance bar_sigma2 / (2 n^2) with bar_sigma2 = 2, n = 1
        assert gaussian(1.0).mgf(1.0) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_exponential_value_and_domain(self):
        dist = exponential(0.5)
        assert dist.mgf(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            dist.mgf(2.0)

    @pytest.mark.parametrize("mu0,var", [(0.0, 1.0), (0.7, 0.5), (-0.6, 1.4)])
    def test_truncated_mgf_matches_quadrature(self, mu0, var):
        dist = truncated_gaussian(mu0, var)
        for phi in np.linspace(-2, 2, 9):
            val, _ = integrate.quad(
                lambda x: math.exp(phi * x) * dist.pdf(x), 0, 60, epsrel=1e-12, limit=300
            )
            assert dist.mgf(phi) == pytest.approx(val, rel=1e-8)

    @pytest.mark.parametrize(
        "dist",
        [exponential(0.8), truncated_gaussian(0.4, 0.9), gaussian(0.7)],
    )
    def test_derivative_at_zero_is_first_moment(self, dist):
        h = 1e-5
        fd = (dist.mgf(h) - dist.mgf(-h)) / (2 * h)
        assert abs(fd - dist.moment(1)) < 1e-6


class TestMoments:
    def test_exponential_second_moment(self):
        assert exponential(0.75).moment(2) == pytest.approx(1.125)

    def test_half_normal_mean(self):
        # quadrature oracle over the truncated density
        assert truncated_gaussian(0.0, 1.0).moment(1) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-8
        )

    # mu0 / sd from a law far above zero, through the half normal, to one
    # pressed against zero (largest error measured: 4.6e-14)
    @pytest.mark.parametrize("sd", [0.7, 2.0])
    @pytest.mark.parametrize("ratio", [200, 50, 20, 8, 2, 0, -0.5, -2, -8, -12, -40])
    def test_truncated_moments_match_quadrature(self, ratio, sd):
        dist = truncated_gaussian(ratio * sd, sd**2)
        # the body: about sd / |ratio| wide against zero, or at the mean
        points = [sd / max(1.0, -ratio)] + [dist.mu0] * (ratio > 1)
        for m in range(1, 5):
            ref, _ = integrate.quad(
                lambda x: x**m * dist.pdf(x), 0.0, max(dist.mu0, 0.0) + 40.0 * sd,
                points=points, epsrel=1e-12, epsabs=0.0, limit=500,
            )
            assert dist.moment(m) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sd", [0.5, 0.7, 2.0])
    def test_half_normal_even_moments(self, sd):
        dist = truncated_gaussian(0.0, sd**2)
        assert dist.moment(2) == pytest.approx(sd**2, rel=1e-14, abs=0.0)
        assert dist.moment(4) == pytest.approx(3 * sd**4, rel=1e-14, abs=0.0)

    def test_gaussian_moments(self):
        dist = gaussian(0.25)
        assert dist.moment(3) == 0.0
        assert dist.moment(2) == pytest.approx(0.25)
        assert dist.moment(4) == pytest.approx(3 * 0.25**2)

    def test_order_domain(self):
        with pytest.raises(ValueError):
            exponential(1.0).moment(0)


# mu0 / sd for the truncated law: a critical family with constant C has
# mu0 / sd = C * sqrt(2) / sigma per coordinate, so C = -8 on servers with
# sigma2 = 1.5 already gives -9.24, where Phi(mu0 / sd) is below 1e-19
TAIL_RATIOS = [1.0, -2.0, -8.0, -12.0, -40.0]
TAIL_SD = 0.7


def _tail_pair(ratio):
    """(closed form, scipy reference) for the zero-truncated N(ratio * sd, sd^2)."""
    mu0 = ratio * TAIL_SD
    return truncated_gaussian(mu0, TAIL_SD**2), truncnorm(-ratio, np.inf, loc=mu0, scale=TAIL_SD)


class TestTruncatedGaussianFarBelowZero:
    # the grid resolves the body of the law, whose width is about
    # sd / |ratio| for a mean far below zero
    GRID = TAIL_SD * np.array([0.0, 1e-3, 0.01, 0.05, 0.2, 1.0, 5.0])

    @pytest.mark.parametrize("ratio", TAIL_RATIOS)
    def test_cdf_matches_truncnorm(self, ratio):
        dist, ref = _tail_pair(ratio)
        assert np.abs(dist.cdf(self.GRID) - ref.cdf(self.GRID)).max() < 1e-12

    @pytest.mark.parametrize("ratio", TAIL_RATIOS)
    def test_pdf_matches_truncnorm(self, ratio):
        # x = 0 is left out: scipy's support starts at loc + a * scale, which
        # can round to just above 0
        dist, ref = _tail_pair(ratio)
        x = self.GRID[1:]
        np.testing.assert_allclose(dist.pdf(x), ref.pdf(x), rtol=1e-10)

    @pytest.mark.parametrize("ratio", TAIL_RATIOS)
    def test_low_moments_match_truncnorm(self, ratio):
        # scipy's own third and fourth moments drift by up to 3% at ratio -40,
        # so only the mean and the second moment serve as a reference
        dist, ref = _tail_pair(ratio)
        mean, var = ref.stats("mv")
        assert dist.moment(1) == pytest.approx(mean, rel=1e-6)
        assert dist.moment(2) == pytest.approx(var + mean**2, rel=1e-6)

    @pytest.mark.parametrize("ratio", TAIL_RATIOS)
    def test_mgf_matches_quadrature(self, ratio):
        dist, ref = _tail_pair(ratio)
        width = TAIL_SD / max(1.0, -ratio)
        for phi in (-2.0, -1.0, 0.5, 2.0):
            top = max(dist.mu0, 0.0) + max(phi, 0.0) * dist.var + 40.0 * TAIL_SD
            val, _ = integrate.quad(
                lambda x: math.exp(phi * x) * ref.pdf(x), 0.0, top,
                points=[width], epsrel=1e-12, limit=300,
            )
            assert dist.mgf(phi) == pytest.approx(val, rel=1e-9)


class TestCriticalUnusedLimit:
    def test_zero_constant_value(self):
        assert critical_unused_limit(0.0, 2.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-10)

    def test_matches_quadrature(self):
        # large |c| included: the limit is 20.02 at c = -20, sigma2 = 1
        for c_c, sigma2 in [
            (0.0, 2.0), (0.5, 1.5), (-0.8, 1.1), (2.0, 3.0),
            (-20.0, 1.0), (-40.0, 1.0), (20.0, 1.0),
        ]:
            integral, _ = integrate.quad(
                lambda s: math.exp(-(s**2) * sigma2 / 4.0 - c_c * s), -60, 0, epsrel=1e-12
            )
            assert critical_unused_limit(c_c, sigma2) == pytest.approx(1 / integral, rel=1e-9)
        # at c = 40 the true value, about exp(-1600), is below the smallest double
        assert critical_unused_limit(40.0, 1.0) == 0.0

    def test_monotone_in_constant(self):
        vals = [critical_unused_limit(c, 2.0) for c in (1.0, 2.0, 4.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_doubling_never_increases(self):
        for c in (0.1, 0.4, 1.3):
            assert critical_unused_limit(2 * c, 2.0) <= critical_unused_limit(c, 2.0)

    def test_sigma2_domain(self):
        with pytest.raises(ValueError):
            critical_unused_limit(0.0, 0.0)


# the critical family on two Binomial(2, 1/4) servers with arrivals bounded
# by 8: sigma2 = 0.875 + 0.75
PHASE_SIGMA2 = 1.625


def critical_total(c_c):
    """The critical family's scaled-total limit, TN(c_c, sigma2 / 2)."""
    spec = RegimeSpec("critical", c_c, 0.5, TWO_BINOMIAL, 8)
    assert limit_sigma2(spec)[0] == PHASE_SIGMA2
    return limit_for_regime(spec)[1]


class TestPhaseTransition:
    """The critical limit in closed form at both ends of its constant: far
    below zero its total is nearly the classic exponential, far above it
    nearly the overloaded Gaussian."""

    @pytest.mark.parametrize("c_c", [-40.0, -5.0, -0.5, 0.0, 0.5, 2.0])
    def test_unused_limit_is_the_total_mean_less_the_constant(self, c_c):
        # both are sd * phi(c_c / sd) / Phi(c_c / sd), sd^2 = sigma2 / 2
        # (largest error measured: 1.9e-15)
        mean = critical_total(c_c).moment(1)
        assert critical_unused_limit(c_c, PHASE_SIGMA2) == pytest.approx(mean - c_c, rel=1e-12)

    def test_far_below_zero_the_total_is_exponential(self):
        # sup CDF distance to the exponential of the same mean: 6.3e-3,
        # 1.8e-3, 4.6e-4 and 1.2e-4, about 4x less per doubling of |c_c|
        distances = []
        for c_c in (-5.0, -10.0, -20.0, -40.0):
            total = critical_total(c_c)
            mean = total.moment(1)
            x = mean * np.linspace(0.0, 30.0, 3001)
            distances.append(np.abs(total.cdf(x) - exponential(mean).cdf(x)).max())
        ratios = np.array(distances[:-1]) / distances[1:]
        assert ((3.4 < ratios) & (ratios < 4.1)).all()
        assert distances[-1] < 1.3e-4

    def test_far_above_zero_the_total_is_gaussian(self):
        # centered at its mean, sup CDF distance to N(0, sigma2 / 2): 1.2e-2,
        # 4.3e-4 and 2.6e-8
        distances = []
        for c_c in (2.0, 3.0, 5.0):
            total = critical_total(c_c)
            mean = total.moment(1)
            x = np.linspace(-mean, 10.0 * math.sqrt(total.var), 3001)
            distances.append(np.abs(total.cdf(x + mean) - gaussian(total.var).cdf(x)).max())
        assert distances[0] > distances[1] > distances[2]
        assert distances[-1] < 1e-7


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        exponential(0.0)
    with pytest.raises(ValueError):
        gaussian(-1.0)
    with pytest.raises(ValueError):
        truncated_gaussian(0.0, 0.0)
    # a parameter the kind does not read would be silently ignored
    for params in (
        dict(kind="gaussian", mean=1.0, var=1.0),
        dict(kind="truncated-gaussian", mean=1.0, mu0=0.5, var=1.0),
        dict(kind="gaussian", mu0=3.0, var=1.0),
        dict(kind="exponential", mean=1.0, mu0=1.0),
        dict(kind="exponential", mean=1.0, var=1.0),
    ):
        with pytest.raises(ValueError):
            LimitDistribution(**params)
