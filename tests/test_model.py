import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from jsqa.errors import ConfigError
from jsqa.model import (
    GUIDE,
    BernoulliScaled,
    Binomial,
    Constant,
    RngStream,
    SystemConfig,
    config_from_dict,
    distribution_from_dict,
    sample_many,
    validate,
)


CONFIG_DOC = {
    "n": 2,
    "gamma": 0.1,
    "arrivals": {"kind": "binomial", "trial-count": 4, "success-probability": 0.25},
    "services": [{"kind": "constant", "value": 1}, {"kind": "constant", "value": 1}],
}


# The first four doubles of RngStream(7, 3): a change of bit generator or
# seeding changes every golden file, and this pin says so first.
PINNED_DOUBLES = [0.10058534458822732, 0.34628633402693143, 0.8865024768707657, 0.9575513624726822]


def _gen(seed=0, stream=0):
    return RngStream(seed, stream).generator()


class _Uniforms:
    """Generator stub: its k-th draw is the k-th given array of uniforms,
    broadcast to the size asked for."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        return np.broadcast_to(self.draws.pop(0), size).copy()


class TestDistributions:
    def test_constant_is_degenerate(self):
        dist = Constant(3)
        gen = _gen()
        assert (sample_many(dist, gen, 50) == 3).all()
        assert dist.mean == 3.0 and dist.variance == 0.0 and dist.bound == 3

    def test_bernoulli_scaled_zero_probability(self):
        dist = BernoulliScaled(4, 0.0)
        assert not sample_many(dist, _gen(), 1000).any()

    def test_binomial_empirical_mean(self):
        # analytic mean 1.0, tolerance 3 * sqrt(var / N)
        dist = Binomial(4, 0.25)
        draws = sample_many(dist, _gen(1), 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.003

    @pytest.mark.parametrize(
        "dist",
        [
            Constant(2),
            BernoulliScaled(4, 0.3),
            BernoulliScaled(1, 0.95),
            Binomial(4, 0.25),
            Binomial(6, 0.8),
        ],
    )
    def test_empirical_moments_match_analytic(self, dist):
        n = 1_000_000
        draws = sample_many(dist, _gen(2), n)
        se_mean = max(np.sqrt(dist.variance / n), 1e-12)
        assert abs(draws.mean() - dist.mean) < 4 * se_mean
        if dist.variance > 0:
            fourth = ((draws - dist.mean) ** 4).mean()
            se_var = np.sqrt(max(fourth - dist.variance**2, 0.0) / n)
            assert abs(draws.var() - dist.variance) < 4 * se_var

    def test_samples_respect_bound_and_integrality(self):
        for dist in (Constant(2), BernoulliScaled(4, 0.5), Binomial(6, 0.7)):
            draws = sample_many(dist, _gen(3), 10_000)
            assert draws.dtype == np.int64
            assert draws.min() >= 0 and draws.max() <= dist.bound

    def test_pmf_matches_moments(self):
        for dist in (Constant(2), BernoulliScaled(4, 0.3), Binomial(5, 0.4)):
            pmf = dist.pmf()
            support = np.arange(pmf.size)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pmf @ support) == pytest.approx(dist.mean, abs=1e-12)
            assert (pmf @ support**2) - dist.mean**2 == pytest.approx(dist.variance, abs=1e-12)

    @pytest.mark.parametrize(
        "dist, top, bottom",
        [
            (Binomial(3, 0.3), 3, 0),
            (Constant(2), 2, 2),
            (Constant(0), 0, 0),
            (BernoulliScaled(4, 0.5), 4, 0),
            (BernoulliScaled(4, 0.0), 0, 0),
            # pmf entries 1..3 carry no mass
            (Binomial(3, 0.0), 0, 0),
        ],
    )
    def test_inversion_maps_edge_uniforms_to_support_ends(self, dist, top, bottom):
        gen = _Uniforms(np.nextafter(1.0, 0.0), 0.0)
        assert (sample_many(dist, gen, 8) == top).all()
        assert (sample_many(dist, gen, 8) == bottom).all()

    # `searches`: whether some guide cell holds a CDF value, so that uniforms
    # falling there search the CDF
    @pytest.mark.parametrize(
        "dist, searches",
        [
            # many CDF values share a cell
            (Binomial(2000, 0.5), True),
            # pmf entries 1..3 carry no mass
            (Binomial(3, 0.0), False),
            (Constant(0), False),
            (Constant(2), False),
            (BernoulliScaled(4, 0.3), True),
            (Binomial(4, 0.25), True),
        ],
    )
    def test_inversion_equals_cdf_search(self, dist, searches):
        cdf = dist.cdf
        edges = np.arange(GUIDE) / GUIDE
        u = np.concatenate([
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
            edges, np.nextafter(edges, 0.0),
            [0.0, 1.0 - 2.0**-53],
            _gen(4).random(100_000),
        ])
        u = u[(0.0 <= u) & (u < 1.0)]
        expected = cdf.searchsorted(u, side="right")
        assert np.array_equal(sample_many(dist, _Uniforms(u), u.size), expected)
        assert (dist.guide < 0).any() == searches

    @pytest.mark.parametrize("trials", [2, 40, 2000])
    def test_binomial_pmf_matches_scipy(self, trials):
        expected = binom.pmf(np.arange(trials + 1), trials, 0.3)
        np.testing.assert_allclose(Binomial(trials, 0.3).pmf(), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "dist, expected",
        [
            (Constant(3), {"kind": "constant", "value": 3}),
            (
                BernoulliScaled(2, 0.2),
                {"kind": "bernoulli-scaled", "support-point": 2, "success-probability": 0.2},
            ),
            (
                Binomial(4, 0.25),
                {"kind": "binomial", "trial-count": 4, "success-probability": 0.25},
            ),
        ],
    )
    def test_to_dict_format(self, dist, expected):
        assert list(dist.to_dict().items()) == list(expected.items())

    @pytest.mark.parametrize("dist", [Constant(3), BernoulliScaled(2, 0.2), Binomial(4, 0.0)])
    def test_bound_is_size(self, dist):
        assert dist.bound == dist.size == dist.pmf().size - 1
        assert "bound" not in dist.to_dict()

    @given(
        trials=st.integers(min_value=0, max_value=12),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_binomial_support_property(self, trials, p, seed):
        draws = sample_many(Binomial(trials, p), _gen(seed), 200)
        assert draws.min() >= 0 and draws.max() <= trials


class TestRngStream:
    def test_equal_streams_identical(self):
        a = sample_many(Binomial(5, 0.4), RngStream(9, 3).generator(), 1000)
        b = sample_many(Binomial(5, 0.4), RngStream(9, 3).generator(), 1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_many(Binomial(5, 0.4), RngStream(9, 3).generator(), 1000)
        b = sample_many(Binomial(5, 0.4), RngStream(9, 4).generator(), 1000)
        assert not np.array_equal(a, b)

    def test_stream_is_pinned(self):
        got = RngStream(7, 3).generator().random(4).tolist()
        assert got == PINNED_DOUBLES, (
            "streams changed: regenerate the goldens with "
            "`python -m tests.make_golden` and record it in CHANGES.md"
        )


class TestValidate:
    def test_valid_config_reports_derived_values(self):
        config = SystemConfig(
            gamma=0.01,
            arrivals=Binomial(4, 0.2),
            services=(Binomial(4, 0.125), Binomial(4, 0.125)),
        )
        report = validate(config)
        assert report.ok and report.violations == ()
        assert config.n == 2
        assert config.drift == pytest.approx(-0.2)
        assert config.variance == pytest.approx(0.64 + 0.4375 + 0.4375)

    def test_gamma_boundary_violation(self):
        for gamma in (0.0, 1.5):
            config = SystemConfig(gamma=gamma, arrivals=Constant(1), services=(Constant(1),))
            report = validate(config)
            assert not report.ok
            assert any("gamma out of (0,1]" in v for v in report.violations)

    def test_no_service_law_reported(self):
        config = SystemConfig(gamma=0.5, arrivals=Constant(1), services=())
        report = validate(config)
        assert not report.ok and "at least one service law is needed" in report.violations

    def test_bad_distribution_params_reported(self):
        config = SystemConfig(
            gamma=0.5, arrivals=Binomial(4, 1.5), services=(Constant(-1),)
        )
        report = validate(config)
        assert "arrivals: success-probability out of [0,1]" in report.violations
        assert "services[0]: value must be >= 0" in report.violations


class TestJson:
    def test_config_round_trip(self):
        config = SystemConfig(
            gamma=0.1,
            arrivals=BernoulliScaled(2, 0.2),
            services=(Binomial(2, 0.25), Constant(1)),
        )
        again = config_from_dict(json.loads(json.dumps(config.to_dict())))
        assert again == config

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown distribution kind"):
            distribution_from_dict({"kind": "poisson", "rate": 2})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError, match="missing field"):
            distribution_from_dict({"kind": "binomial", "trial-count": 3})

    def test_missing_config_key_rejected(self):
        with pytest.raises(ConfigError, match="missing field"):
            config_from_dict({"n": 1, "gamma": 0.1})

    def test_n_differing_from_service_count_rejected(self):
        for n in (1, 3):
            with pytest.raises(ConfigError, match=f"n={n} but 2 service laws"):
                config_from_dict(dict(CONFIG_DOC, n=n))

    @pytest.mark.parametrize("value", [2.7, True])
    def test_fractional_or_bool_n_rejected(self, value):
        with pytest.raises(ConfigError, match="expected an integer"):
            config_from_dict(dict(CONFIG_DOC, n=value))

    @pytest.mark.parametrize("value", [2.7, True])
    @pytest.mark.parametrize("key", ["value", "support-point", "trial-count"])
    def test_fractional_or_bool_size_rejected(self, key, value):
        kind = {"value": "constant", "support-point": "bernoulli-scaled"}.get(key, "binomial")
        obj = {"kind": kind, key: value, "success-probability": 0.5}
        with pytest.raises(ConfigError, match="expected an integer"):
            distribution_from_dict(obj)

    def test_integral_float_accepted(self):
        obj = json.loads(json.dumps(CONFIG_DOC))
        obj["n"], obj["arrivals"]["trial-count"] = 2.0, 4.0
        assert config_from_dict(obj) == config_from_dict(CONFIG_DOC)
