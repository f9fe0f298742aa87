import json

import numpy as np
import pytest

from jsqa.counts import count_rows
from jsqa.errors import ConfigError
from jsqa.model import Binomial, Constant
from jsqa.regimes import (
    RegimeSpec,
    build_config,
    center_per_queue,
    limit_sigma2,
    regime_drift,
    regime_from_dict,
    scale,
    scaling_exponent,
)
from jsqa.simulator import SamplingPlan, collect_steady_state

TWO_BINOMIAL = (Binomial(2, 0.25), Binomial(2, 0.25))


def classic_spec(constant=0.5, alpha=0.25):
    return RegimeSpec("classic", constant, alpha, TWO_BINOMIAL, bound=4)


def critical_spec(constant=0.0):
    return RegimeSpec("critical", constant, 0.5, TWO_BINOMIAL, bound=4)


def overloaded_spec(constant=0.2, alpha=0.0):
    return RegimeSpec("overloaded", constant, alpha, TWO_BINOMIAL, bound=4)


class TestBuildConfig:
    def test_classic_example(self):
        config = build_config(classic_spec(), 1e-4)
        assert config.drift == pytest.approx(-0.05, rel=1e-12)
        assert config.arrivals.mean == pytest.approx(0.95, rel=1e-12)

    def test_critical_zero_constant_balances_load(self):
        config = build_config(critical_spec(0.0), 0.037)
        assert config.arrivals.mean == pytest.approx(1.0, rel=1e-12)
        assert config.drift == pytest.approx(0.0, abs=1e-14)

    def test_overloaded_example(self):
        config = build_config(overloaded_spec(), 0.01)
        assert config.drift == pytest.approx(0.2, rel=1e-12)
        assert config.arrivals.mean == pytest.approx(1.2, rel=1e-12)
        assert config.drift / config.gamma == pytest.approx(20.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize(
        "spec", [classic_spec(), classic_spec(1.2, 0.4), critical_spec(-0.7), critical_spec(0.5), overloaded_spec(), overloaded_spec(0.4, 0.3)]
    )
    def test_drift_reproduced_exactly(self, spec, gamma):
        config = build_config(spec, gamma)
        target = regime_drift(spec, gamma)
        assert config.drift == pytest.approx(target, rel=1e-12, abs=1e-15)

    def test_arrival_mean_out_of_range(self):
        # huge classic constant pushes the arrival mean negative
        spec = RegimeSpec("classic", 3.0, 0.25, TWO_BINOMIAL, bound=4)
        with pytest.raises(ConfigError, match="outside"):
            build_config(spec, 0.5)

    def test_gamma_domain(self):
        with pytest.raises(ConfigError):
            build_config(classic_spec(), 1.0)

    def test_spec_invariants_enforced(self):
        with pytest.raises(ConfigError):
            RegimeSpec("classic", -0.5, 0.25, TWO_BINOMIAL, 4)
        with pytest.raises(ConfigError):
            RegimeSpec("classic", 0.5, 0.5, TWO_BINOMIAL, 4)
        with pytest.raises(ConfigError):
            RegimeSpec("critical", 0.0, 0.25, TWO_BINOMIAL, 4)
        with pytest.raises(ConfigError):
            RegimeSpec("overloaded", 0.2, 0.5, TWO_BINOMIAL, 4)
        with pytest.raises(ConfigError):
            RegimeSpec("diffusion", 0.2, 0.1, TWO_BINOMIAL, 4)


def _samples_for(spec, gamma, num=2000, seed=1):
    config = build_config(spec, gamma)
    plan = SamplingPlan(warmup_slots=200, num_samples=num, thinning=1, replicas=8)
    return collect_steady_state(config, plan, seed=seed)


def _counts_with(spec, gamma, states):
    """Count table of a short run at `gamma` with its first samples, in
    (batch, state) order, replaced by `states`."""
    counts = _samples_for(spec, gamma).counts
    table = counts.table
    hits = table.data.astype(np.int64)
    batch = np.repeat(np.repeat(np.arange(counts.num_batches), np.diff(table.indptr)), hits)
    q = np.repeat(counts.rows[table.indices], hits, axis=0)
    q[: len(states)] = states
    return count_rows(q, batch)


def _scaled_row(scaled, raw, state):
    """Scaled coordinates of the raw `state`, found through the shared table."""
    (u,) = np.flatnonzero((raw.rows == state).all(axis=1))
    return scaled.rows[u]


class TestScale:
    def test_classic_scaling_factor(self):
        raw = _counts_with(classic_spec(), 1e-4, [[100, 100], [0, 40]])
        scaled = scale(raw, classic_spec(), 1e-4)
        assert _scaled_row(scaled, raw, [100, 100]) == pytest.approx([10.0, 10.0])
        assert _scaled_row(scaled, raw, [0, 40]).sum() == pytest.approx(4.0)

    def test_critical_scaling_factor(self):
        spec = critical_spec()
        raw = _counts_with(spec, 0.01, [[30, 0]])
        scaled = scale(raw, spec, 0.01)
        assert _scaled_row(scaled, raw, [30, 0])[0] == pytest.approx(3.0)

    def test_overloaded_centering(self):
        spec = overloaded_spec()
        raw = _counts_with(spec, 0.01, [[12, 9]])
        scaled = scale(raw, spec, 0.01)
        # center is drift/(n*gamma) = 10 per queue
        assert _scaled_row(scaled, raw, [12, 9]) == pytest.approx([0.2, -0.1])

    @pytest.mark.parametrize(
        "spec,gamma",
        [(classic_spec(), 1e-3), (critical_spec(), 1e-2), (overloaded_spec(), 1e-2)],
    )
    def test_scale_unscale_identity(self, spec, gamma):
        # the scaled table is the raw one, and its rows map back to the raw
        # states one to one
        raw = _samples_for(spec, gamma).counts
        scaled = scale(raw, spec, gamma)
        assert scaled.table is raw.table
        assert scaled.sizes is raw.sizes
        factor = gamma ** scaling_exponent(spec)
        back = np.rint(scaled.rows / factor + center_per_queue(spec, gamma)).astype(np.int64)
        assert np.array_equal(back, raw.rows)

    @pytest.mark.parametrize("spec,gamma", [(classic_spec(), 1e-3), (critical_spec(), 1e-2)])
    def test_uncentered_kinds_nonnegative(self, spec, gamma):
        scaled = scale(_samples_for(spec, gamma).counts, spec, gamma)
        assert (scaled.rows >= 0).all()


class TestLimitSigma2:
    def test_classic_value(self):
        sigma2, bar = limit_sigma2(classic_spec())
        assert sigma2 == pytest.approx(1.5, rel=1e-12)
        assert bar == pytest.approx(1.5, rel=1e-12)

    def test_overloaded_value(self):
        sigma2, bar = limit_sigma2(overloaded_spec())
        assert sigma2 == pytest.approx(1.2 * 0.7 + 0.75, rel=1e-12)
        assert bar == pytest.approx(1.79, rel=1e-12)

    def test_critical_drift_vanishes(self):
        sigma2, bar = limit_sigma2(critical_spec(0.8))
        assert bar == sigma2

    def test_overloaded_positive_alpha_drift_vanishes(self):
        sigma2, bar = limit_sigma2(overloaded_spec(0.2, alpha=0.25))
        assert sigma2 == pytest.approx(1.5, rel=1e-12)
        assert bar == sigma2

    def test_matches_built_config_along_sweep(self):
        # config variance converges to the reported limit
        spec = classic_spec()
        sigma2, _ = limit_sigma2(spec)
        diffs = [abs(build_config(spec, g).variance - sigma2) for g in (1e-2, 1e-4, 1e-6, 1e-10)]
        assert diffs == sorted(diffs, reverse=True)
        assert diffs[-1] < 1e-3  # convergence rate is gamma^alpha


class TestRegimeJson:
    def test_round_trip(self):
        spec = overloaded_spec()
        again = regime_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing field"):
            regime_from_dict({"kind": "classic"})

    @pytest.mark.parametrize("value", [2.7, True])
    def test_fractional_or_bool_bound_rejected(self, value):
        obj = dict(overloaded_spec().to_dict(), bound=value)
        with pytest.raises(ConfigError, match="expected an integer"):
            regime_from_dict(obj)

    def test_service_dialect_shared_with_config(self):
        text = json.dumps(
            {
                "kind": "critical",
                "constant": 0.0,
                "alpha": 0.5,
                "base_services": [{"kind": "constant", "value": 1}],
                "bound": 3,
            }
        )
        spec = regime_from_dict(json.loads(text))
        assert spec.base_services == (Constant(1),)
