"""The exact stationary law of one truncated queue against the regime's
per-coordinate limit, with no Monte Carlo error: the KS distance between the
scaled exact law and its limit falls at every smaller gamma, and per decade
of gamma it falls by about 10^e, e the regime's scaling exponent.

Each law is `oracle.auto_chain`'s, evaluated through the simulator's own
estimators: `exact_law`, then `regimes.scale`, then `ks_statistic`. The paper
proves the limits, not their rates; the rate check pins the rate these
chains show, within 10%.
"""

import numpy as np
import pytest

from jsqa.limits import limit_for_regime
from jsqa.model import Binomial
from jsqa.oracle import auto_chain, exact_law
from jsqa.regimes import RegimeSpec, build_config, scale, scaling_exponent
from jsqa.transform import ks_statistic

SERVICES = (Binomial(2, 0.25),)
# (spec, gammas), one decade apart; about 2.5 s of chain solves in all
FAMILIES = {
    "critical": (RegimeSpec("critical", 0.0, 0.5, SERVICES, 4), (1e-2, 1e-3, 1e-4)),
    "classic": (RegimeSpec("classic", 0.5, 0.25, SERVICES, 4), (1e-2, 1e-3, 1e-4)),
    "overloaded": (RegimeSpec("overloaded", 0.2, 0.0, SERVICES, 4), (1e-1, 1e-2, 1e-3)),
}


def exact_ks(spec, gamma):
    """KS distance between the scaled exact law at gamma and the limit."""
    chain, pi = auto_chain(build_config(spec, gamma))
    scaled = scale(exact_law(chain, pi), spec, gamma)
    per_coordinate, _ = limit_for_regime(spec)
    return ks_statistic(scaled.rows[:, 0], per_coordinate, scaled.pooled)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    spec, gammas = FAMILIES[request.param]
    return spec, np.array([exact_ks(spec, g) for g in gammas])


def test_ks_falls_strictly(family):
    _, ks = family
    assert (np.diff(ks) < 0).all(), ks


def test_last_decade_ratio_near_rate(family):
    spec, ks = family
    rate = 10.0 ** scaling_exponent(spec)
    assert ks[-2] / ks[-1] == pytest.approx(rate, rel=0.10), ks
