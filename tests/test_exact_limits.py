"""The exact stationary law of one truncated queue against the regime's
per-coordinate limit, with no Monte Carlo error: the KS distance between the
scaled exact law and its limit falls at every smaller gamma, and per decade
of gamma it falls by about 10^e, e the regime's scaling exponent. So do the
errors of the exact scaled mean and second moment against the limit's and,
in the critical family, of the exact scaled unused service against
`critical_unused_limit`.

Each law is `oracle.auto_chain`'s, evaluated through the simulator's own
estimators: `exact_law`, then `regimes.scale`, then `ks_statistic` or
`StateCounts.estimate`. The paper proves the limits, not their rates; the
rate check pins the rate these chains show, within 10%. In the critical
family, the mean and second moment extrapolated at that rate from the last
two gamma must also meet the limit's to 1e-3 relative.
"""

import functools
import math

import numpy as np
import pytest

from jsqa.limits import critical_unused_limit, limit_for_regime
from jsqa.model import Binomial
from jsqa.oracle import auto_chain, exact_law
from jsqa.regimes import RegimeSpec, build_config, limit_sigma2, scale, scaling_exponent
from jsqa.transform import ks_statistic

SERVICES = (Binomial(2, 0.25),)
# (spec, gammas), one decade apart; about 2.5 s of chain solves in all
FAMILIES = {
    "critical": (RegimeSpec("critical", 0.0, 0.5, SERVICES, 4), (1e-2, 1e-3, 1e-4)),
    "classic": (RegimeSpec("classic", 0.5, 0.25, SERVICES, 4), (1e-2, 1e-3, 1e-4)),
    "overloaded": (RegimeSpec("overloaded", 0.2, 0.0, SERVICES, 4), (1e-1, 1e-2, 1e-3)),
}


def exact_errors(spec, gamma):
    """The scaled exact law at gamma against the limit: its KS distance, the
    errors of its mean and second moment, and the error of the scaled unused
    service (NaN outside the critical family)."""
    chain, pi = auto_chain(build_config(spec, gamma))
    law = exact_law(chain, pi)
    scaled = scale(law, spec, gamma)
    per_coordinate, _ = limit_for_regime(spec)
    x = scaled.rows[:, 0]
    ks = ks_statistic(x, per_coordinate, scaled.pooled)
    mean = scaled.estimate(x)[0] - per_coordinate.moment(1)
    second = scaled.estimate(x**2)[0] - per_coordinate.moment(2)
    unused = np.nan
    if spec.kind == "critical":
        exact = law.estimate(chain.expected_unused)[0] / gamma ** scaling_exponent(spec)
        unused = exact - critical_unused_limit(spec.constant, limit_sigma2(spec)[0])
    return ks, mean, second, unused


@functools.cache
def family_errors(kind):
    """(spec, errors) of the family `kind`, one row of `exact_errors` per
    gamma; each family's chains are solved once per session."""
    spec, gammas = FAMILIES[kind]
    # columns: ks, mean error, second-moment error, unused-service error
    return spec, np.array([exact_errors(spec, g) for g in gammas])


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    return family_errors(request.param)


def test_ks_falls_strictly(family):
    _, values = family
    ks = values[:, 0]
    assert (np.diff(ks) < 0).all(), ks


def test_last_decade_ratio_near_rate(family):
    spec, values = family
    ks = values[:, 0]
    rate = 10.0 ** scaling_exponent(spec)
    assert ks[-2] / ks[-1] == pytest.approx(rate, rel=0.10), ks


def test_errors_fall_strictly(family):
    spec, values = family
    names = ["mean", "second moment"]
    if spec.kind == "critical":
        names.append("unused service")
    for column, name in enumerate(names, start=1):
        error = np.abs(values[:, column])
        assert (np.diff(error) < 0).all(), f"{name} errors {values[:, column]}"


def test_critical_richardson_limit():
    """Richardson extrapolation of the critical scaled mean and second
    moment from the last two gamma at the sqrt(gamma) rate,
    L = (r x(g2) - x(g1)) / (r - 1) with r = sqrt(g1 / g2), lands within
    1e-3 of the limit's (measured: 1.3e-4 and 1.7e-4). A limit variance 1%
    too large reads -5.1e-3 and -1.0e-2 here. The classic and overloaded
    families are not gated: on their three gamma even Aitken's delta-squared
    leaves 5.4% on the classic mean and 0.12% on the overloaded second
    moment."""
    spec, values = family_errors("critical")
    g1, g2 = FAMILIES["critical"][1][-2:]
    r = math.sqrt(g1 / g2)
    per_coordinate, _ = limit_for_regime(spec)
    for column, name in ((1, "mean"), (2, "second moment")):
        limit = per_coordinate.moment(column)
        x1, x2 = values[-2:, column] + limit
        extrapolated = (r * x2 - x1) / (r - 1.0)
        assert abs(extrapolated / limit - 1.0) < 1e-3, f"{name}: {extrapolated} against {limit}"
