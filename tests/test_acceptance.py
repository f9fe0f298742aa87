"""Acceptance suite: each `test_criterion_*` below checks one exit criterion at
its stated tolerance and prints a PASS line with the measured numbers (run
with -s to see them). The regime sweeps execute once per session through the
CLI runner and are shared across criteria. `_ks_two_sample`, the symmetry
distance of criterion 2, has its own two tests.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import jsqa.cli as cli
from jsqa.limits import critical_unused_limit, limit_for_regime
from jsqa.model import BernoulliScaled, Binomial, RngStream, SystemConfig, validate
from jsqa.oracle import build_chain, exact_law, stationary, stationary_leakage
from jsqa.regimes import RegimeSpec, build_config, limit_sigma2
from jsqa.simulator import (
    collect_steady_state,
    default_plan,
    simulate_coupled_domination,
    step_many,
)
from jsqa.transform import Comparison, ssc_estimate

SERVICES = [
    {"kind": "binomial", "trial-count": 2, "success-probability": 0.25},
    {"kind": "binomial", "trial-count": 2, "success-probability": 0.25},
]

CLASSIC_MANIFEST = {
    "regime": {"kind": "classic", "constant": 0.5, "alpha": 0.25, "base_services": SERVICES, "bound": 4},
    "gammas": [1e-2, 1e-3, 1e-4],
    "plan": {"warmup_slots": 20_000, "num_samples": 1_000_000, "thinning": 4, "replicas": 256},
    "moment_orders": [1, 2],
    "seed": 20240701,
    "outputs": ".",
}

CRITICAL_MANIFEST = {
    "regime": {"kind": "critical", "constant": 0.0, "alpha": 0.5, "base_services": SERVICES, "bound": 4},
    "gammas": [1e-2, 1e-3, 1e-4],
    "plan": {"warmup_slots": 250_000, "num_samples": 1_000_000, "thinning": 32, "replicas": 256},
    "moment_orders": [1, 2],
    "seed": 20240702,
    "outputs": ".",
}

CRITICAL_HALF_MANIFEST = {
    "regime": {"kind": "critical", "constant": 0.5, "alpha": 0.5, "base_services": SERVICES, "bound": 4},
    "gammas": [1e-4],
    "plan": {"warmup_slots": 200_000, "num_samples": 600_000, "thinning": 30, "replicas": 256},
    "moment_orders": [1, 2],
    "seed": 20240703,
    "outputs": ".",
}

OVERLOADED_MANIFEST = {
    "regime": {"kind": "overloaded", "constant": 0.2, "alpha": 0.0, "base_services": SERVICES, "bound": 4},
    "gammas": [1e-1, 1e-2, 1e-3],
    "plan": {"warmup_slots": 60_000, "num_samples": 1_000_000, "thinning": 8, "replicas": 256},
    "moment_orders": [1, 2],
    "seed": 20240704,
    "outputs": ".",
}

SSQ = SystemConfig(
    gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)


def _read_rows(out_dir):
    lines = (Path(out_dir) / "results.csv").read_text().strip().split("\n")
    rows = []
    for line in lines[1:]:
        gamma, regime, statistic, key, value, stderr = line.split(",")
        rows.append(
            {
                "gamma": float(gamma),
                "statistic": statistic,
                "key": key,
                "value": float(value) if value else None,
                "stderr": float(stderr) if stderr else None,
            }
        )
    return rows


def _value(rows, gamma, statistic, key):
    for r in rows:
        if r["statistic"] == statistic and r["key"] == key and math.isclose(r["gamma"], gamma):
            return r["value"], r["stderr"]
    raise KeyError((gamma, statistic, key))


def _run_sweep(tmp_path_factory, manifest, name):
    out = tmp_path_factory.mktemp(name)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest))
    t0 = time.time()
    status = cli.main(["run", str(path), "--out", str(out)])
    elapsed = time.time() - t0
    assert status == 0
    sidecar = json.loads((out / "run.json").read_text())
    return {"rows": _read_rows(out), "sidecar": sidecar, "elapsed": elapsed, "dir": out}


@pytest.fixture(scope="module")
def classic_run(tmp_path_factory):
    return _run_sweep(tmp_path_factory, CLASSIC_MANIFEST, "classic")


@pytest.fixture(scope="module")
def critical_run(tmp_path_factory):
    return _run_sweep(tmp_path_factory, CRITICAL_MANIFEST, "critical")


@pytest.fixture(scope="module")
def critical_half_run(tmp_path_factory):
    return _run_sweep(tmp_path_factory, CRITICAL_HALF_MANIFEST, "critical_half")


@pytest.fixture(scope="module")
def overloaded_run(tmp_path_factory):
    return _run_sweep(tmp_path_factory, OVERLOADED_MANIFEST, "overloaded")


def _zscore(counts, values, target):
    """z-score, by `Comparison.zscore`, of the batch-means estimate of a
    function given by its `values` at the distinct states of the count table
    `counts` against `target`."""
    return Comparison("", *counts.estimate(values), target).zscore


def _ks_two_sample(x, y) -> float:
    """Sup distance between two empirical CDFs."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(fx - fy).max())


def test_ks_two_sample_identical():
    x = np.arange(10.0)
    assert _ks_two_sample(x, x) == 0.0


def test_ks_two_sample_disjoint():
    assert _ks_two_sample([1.0, 2.0], [5.0, 6.0]) == pytest.approx(1.0)


def test_criterion_01_ssq_oracle_equivalence():
    t0 = time.time()
    chain = build_chain(SSQ, 200)
    pi = stationary(chain)
    law = exact_law(chain, pi)
    exact_totals = law.rows.sum(axis=1)
    plan = default_plan(SSQ, num_samples=1_000_000, replicas=64)
    samples = collect_steady_state(SSQ, plan, seed=101)
    counts = samples.counts
    totals = counts.rows.sum(axis=1).astype(float)

    zs = {}
    zs["mean"] = _zscore(counts, totals, law.estimate(exact_totals)[0])
    zs["second"] = _zscore(counts, totals**2, law.estimate(exact_totals**2)[0])
    for phi in (-1.0, -0.5, 0.25):
        vals = np.exp(math.sqrt(SSQ.gamma) * phi * totals)
        exact = law.estimate(np.exp(math.sqrt(SSQ.gamma) * phi * exact_totals))[0]
        zs[f"mgf({phi:g})"] = _zscore(counts, vals, exact)
    elapsed = time.time() - t0

    assert stationary_leakage(chain, pi) < 1e-8
    for name, z in zs.items():
        assert abs(z) < 4.0, f"{name} z={z:.2f}"
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: single-queue oracle equivalence, "
          f"|z| max {max(abs(z) for z in zs.values()):.2f}, {elapsed:.1f}s")


def test_criterion_02_jsq_oracle_equivalence():
    t0 = time.time()
    config = SystemConfig(
        gamma=0.1,
        arrivals=BernoulliScaled(2, 0.2),
        services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
    )
    chain = build_chain(config, 60)
    pi = stationary(chain)
    law = exact_law(chain, pi)
    plan = default_plan(config, num_samples=1_000_000, replicas=64)
    samples = collect_steady_state(config, plan, seed=202)

    counts = samples.counts
    q = counts.rows.astype(float)
    totals = q.sum(1)
    z_mean = _zscore(counts, totals, law.estimate(law.rows.sum(axis=1))[0])
    perp = (q**2).sum(1) - totals**2 / 2
    z_perp = _zscore(counts, perp, ssc_estimate(law).perp_second_moment)
    ks_sym = _ks_two_sample(samples.q[:, 0], samples.q[:, 1])
    elapsed = time.time() - t0

    assert stationary_leakage(chain, pi) < 1e-8
    assert abs(z_mean) < 4.0
    assert abs(z_perp) < 4.0
    assert ks_sym < 0.01
    assert elapsed < 300.0
    print(f"\nPASS criterion 2: two-queue oracle equivalence, z_mean={z_mean:.2f} "
          f"z_perp={z_perp:.2f} ks_sym={ks_sym:.4f}, {elapsed:.1f}s")


def test_criterion_03_classic_regime(classic_run):
    rows = classic_run["rows"]
    spec = RegimeSpec("classic", 0.5, 0.25, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
    per_coord, _ = limit_for_regime(spec)
    target = per_coord.mean  # sigma2 / (2 n C) = 0.75
    emp, _ = _value(rows, 1e-4, "moment", "coordinate_m=1")
    rel_err = abs(emp - target) / target

    ks_values = [_value(rows, g, "ks", "coordinate0")[0] for g in (1e-2, 1e-3, 1e-4)]
    decreasing = all(b < a for a, b in zip(ks_values, ks_values[1:]))

    assert rel_err < 0.10, f"scaled mean off by {rel_err:.1%}"
    assert decreasing, f"ks not decreasing: {ks_values}"
    assert classic_run["sidecar"]["summary"]["ks_trend"] == "decreasing"
    assert classic_run["elapsed"] < 1800.0
    print(f"\nPASS criterion 3: classic regime, mean rel err {rel_err:.1%}, "
          f"ks {['%.4f' % k for k in ks_values]}, {classic_run['elapsed']:.0f}s")


def test_criterion_04_critical_regime(critical_run):
    rows = critical_run["rows"]
    spec = RegimeSpec("critical", 0.0, 0.5, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
    per_coord, _ = limit_for_regime(spec)
    target = per_coord.moment(1)  # half-normal mean by quadrature
    emp, _ = _value(rows, 1e-4, "moment", "coordinate_m=1")
    rel_err = abs(emp - target) / target

    ks_values = [_value(rows, g, "ks", "coordinate0")[0] for g in (1e-2, 1e-3, 1e-4)]
    decreasing = all(b < a for a, b in zip(ks_values, ks_values[1:]))

    cross, cross_se = _value(rows, 1e-4, "moment", "cross_m1=1_m2=1")
    cross_limit, _ = _value(rows, 1e-4, "moment_limit", "cross_m1=1_m2=1")
    z_cross = Comparison("cross_m1=1_m2=1", cross, cross_se, cross_limit).zscore

    assert rel_err < 0.10, f"scaled mean off by {rel_err:.1%}"
    assert decreasing, f"ks not decreasing: {ks_values}"
    assert abs(z_cross) < 4.0, f"cross moment z={z_cross:.2f}"
    assert critical_run["elapsed"] < 1800.0
    print(f"\nPASS criterion 4: critical regime, mean rel err {rel_err:.1%}, "
          f"ks {['%.4f' % k for k in ks_values]}, cross z={z_cross:.2f}, "
          f"{critical_run['elapsed']:.0f}s")


def test_criterion_05_overloaded_regime(overloaded_run):
    rows = overloaded_run["rows"]
    spec = RegimeSpec("overloaded", 0.2, 0.0, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
    _, bar_sigma2 = limit_sigma2(spec)

    ratios = []
    for gamma in (1e-1, 1e-2, 1e-3):
        mean, _ = _value(rows, gamma, "raw", "total_mean")
        u_raw, _ = _value(rows, gamma, "unused", "raw")
        config = build_config(spec, gamma)
        target = config.drift / gamma + u_raw / gamma
        ratios.append(mean / target)
        assert abs(mean - target) / target < 0.05, f"gamma={gamma}: mean/target={mean / target:.4f}"

    var, _ = _value(rows, 1e-3, "scaled_total", "variance")
    skew, _ = _value(rows, 1e-3, "scaled_total", "skewness")
    u_scaled, _ = _value(rows, 1e-3, "unused", "critical_scaled")
    var_target = bar_sigma2 / 2.0

    assert abs(var - var_target) / var_target < 0.15, f"variance {var:.4f} vs {var_target:.4f}"
    assert abs(skew) < 0.1, f"skewness {skew:.4f}"
    assert u_scaled < 1e-3, f"scaled unused {u_scaled:.2e}"
    assert overloaded_run["elapsed"] < 1800.0
    print(f"\nPASS criterion 5: overloaded regime, mean/target {['%.4f' % r for r in ratios]}, "
          f"var {var:.4f} vs {var_target:.4f}, skew {skew:+.4f}, "
          f"{overloaded_run['elapsed']:.0f}s")


def test_criterion_06_state_space_collapse(critical_run):
    rows = critical_run["rows"]
    perp, total, ratio = [], [], []
    for gamma in (1e-2, 1e-3, 1e-4):
        p, _ = _value(rows, gamma, "ssc", "perp_second_moment")
        t, _ = _value(rows, gamma, "ssc", "total_second_moment")
        perp.append(p)
        total.append(t)
        ratio.append(p / t)

    assert max(perp) / perp[0] < 2.0, f"perp grew: {perp}"
    assert min(perp) / perp[0] > 0.5, f"perp shrank: {perp}"
    assert total[-1] / total[0] >= 10.0
    assert all(b < a for a, b in zip(ratio, ratio[1:])), f"ratio not decreasing: {ratio}"
    print(f"\nPASS criterion 6: collapse, perp {['%.3f' % p for p in perp]}, "
          f"ratio {['%.2e' % r for r in ratio]}")


def test_criterion_07_unused_service_limit(critical_run, critical_half_run):
    sigma2, _ = limit_sigma2(
        RegimeSpec("critical", 0.0, 0.5, (Binomial(2, 0.25), Binomial(2, 0.25)), 4)
    )
    results = []
    for run, c_c in ((critical_run, 0.0), (critical_half_run, 0.5)):
        target = critical_unused_limit(c_c, sigma2)
        est, _ = _value(run["rows"], 1e-4, "unused", "critical_scaled")
        rel = abs(est - target) / target
        results.append((c_c, est, target, rel))
        assert rel < 0.15, f"C={c_c}: {est:.4f} vs {target:.4f} ({rel:.1%})"
    detail = ", ".join(f"C={c}: {e:.4f} vs {t:.4f} ({r:.1%})" for c, e, t, r in results)
    print(f"\nPASS criterion 7: unused-service limit, {detail}")


def test_criterion_08_transform_residuals(classic_run, critical_run, overloaded_run):
    details = []
    for name, run, smallest in (
        ("classic", classic_run, 1e-4),
        ("critical", critical_run, 1e-4),
        ("overloaded", overloaded_run, 1e-3),
    ):
        rows = run["rows"]
        worst = 0.0
        usable_count = 0
        for r in rows:
            if r["statistic"] != "residual" or not math.isclose(r["gamma"], smallest):
                continue
            phi = float(r["key"].split("=")[1])
            flag, _ = _value(rows, smallest, "residual_usable", r["key"])
            if flag != 1.0 or phi == 0.0:
                continue
            usable_count += 1
            z = abs(Comparison(r["key"], r["value"], r["stderr"]).zscore)
            worst = max(worst, z)
            assert z < 5.0, f"{name} phi={phi}: |residual|={abs(r['value']):.4g} vs 5se={5 * r['stderr']:.4g}"
        assert usable_count > 0
        details.append(f"{name}: {usable_count} usable points, max|z|={worst:.2f}")
    print(f"\nPASS criterion 8: residuals, " + "; ".join(details))


def test_criterion_09_pathwise_domination():
    t0 = time.time()
    total = 0
    for gamma in (0.05, 0.2):
        config = SystemConfig(
            gamma=gamma, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
        )
        c_tilde = config.drift + config.bound * math.sqrt(gamma)
        for seed in range(10):
            report = simulate_coupled_domination(config, c_tilde, horizon=100_000, seed=seed)
            assert report.violations == 0, f"gamma={gamma} seed={seed}: {report}"
            total += report.slots_checked
    print(f"\nPASS criterion 9: pathwise domination, {total} slots, 0 violations, "
          f"{time.time() - t0:.1f}s")


def _random_distribution(gen):
    kind = gen.integers(0, 3)
    if kind == 0:
        return {"kind": "constant", "value": int(gen.integers(0, 4))}
    if kind == 1:
        return {
            "kind": "bernoulli-scaled",
            "support-point": int(gen.integers(1, 5)),
            "success-probability": float(gen.uniform(0, 1)),
        }
    return {
        "kind": "binomial",
        "trial-count": int(gen.integers(1, 5)),
        "success-probability": float(gen.uniform(0, 1)),
    }


def test_criterion_10a_slot_properties_bulk():
    from jsqa.model import distribution_from_dict

    t0 = time.time()
    gen = RngStream(7, 99).generator()
    slots_checked = 0
    configs = 0
    while slots_checked < 10_000_000:
        n = int(gen.integers(1, 5))
        config = SystemConfig(
            gamma=float(gen.uniform(0.005, 1.0)),
            arrivals=distribution_from_dict(_random_distribution(gen)),
            services=tuple(distribution_from_dict(_random_distribution(gen)) for _ in range(n)),
        )
        if not validate(config).ok:
            continue
        configs += 1
        replicas = 1000
        q = gen.integers(0, 40, size=(replicas, n)).astype(np.int64)
        for _ in range(10):
            q_next, a, dest, s, d, u = step_many(q, config, gen)
            add = np.zeros_like(q)
            add[np.arange(replicas), dest] = a
            pre = q + add - s - d
            assert np.array_equal(q_next, np.maximum(pre, 0))
            assert np.array_equal(u, q_next - pre)
            # conservation: change in total equals a - services - abandons + unused
            assert np.array_equal(
                q_next.sum(1) - q.sum(1), a - s.sum(1) - d.sum(1) + u.sum(1)
            )
            assert (q_next * u == 0).all()
            assert (d <= q).all()
            assert ((0 <= u) & (u <= s)).all()
            slots_checked += replicas
            q = q_next
    print(f"\nPASS criterion 10a: {slots_checked} random slots over {configs} configs, "
          f"conservation and slackness exact, {time.time() - t0:.1f}s")


def test_criterion_10b_determinism_three_manifests(tmp_path):
    manifests = []
    for kind, constant, alpha, gammas in (
        ("classic", 0.5, 0.25, [0.2, 0.1]),
        ("critical", 0.0, 0.5, [0.2, 0.1]),
        ("overloaded", 0.2, 0.0, [0.3, 0.2]),
    ):
        manifests.append(
            {
                "regime": {"kind": kind, "constant": constant, "alpha": alpha,
                           "base_services": SERVICES, "bound": 4},
                "gammas": gammas,
                "plan": {"warmup_slots": 500, "num_samples": 20_000, "thinning": 1, "replicas": 16},
                "phi_grid": [-0.5, 0.0, 0.25],
                "moment_orders": [1, 2],
                "seed": 31337,
                "outputs": ".",
            }
        )
    for i, manifest in enumerate(manifests):
        path = tmp_path / f"manifest{i}.json"
        path.write_text(json.dumps(manifest))
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli.main(["run", str(path), "--out", str(out_a)]) == 0
        assert cli.main(["run", str(path), "--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "run.json").read_bytes() == (out_b / "run.json").read_bytes()
    print("\nPASS criterion 10b: byte-identical reruns on 3 manifests")


def test_criterion_10c_closed_forms_vs_quadrature():
    from scipy import integrate

    from jsqa.limits import truncated_gaussian

    t0 = time.time()
    gen = RngStream(12, 0).generator()
    for case in range(100):
        mu0 = float(gen.uniform(-1.5, 1.5))
        var = float(gen.uniform(0.2, 3.0))
        dist = truncated_gaussian(mu0, var)
        hi = mu0 + 40 * math.sqrt(var)
        for phi in (-2.0, -0.5, 1.0, 2.0):
            quad_val, _ = integrate.quad(
                lambda x: math.exp(phi * x) * dist.pdf(x), 0, hi, epsrel=1e-12, limit=400
            )
            assert dist.mgf(phi) == pytest.approx(quad_val, rel=1e-8)
        assert dist.mgf(0.0) == pytest.approx(1.0, abs=1e-12)
        x = float(gen.uniform(0.0, 4.0))
        cdf_quad, _ = integrate.quad(dist.pdf, 0, x, epsabs=1e-12, limit=400)
        assert dist.cdf(x) == pytest.approx(cdf_quad, abs=1e-8)
        h = 1e-5
        fd = (dist.mgf(h) - dist.mgf(-h)) / (2 * h)
        assert abs(fd - dist.moment(1)) < 1e-6

        c_c = float(gen.uniform(-1.5, 2.0))
        sigma2 = float(gen.uniform(0.3, 3.0))
        integral, _ = integrate.quad(
            lambda s: math.exp(-(s**2) * sigma2 / 4 - c_c * s), -80, 0, epsrel=1e-12, limit=400
        )
        assert critical_unused_limit(c_c, sigma2) == pytest.approx(1 / integral, rel=1e-8)
    print(f"\nPASS criterion 10c: 100 randomized closed-form vs quadrature cases, "
          f"{time.time() - t0:.1f}s")
