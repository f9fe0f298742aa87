"""Correctness gate of each workload.

The gate checks statistics, not golden bytes, so a change that alters the
random streams still passes when its statistics hold. Tolerances are those of
tests/test_acceptance.py for the criterion named in each check:

- sweeps: exit status 0, and every expected results.csv row present and
  finite (a phi point flagged unusable may hold a non-finite value);
- sweep-critical, at its smallest gamma: scaled mean within 10% of the
  half-normal limit, KS distance decreasing along the sweep, cross moment
  |z| < 4 (criterion 4); perpendicular second moment bounded and its share
  decreasing (criterion 6); scaled unused service within 15% of its limit
  (criterion 7); usable transform residuals |z| < 5 (criterion 8);
- sweep-overloaded: total mean within 5% of drift/gamma + unused/gamma at
  every gamma (criterion 5);
- exact-checks: oracle-check exit status 0 (every |z| < 4) and stationary
  leakage < 1e-8; domination exit status 0 and no violation.

A check is a (name, passed, detail) triple.
"""

from __future__ import annotations

import math
import re

Check = tuple[str, bool, str]


def parse_results(text: str) -> dict[tuple[float, str, str], tuple[float, float | None]]:
    """results.csv rows keyed by (gamma, statistic, key) -> (value, stderr)."""
    rows = {}
    for line in text.strip().split("\n")[1:]:
        gamma, _regime, statistic, key, value, stderr = line.split(",")
        rows[(float(gamma), statistic, key)] = (
            float(value) if value else math.nan,
            float(stderr) if stderr else None,
        )
    return rows


def _phi_key(phi: float) -> str:
    return f"phi={phi:g}"


def _expected_keys(gammas, phi_grid, orders, n: int) -> list[tuple[float, str, str]]:
    keys = []
    for g in gammas:
        keys += [(g, "config", "drift"), (g, "config", "variance"), (g, "raw", "total_mean"),
                 (g, "scaled_total", "variance"), (g, "scaled_total", "skewness"),
                 (g, "ks", "coordinate0"), (g, "unused", "raw"), (g, "unused", "critical_scaled")]
        for m in orders:
            keys += [(g, "moment", f"coordinate_m={m}"), (g, "moment_limit", f"coordinate_m={m}")]
        if n >= 2:
            keys += [(g, "ssc", "perp_second_moment"), (g, "ssc", "total_second_moment")]
        for phi in phi_grid:
            keys += [(g, s, _phi_key(phi)) for s in ("mgf", "residual", "residual_usable")]
    keys.append((gammas[-1], "summary", "ks_decreasing"))
    if n >= 2:
        keys.append((gammas[-1], "summary", "perp_ratio_decreasing"))
    return keys


def _rows_finite(rows) -> tuple[bool, str]:
    bad = []
    for (g, statistic, key), (value, stderr) in rows.items():
        if statistic in ("mgf", "residual"):
            usable = rows.get((g, "residual_usable", key), (0.0, None))[0]
            if usable != 1.0:
                continue
        if not math.isfinite(value) or (stderr is not None and not math.isfinite(stderr)):
            bad.append(f"{g:g}/{statistic}/{key}")
    return not bad, ", ".join(bad[:5])


def _within(name: str, est: float, target: float, tol: float) -> Check:
    rel = abs(est - target) / abs(target)
    return name, rel < tol, f"{est:.6g} vs {target:.6g}, rel err {rel:.2%} (tol {tol:.0%})"


def sweep_checks(status, results_text: str | None, manifest: dict, targets: dict) -> list[Check]:
    checks: list[Check] = [("exit_status", status == 0, f"status {status}")]
    if results_text is None:
        return checks + [("results_present", False, "no results.csv")]
    try:
        rows = parse_results(results_text)
    except ValueError as exc:
        return checks + [("results_parse", False, str(exc))]
    gammas = [float(g) for g in manifest["gammas"]]
    n = len(manifest["regime"]["base_services"])
    missing = [k for k in _expected_keys(gammas, targets["phi_grid"],
                                         manifest["moment_orders"], n) if k not in rows]
    checks.append(("rows_complete", not missing, f"{len(missing)} missing {missing[:3]}"))
    finite, detail = _rows_finite(rows)
    checks.append(("rows_finite", finite, detail))
    if missing:
        return checks

    def value(g, statistic, key):
        return rows[(g, statistic, key)]

    kind = manifest["regime"]["kind"]
    small = gammas[-1]
    if kind == "overloaded":
        for g in gammas:
            mean, _ = value(g, "raw", "total_mean")
            u_raw, _ = value(g, "unused", "raw")
            checks.append(_within(f"crit5_total_mean@{g:g}", mean,
                                  targets["drift"][g] / g + u_raw / g, 0.05))
        return checks

    mean, _ = value(small, "moment", "coordinate_m=1")
    checks.append(_within("crit4_scaled_mean", mean, targets["mean"], 0.10))
    ks = [value(g, "ks", "coordinate0")[0] for g in gammas]
    checks.append(("crit4_ks_decreasing", all(b < a for a, b in zip(ks, ks[1:])),
                   " > ".join(f"{k:.4f}" for k in ks)))
    cross, cross_se = value(small, "moment", "cross_m1=1_m2=1")
    cross_limit, _ = value(small, "moment_limit", "cross_m1=1_m2=1")
    z = (cross - cross_limit) / cross_se if cross_se else math.inf
    checks.append(("crit4_cross_moment", abs(z) < 4.0, f"z={z:+.2f}"))
    perp = [value(g, "ssc", "perp_second_moment")[0] for g in gammas]
    total = [value(g, "ssc", "total_second_moment")[0] for g in gammas]
    checks.append(("crit6_perp_bounded", max(perp) / perp[0] < 2.0 and min(perp) / perp[0] > 0.5,
                   " ".join(f"{p:.4f}" for p in perp)))
    ratio = [p / t for p, t in zip(perp, total)]
    checks.append(("crit6_perp_share_decreasing", all(b < a for a, b in zip(ratio, ratio[1:])),
                   " > ".join(f"{r:.3e}" for r in ratio)))
    unused, _ = value(small, "unused", "critical_scaled")
    checks.append(_within("crit7_unused_service", unused, targets["unused"], 0.15))
    zs = []
    for phi in targets["phi_grid"]:
        key = _phi_key(phi)
        if phi == 0.0 or value(small, "residual_usable", key)[0] != 1.0:
            continue
        res, se = value(small, "residual", key)
        zs.append(abs(res) / se if se else math.inf)
    checks.append(("crit8_residuals", bool(zs) and max(zs) < 5.0,
                   f"{len(zs)} usable, max|z|={max(zs, default=math.nan):.2f}"))
    return checks


_LEAKAGE = re.compile(r"leakage=(\S+) max\|z\|=(\S+)")
_VIOLATIONS = re.compile(r"violations=(\d+)")


def exact_checks(statuses, stdout: str) -> list[Check]:
    oracle_status, domination_status = statuses
    checks: list[Check] = [("oracle_check_exit_status", oracle_status == 0,
                            f"status {oracle_status}")]
    m = _LEAKAGE.search(stdout)
    leakage = float(m.group(1)) if m else math.nan
    checks.append(("oracle_leakage", leakage < 1e-8,
                   f"leakage={leakage:.3g} max|z|={m.group(2) if m else '?'}"))
    checks.append(("domination_exit_status", domination_status == 0,
                   f"status {domination_status}"))
    m = _VIOLATIONS.search(stdout)
    checks.append(("domination_violations", m is not None and int(m.group(1)) == 0,
                   f"violations={m.group(1) if m else '?'}"))
    return checks
