"""Batch experiment runner.

Subcommands:
  jsqa run <manifest.json> [--out DIR]                 sweep a regime over gamma
  jsqa oracle-check <config.json> --cap K --seed S     simulator vs exact chain
  jsqa domination <config.json> --horizon T --seed S   coupled-chain ordering

`run` writes results.csv with columns gamma,regime,statistic,key,value,stderr
(one row per computed number, flushed after each gamma so completed points
survive a later failure) and run.json carrying the manifest, the derived
constants per gamma, and the cross-gamma trend summary. If a gamma point
fails, its error goes to stderr as well as to run.json, and the exit status
is 1. Identical manifests give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import limits, oracle, regimes, transform
from .errors import ConfigError, ResourceLimitError, StateBudgetError
from .model import config_from_dict, validate
from .simulator import (
    SamplingPlan,
    collect_steady_state,
    plan_from_dict,
    simulate_coupled_domination,
)

__all__ = ["ExperimentManifest", "manifest_from_dict", "run", "oracle_check", "main"]

CSV_HEADER = "gamma,regime,statistic,key,value,stderr"


@dataclass(frozen=True)
class ExperimentManifest:
    """A gamma sweep: regime family, descending gamma list, sampling plan,
    phi grid, moment orders, base seed, and output directory."""

    regime: regimes.RegimeSpec
    gammas: tuple[float, ...]
    plan: SamplingPlan
    phi_grid: tuple[float, ...]
    moment_orders: tuple[int, ...]
    seed: int
    outputs: str

    def check(self) -> None:
        if not self.gammas:
            raise ConfigError("manifest needs a nonempty gammas list")
        if any(not 0.0 < g < 1.0 for g in self.gammas):
            raise ConfigError("every gamma must lie in (0, 1)")
        if any(b >= a for a, b in zip(self.gammas, self.gammas[1:])):
            raise ConfigError("gammas must be strictly decreasing")
        self.plan.check()
        for g in self.gammas:
            regimes.build_config(self.regime, g)
        if not self.moment_orders or max(self.moment_orders) > 4:
            raise ConfigError("moment_orders must be nonempty with orders <= 4")


def manifest_from_dict(obj: dict) -> ExperimentManifest:
    for key in ("regime", "gammas", "plan", "seed"):
        if key not in obj:
            raise ConfigError(f"manifest is missing required key {key!r}")
    return ExperimentManifest(
        regime=regimes.regime_from_dict(obj["regime"]),
        gammas=tuple(float(g) for g in obj["gammas"]),
        plan=plan_from_dict(obj["plan"]),
        phi_grid=tuple(float(p) for p in obj.get("phi_grid", _default_phi_grid())),
        moment_orders=tuple(int(m) for m in obj.get("moment_orders", (1, 2))),
        seed=int(obj["seed"]),
        outputs=str(obj.get("outputs", ".")),
    )


def _default_phi_grid() -> list[float]:
    # 33 equispaced points on [-1, 0.5]; the usable-window flagging in the
    # estimator trims whatever the regime cannot support
    return [round(-1.0 + 1.5 * k / 32.0, 10) for k in range(33)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


class _CsvWriter:
    def __init__(self, path: Path):
        self.fh = path.open("w")
        self.fh.write(CSV_HEADER + "\n")
        self.fh.flush()

    def row(self, gamma, regime, statistic, key, value, stderr=None):
        self.fh.write(
            f"{_fmt(gamma)},{regime},{statistic},{key},{_fmt(value)},{_fmt(stderr)}\n"
        )

    def flush(self):
        self.fh.flush()
        os.fsync(self.fh.fileno())

    def close(self):
        self.fh.close()


def _gamma_point(manifest: ExperimentManifest, gi: int, gamma: float, writer):
    """Simulate one gamma point and emit all its statistics; returns the
    numbers the cross-gamma summary needs."""
    spec = manifest.regime
    config = regimes.build_config(spec, gamma)
    plan = manifest.plan
    seed_offset = gi << 32
    samples = collect_steady_state(config, plan, manifest.seed + seed_offset)
    scaled = regimes.scale(samples, spec, gamma)
    per_coord, _total_dist = limits.limit_for_regime(spec)
    kind = spec.kind

    out = {"gamma": gamma}
    writer.row(gamma, kind, "config", "drift", config.drift)
    writer.row(gamma, kind, "config", "variance", config.variance)

    counts = samples.counts
    total_mean, total_se = counts.estimate(counts.rows.sum(axis=1).astype(float))
    writer.row(gamma, kind, "raw", "total_mean", total_mean, total_se)
    out["total_mean"] = total_mean

    # pooled over all samples, not batch means
    weights = scaled.counts.pooled / len(scaled)
    xt = scaled.counts.rows.sum(axis=1)
    centered = xt - weights @ xt
    var = float(weights @ centered**2)
    skew = float(weights @ centered**3 / var**1.5) if var > 0 else 0.0
    writer.row(gamma, kind, "scaled_total", "variance", var)
    writer.row(gamma, kind, "scaled_total", "skewness", skew)
    out["scaled_variance"] = var
    out["scaled_skewness"] = skew

    rows = transform.moment_report(scaled, per_coord, max_order=max(manifest.moment_orders))
    for r in rows:
        key = r.label.replace(" ", "_")
        writer.row(gamma, kind, "moment", key, r.empirical, r.stderr)
        writer.row(gamma, kind, "moment_limit", key, r.limit)
    out["max_moment_z"] = _max_abs([r.zscore for r in rows])

    ks = transform.ks_statistic(scaled.counts.rows[:, 0], per_coord, scaled.counts.pooled)
    writer.row(gamma, kind, "ks", "coordinate0", ks)
    out["ks"] = ks

    if config.n >= 2:
        ssc = transform.ssc_estimate(samples)
        writer.row(gamma, kind, "ssc", "perp_second_moment", ssc.perp_second_moment, ssc.stderr)
        writer.row(gamma, kind, "ssc", "total_second_moment", ssc.total_second_moment)
        out["perp_second_moment"] = ssc.perp_second_moment
        out["total_second_moment"] = ssc.total_second_moment

    usage = transform.unused_service_rate(samples, gamma)
    writer.row(gamma, kind, "unused", "raw", usage.raw, usage.stderr_raw)
    writer.row(gamma, kind, "unused", "critical_scaled", usage.critical_scaled)
    out["unused_scaled"] = usage.critical_scaled

    exponent = regimes.scaling_exponent(spec)
    statistic = "centered-total" if kind == "overloaded" else "total"
    mgf = transform.empirical_mgf(samples, gamma, manifest.phi_grid, statistic, exponent)
    for phi, val, se in zip(mgf.phi_grid, mgf.values, mgf.stderr):
        writer.row(gamma, kind, "mgf", f"phi={phi:g}", val, se)
    if kind == "classic":
        points = transform.classic_residual(mgf, config, spec)
    elif kind == "critical":
        points = transform.critical_ode_residual(mgf, config)
    else:
        points = transform.overloaded_ode_residual(mgf, config)
    for p in points:
        writer.row(gamma, kind, "residual", f"phi={p.phi:g}", p.residual, p.stderr)
        writer.row(gamma, kind, "residual_usable", f"phi={p.phi:g}", 1.0 if p.usable else 0.0)
    out["max_residual_z"] = _max_abs([p.zscore for p in points if p.usable and p.phi != 0.0])
    return out


def _max_abs(values) -> float:
    """Largest |value|, NaN if any value is NaN (a z-score without a standard
    error) or if there are no values (nothing could be tested)."""
    mags = [abs(v) for v in values]
    return math.nan if not mags or any(math.isnan(v) for v in mags) else max(mags)


def _summary(points: list[dict]) -> dict:
    ks_vals = [p["ks"] for p in points]
    decreasing = all(b < a for a, b in zip(ks_vals, ks_vals[1:]))
    summary = {
        "ks_trend": "decreasing" if decreasing else "not-decreasing",
        "ks_values": ks_vals,
        "max_moment_z": _max_abs(p["max_moment_z"] for p in points),
        "max_residual_z": _max_abs(p["max_residual_z"] for p in points),
    }
    if "perp_second_moment" in points[0]:
        perp = [p["perp_second_moment"] for p in points]
        tot = [p["total_second_moment"] for p in points]
        ratios = [p / t for p, t in zip(perp, tot)]
        summary["perp_second_moments"] = perp
        summary["perp_ratio_decreasing"] = all(b < a for a, b in zip(ratios, ratios[1:]))
        summary["perp_bounded_factor"] = max(perp) / perp[0] if perp[0] > 0 else math.inf
    return summary


def run(manifest: ExperimentManifest, out_dir: str | None = None) -> int:
    """Execute the sweep; returns a process exit status."""
    manifest.check()
    out = Path(out_dir if out_dir is not None else manifest.outputs)
    out.mkdir(parents=True, exist_ok=True)
    writer = _CsvWriter(out / "results.csv")
    sigma2, bar_sigma2 = regimes.limit_sigma2(manifest.regime)
    per_coord, total_dist = limits.limit_for_regime(manifest.regime)
    sidecar = {
        "manifest": {
            "regime": manifest.regime.to_dict(),
            "gammas": list(manifest.gammas),
            "plan": manifest.plan.to_dict(),
            "phi_grid": list(manifest.phi_grid),
            "moment_orders": list(manifest.moment_orders),
            "seed": manifest.seed,
            "outputs": manifest.outputs,
        },
        "derived": {
            "sigma2": sigma2,
            "bar_sigma2": bar_sigma2,
            "per_coordinate_limit": per_coord.__dict__,
            "total_limit": total_dist.__dict__,
            "drift_by_gamma": {
                repr(g): regimes.regime_drift(manifest.regime, g) for g in manifest.gammas
            },
        },
        "completed_gammas": [],
    }
    points = []
    status = 0
    try:
        for gi, gamma in enumerate(manifest.gammas):
            points.append(_gamma_point(manifest, gi, gamma, writer))
            writer.flush()
            sidecar["completed_gammas"].append(gamma)
    except Exception as exc:  # propagate the failure after flushing partial rows
        sidecar["error"] = f"{type(exc).__name__}: {exc}"
        print(f"error: gamma={gamma:g}: {sidecar['error']}", file=sys.stderr)
        status = 1
    if points and status == 0:
        summary = _summary(points)
        sidecar["summary"] = summary
        writer.row(manifest.gammas[-1], manifest.regime.kind, "summary", "ks_decreasing",
                   1.0 if summary["ks_trend"] == "decreasing" else 0.0)
        if "perp_ratio_decreasing" in summary:
            writer.row(manifest.gammas[-1], manifest.regime.kind, "summary",
                       "perp_ratio_decreasing", 1.0 if summary["perp_ratio_decreasing"] else 0.0)
        writer.flush()
    writer.close()
    (out / "run.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return status


def oracle_check(
    config,
    cap: int,
    plan: SamplingPlan,
    seed: int,
    phi_grid=(-1.0, -0.5, 0.25),
    abandonment_hook=None,
    out=None,
) -> int:
    """Compare simulated moments and MGF against the exact truncated chain.

    Prints one line per statistic with its z-score; returns 0 iff every
    |z| < 4. `abandonment_hook` deliberately corrupts the simulator and is
    test instrumentation only.
    """
    if out is None:
        out = sys.stdout
    chain = oracle.build_chain(config, cap)
    pi = oracle.stationary(chain)
    exact = oracle.oracle_moments(chain, pi, order=2)
    samples = collect_steady_state(config, plan, seed, abandonment_hook=abandonment_hook)
    gamma = config.gamma

    counts = samples.counts
    totals = counts.rows.sum(axis=1).astype(float)
    checks = []

    def add(name, values, target):
        est, se = counts.estimate(values)
        z = (est - target) / se if se > 0 else (0.0 if est == target else math.inf)
        checks.append((name, est, target, se, z))

    add("total_mean", totals, exact["total_m1"])
    add("total_second_moment", totals**2, exact["total_m2"])
    for phi in phi_grid:
        vals = np.exp(math.sqrt(gamma) * phi * totals)
        add(f"mgf_phi={phi:g}", vals, oracle.oracle_mgf(chain, pi, gamma, phi))

    worst = 0.0
    for name, est, target, se, z in checks:
        worst = max(worst, abs(z))
        print(f"{name}: simulated={est:.6g} exact={target:.6g} stderr={se:.3g} z={z:+.2f}",
              file=out)
    print(f"leakage={oracle.stationary_leakage(chain, pi):.3g} max|z|={worst:.2f}", file=out)
    return 0 if worst < 4.0 else 1


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jsqa", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment manifest")
    p_run.add_argument("manifest")
    p_run.add_argument("--out", default=None)

    p_oc = sub.add_parser("oracle-check", help="simulator vs exact stationary law")
    p_oc.add_argument("config")
    p_oc.add_argument("--cap", type=int, required=True)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.add_argument("--samples", type=int, default=200_000)
    p_oc.add_argument("--replicas", type=int, default=64)

    p_dom = sub.add_parser("domination", help="coupled-chain pathwise ordering check")
    p_dom.add_argument("config")
    p_dom.add_argument("--horizon", type=int, required=True)
    p_dom.add_argument("--seed", type=int, default=0)
    p_dom.add_argument("--c-tilde", type=float, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            manifest = manifest_from_dict(_load_json(args.manifest))
            return run(manifest, out_dir=args.out)
        if args.command == "oracle-check":
            config = config_from_dict(_load_json(args.config))
            from .simulator import default_plan

            plan = default_plan(config, num_samples=args.samples, replicas=args.replicas)
            return oracle_check(config, args.cap, plan, args.seed)
        config = config_from_dict(_load_json(args.config))
        c_tilde = args.c_tilde
        if c_tilde is None:
            report = validate(config)
            c_tilde = report.drift + config.bound * math.sqrt(config.gamma)
        rep = simulate_coupled_domination(config, c_tilde, args.horizon, args.seed)
        print(
            f"slots={rep.slots_checked} violations={rep.violations} "
            f"max_violation={rep.max_violation} holds={rep.holds}"
        )
        return 0 if rep.holds else 1
    except (ConfigError, StateBudgetError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
