"""Batch experiment runner.

Subcommands:
  jsqa run <manifest.json> [--out DIR]
  jsqa oracle-check <config.json> --cap K [--seed S] [--samples N] [--replicas R]
  jsqa domination <config.json> --horizon T [--seed S] [--c-tilde X]

`run` writes results.csv with columns gamma,regime,statistic,key,value,stderr
(one row per computed number) and run.json carrying the manifest, the derived
constants per gamma, and the cross-gamma trend summary. A gamma point's rows
are written, flushed and fsynced only once the whole point is computed, so
completed points survive a later failure and a failed point leaves no row.
If a gamma point fails, its error goes to stderr as well as to run.json, and
the exit status is 1. Identical manifests give byte-identical outputs, on any
number of CPUs.

Up to two gamma points are computed at once: with two or more usable CPUs,
every other point runs in one forked child process, so a sweep may hold two
points' samples in memory. Rows are still written in gamma order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import limits, oracle, regimes, transform
from .errors import ConfigError, ResourceLimitError, StateBudgetError, as_int, parsing
from .model import config_from_dict, require_valid
from .simulator import (
    SamplingPlan,
    collect_steady_state,
    default_plan,
    plan_from_dict,
    simulate_coupled_domination,
)

__all__ = ["ExperimentManifest", "manifest_from_dict", "run", "oracle_check", "main"]

CSV_HEADER = "gamma,regime,statistic,key,value,stderr"
# phi points at which oracle-check compares the sqrt(gamma)-scaled total MGF
ORACLE_PHI_GRID = (-1.0, -0.5, 0.25)


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
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        self.plan.check()
        for g in self.gammas:
            require_valid(regimes.build_config(self.regime, g))
        if not self.moment_orders or any(not 1 <= m <= 4 for m in self.moment_orders):
            raise ConfigError("moment_orders must be nonempty with every order in 1..4")
        if not self.phi_grid or any(not -2.0 <= p <= 2.0 for p in self.phi_grid):
            raise ConfigError("phi_grid must be nonempty with every point finite and in [-2, 2]")


def manifest_from_dict(obj: dict) -> ExperimentManifest:
    # a string would otherwise be iterated character by character
    for key in ("gammas", "phi_grid", "moment_orders"):
        if not isinstance(obj.get(key, []), list):
            raise ConfigError(f"manifest field {key!r} must be a list")
    with parsing("manifest"):
        return ExperimentManifest(
            regime=regimes.regime_from_dict(obj["regime"]),
            gammas=tuple(float(g) for g in obj["gammas"]),
            plan=plan_from_dict(obj["plan"]),
            phi_grid=tuple(float(p) for p in obj.get("phi_grid", _default_phi_grid())),
            moment_orders=tuple(as_int(m) for m in obj.get("moment_orders", (1, 2))),
            seed=as_int(obj["seed"]),
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


def _append_rows(fh, gamma: float, kind: str, rows) -> None:
    """Write rows (statistic, key, value[, stderr]) of one gamma to the open
    results.csv, then flush and fsync them."""
    for statistic, key, value, *stderr in rows:
        se = stderr[0] if stderr else None
        fh.write(f"{_fmt(gamma)},{kind},{statistic},{key},{_fmt(value)},{_fmt(se)}\n")
    fh.flush()
    os.fsync(fh.fileno())


def _gamma_point(manifest: ExperimentManifest, gi: int, gamma: float) -> tuple[list, dict]:
    """Simulate one gamma point and compute all its statistics, with no I/O.

    Returns the point's results.csv rows, each (statistic, key, value[,
    stderr]), and the numbers of the point that the cross-gamma summary reads.
    """
    spec = manifest.regime
    config = regimes.build_config(spec, gamma)
    seed_offset = gi << 32
    samples = collect_steady_state(config, manifest.plan, manifest.seed + seed_offset)
    counts = samples.counts
    scaled = regimes.scale(counts, spec, gamma)
    per_coord, _total_dist = limits.limit_for_regime(spec)

    rows = [
        ("config", "drift", config.drift),
        ("config", "variance", config.variance),
        ("raw", "total_mean", *counts.estimate(counts.rows.sum(axis=1).astype(float))),
    ]

    # pooled over all samples, not batch means
    weights = scaled.pooled / len(samples)
    xt = scaled.rows.sum(axis=1)
    centered = xt - weights @ xt
    var = float(weights @ centered**2)
    skew = float(weights @ centered**3 / var**1.5) if var > 0 else 0.0
    rows += [("scaled_total", "variance", var), ("scaled_total", "skewness", skew)]

    moments = transform.moment_report(scaled, per_coord, max_order=max(manifest.moment_orders))
    for c in moments:
        rows += [("moment", c.key, c.estimate, c.stderr), ("moment_limit", c.key, c.target)]

    ks = transform.ks_statistic(scaled.rows[:, 0], per_coord, scaled.pooled)
    rows.append(("ks", "coordinate0", ks))
    point = {"ks": ks, "max_moment_z": _max_abs([c.zscore for c in moments])}

    if config.n >= 2:
        ssc = transform.ssc_estimate(counts)
        rows += [("ssc", "perp_second_moment", ssc.perp_second_moment, ssc.stderr),
                 ("ssc", "total_second_moment", ssc.total_second_moment)]
        point["perp_second_moment"] = ssc.perp_second_moment
        point["total_second_moment"] = ssc.total_second_moment

    usage = transform.unused_service_rate(samples)
    rows += [("unused", "raw", usage.raw, usage.stderr_raw),
             ("unused", "critical_scaled", usage.critical_scaled)]

    mgf = transform.empirical_mgf(samples, manifest.phi_grid, spec)
    rows += [("mgf", f"phi={phi:g}", val, se)
             for phi, val, se in zip(mgf.phi_grid, mgf.values, mgf.stderr)]
    if spec.kind == "classic":
        residuals = transform.classic_residual(mgf)
    elif spec.kind == "critical":
        residuals = transform.critical_ode_residual(mgf)
    else:
        residuals = transform.overloaded_ode_residual(mgf)
    for c in residuals:
        rows += [("residual", c.key, c.estimate, c.stderr),
                 ("residual_usable", c.key, 1.0 if c.usable else 0.0)]
    point["max_residual_z"] = _max_abs(
        [c.zscore for c, phi in zip(residuals, mgf.phi_grid) if c.usable and phi != 0.0]
    )
    return rows, point


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
    import multiprocessing  # only a sweep forks, so only it loads these
    from concurrent.futures import ProcessPoolExecutor

    manifest.check()
    out = Path(out_dir if out_dir is not None else manifest.outputs)
    out.mkdir(parents=True, exist_ok=True)
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
    kind = manifest.regime.kind
    points = []
    status = 0
    # point gi runs here when gi % workers == 0 and in the pool otherwise; a
    # forked child skips the import that a fresh interpreter would repeat
    workers = min(2, len(manifest.gammas), len(os.sched_getaffinity(0)))
    pool = (ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"))
            if workers > 1 else contextlib.nullcontext())
    with (out / "results.csv").open("w") as fh, pool:
        fh.write(CSV_HEADER + "\n")
        fh.flush()
        # next() submits the child's next point once its last one is collected:
        # after a failure, leaving the pool waits for at most the one it computes
        child = (pool.submit(_gamma_point, manifest, gi, manifest.gammas[gi])
                 for gi in range(1, len(manifest.gammas), workers) if workers > 1)
        future = next(child, None)  # first, so the child computes alongside
        try:
            for gi, gamma in enumerate(manifest.gammas):
                # a point's rows are written only once all of them are computed
                if gi % workers:
                    rows, point = future.result()
                    future = next(child, None)
                else:
                    rows, point = _gamma_point(manifest, gi, gamma)
                _append_rows(fh, gamma, kind, rows)
                points.append(point)
                sidecar["completed_gammas"].append(gamma)
        except Exception as exc:  # report the failed point; earlier points' rows stay
            sidecar["error"] = f"{type(exc).__name__}: {exc}"
            print(f"error: gamma={gamma:g}: {sidecar['error']}", file=sys.stderr)
            status = 1
        else:
            summary = _summary(points)
            sidecar["summary"] = summary
            rows = [("summary", "ks_decreasing", float(summary["ks_trend"] == "decreasing"))]
            if "perp_ratio_decreasing" in summary:
                rows.append(("summary", "perp_ratio_decreasing",
                             float(summary["perp_ratio_decreasing"])))
            _append_rows(fh, manifest.gammas[-1], kind, rows)
        finally:
            if future is not None:  # dropped unless the child has started it
                future.cancel()
    (out / "run.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return status


def oracle_check(config, cap: int, plan: SamplingPlan, seed: int) -> int:
    """Compare simulated moments and the MGF at ORACLE_PHI_GRID against the
    exact truncated chain.

    Prints one line per statistic with its z-score; returns 0 iff every
    |z| < 4, so a statistic without a standard error (one batch) fails. The
    config, plan and seed are validated before the chain is built.
    """
    require_valid(config)
    plan.check()
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    chain = oracle.build_chain(config, cap)
    pi = oracle.stationary(chain)
    law = oracle.exact_law(chain, pi)
    samples = collect_steady_state(config, plan, seed)

    def statistics(table):
        """Each checked statistic at the table's rows, one column each."""
        totals = table.rows.sum(axis=1).astype(float)
        mgfs = [np.exp(math.sqrt(config.gamma) * phi * totals) for phi in ORACLE_PHI_GRID]
        return np.column_stack([totals, totals**2, *mgfs])

    keys = ["total_mean", "total_second_moment", *(f"mgf_phi={phi:g}" for phi in ORACLE_PHI_GRID)]
    stats = zip(keys, statistics(samples.counts).T, law.batch_means(statistics(law))[0])
    checks = [transform.Comparison(key, *samples.counts.estimate(v), t) for key, v, t in stats]

    for c in checks:
        print(f"{c.key}: simulated={c.estimate:.6g} exact={c.target:.6g} stderr={c.stderr:.3g} "
              f"z={c.zscore:+.2f}")
    # a NaN z makes `worst` NaN, which fails the gate below
    worst = _max_abs(c.zscore for c in checks)
    print(f"leakage={oracle.stationary_leakage(chain, pi):.3g} max|z|={worst:.2f}")
    return 0 if worst < 4.0 else 1


def _load_json(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable file or not JSON
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    return obj


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
        config = config_from_dict(_load_json(args.config))
        require_valid(config)
        if args.command == "oracle-check":
            plan = default_plan(config, num_samples=args.samples, replicas=args.replicas)
            return oracle_check(config, args.cap, plan, args.seed)
        if args.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {args.seed}")
        if args.horizon < 1:
            # a horizon of 0 checks no slot and would read as a pass
            raise ConfigError(f"--horizon must be at least 1, got {args.horizon}")
        c_tilde = args.c_tilde
        if c_tilde is None:
            c_tilde = config.drift + config.bound * math.sqrt(config.gamma)
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
