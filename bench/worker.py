"""Workload process of the jsqa benchmark.

Started by bench.py with the checkout's `src` on PYTHONPATH. It imports jsqa,
parses and validates the workload's input files and prints `ready`; with
--setup-only it stops there. Otherwise it executes the workload through
`jsqa.cli.main` again and again for --seconds, checks every execution's
outputs and writes a JSON report to <work>/report.json.

With --trace 1, traced executions alternate with untraced ones; the traced
ones give the per-layer metrics, and after them step_many is probed directly
at several widths.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import jsqa
import jsqa.cli
import jsqa.limits
import jsqa.model
import jsqa.regimes
import jsqa.simulator

import checks
import tracer
import workloads

MIN_EXECUTIONS = 3  # untraced run
MIN_EACH_TRACED = 2  # traced run: this many traced and this many untraced


def _call(argv: list[str]):
    """Exit status of one CLI call, or None if it raised."""
    try:
        return jsqa.cli.main(argv)
    except Exception:  # the gate counts the failure; keep measuring
        traceback.print_exc()
        return None


class Job:
    """One workload: its CLI calls, the replica-slots they simulate, and the
    gate that checks their outputs."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.calls = workloads.cli_calls(workload, seed, work)
        if workload == "exact-checks":
            oracle_cfg = jsqa.model.config_from_dict(_load(work / "oracle_config.json"))
            domination_cfg = jsqa.model.config_from_dict(_load(work / "domination_config.json"))
            for config in (oracle_cfg, domination_cfg):
                report = jsqa.model.validate(config)
                if not report.ok:
                    raise SystemExit(f"invalid config: {report}")
            # the plan oracle-check derives from --samples and --replicas
            plan = jsqa.simulator.default_plan(oracle_cfg, num_samples=workloads.ORACLE_SAMPLES,
                                               replicas=workloads.ORACLE_REPLICAS)
            self.slots = _plan_slots(plan) + workloads.DOMINATION_HORIZON
        else:
            self.doc = _load(work / "manifest.json")
            self.manifest = jsqa.cli.manifest_from_dict(self.doc)
            self.manifest.check()
            self.slots = len(self.manifest.gammas) * _plan_slots(self.manifest.plan)

    def targets(self) -> dict:
        """Limit values the gate compares against, from jsqa's closed forms."""
        spec = self.manifest.regime
        per_coord, _ = jsqa.limits.limit_for_regime(spec)
        sigma2, _ = jsqa.regimes.limit_sigma2(spec)
        return {
            "phi_grid": list(self.manifest.phi_grid),
            "mean": per_coord.moment(1),
            "unused": jsqa.limits.critical_unused_limit(spec.constant, sigma2),
            "drift": {g: jsqa.regimes.build_config(spec, g).drift for g in self.manifest.gammas},
        }

    def execute(self) -> tuple[float, list, str]:
        """Run the CLI calls once; (wall seconds, exit statuses, captured stdout)."""
        out = self.work / "out"
        for name in ("results.csv", "run.json"):
            (out / name).unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            statuses = [_call(argv) for argv in self.calls]
            wall = time.perf_counter() - t0
        return wall, statuses, buf.getvalue()

    def outputs(self, stdout: str) -> bytes:
        """The bytes the determinism contract covers."""
        if self.workload == "exact-checks":
            return stdout.encode()
        out = self.work / "out"
        return b"".join(_read(out / name) for name in ("results.csv", "run.json"))

    def check(self, statuses, stdout: str, targets: dict | None) -> list:
        if self.workload == "exact-checks":
            return checks.exact_checks(statuses, stdout)
        results = (self.work / "out" / "results.csv")
        text = results.read_text() if results.exists() else None
        return checks.sweep_checks(statuses[0], text, self.doc, targets)


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def _plan_slots(plan) -> int:
    return plan.replicas * plan.warmup_slots + plan.num_samples * plan.thinning


def _blas_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                break
    return facts


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_facts(),
    }


def measure(job: Job, seconds: float, trace: bool, seed: int) -> dict:
    targets = job.targets() if job.workload != "exact-checks" else None
    spans = tracer.Tracer() if trace else None
    untraced, traced, layer_runs = [], [], []
    digests = []
    attempted = failed = 0
    first_checks = None
    failures = []
    start = time.perf_counter()
    while True:
        traced_now = trace and len(untraced) > len(traced)
        if traced_now:
            spans.install()
        try:
            wall, statuses, stdout = job.execute()
        finally:
            if traced_now:
                spans.uninstall()
        (traced if traced_now else untraced).append(wall)
        if traced_now:
            layer_runs.append(spans.take())
        digests.append(hashlib.sha256(job.outputs(stdout)).hexdigest())
        results = job.check(statuses, stdout, targets)
        if len(digests) > 1:
            results.append(("deterministic", digests[-1] == digests[0], digests[-1][:16]))
        first_checks = first_checks or results
        attempted += len(results)
        for name, passed, detail in results:
            if not passed:
                failed += 1
                failures.append(f"{name}: {detail}")
        elapsed = time.perf_counter() - start
        if trace:
            enough = min(len(untraced), len(traced)) >= MIN_EACH_TRACED
        else:
            enough = len(untraced) >= MIN_EXECUTIONS
        if enough and elapsed + statistics.median(untraced + traced) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "wall_s": untraced,
        "traced_wall_s": traced,
        "slots_per_execution": job.slots,
        "peak_rss_mb": peak_rss_mb,
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "checks": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in first_checks],
        "failures": failures[:20],
        "machine": machine_facts(),
        "jsqa": str(Path(jsqa.__file__).parent),
    }
    if trace:
        layers = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        found = tracer.resolve("jsqa.simulator", "step_many")
        if found is not None and spans.last_samples is not None:
            q, config = spans.last_samples
            layers.update(tracer.probe_step_many(found[2], q, config, seed))
        layers["cli.results_csv_bytes"] = len(_read(job.work / "out" / "results.csv"))
        report["layers"] = layers
        report["missing_spans"] = spans.missing
        report["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    job = Job(args.workload, args.seed, work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    report = measure(job, args.seconds, bool(args.trace), args.seed)
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
