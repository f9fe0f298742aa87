"""jsqa benchmark: one workload per call, measured end to end or traced.

    python3 bench/bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it builds nothing and runs the
package from the checkout's `src`. Workloads are listed in BENCHMARK.json
and defined in bench/workloads.py.

A call first times SETUP_SAMPLES fresh processes that import jsqa and parse
and validate the workload's inputs; setup_s is their median. It then starts
one workload process, which runs the workload's CLI calls again and again
for --seconds and checks every execution's outputs (bench/checks.py).

stdout ends with two JSON lines. The first, {"facts": ...}, holds the
machine facts, every sample, the outputs' digest and each check. The last
holds `correct`, `attempted`, `failed` (counts of checks) and `metrics`:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. A per-layer metric whose function no longer exists in
jsqa is left out and named under facts.missing_metrics.

The exit status is 0 when a result was printed, whether or not the checks
passed, and nonzero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


def _start_to_ready(cmd: list[str], env: dict, timeout: float) -> float:
    """Seconds from starting `cmd` until it prints `ready`; waits for its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return ready


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(facts, result) of one benchmark call."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "jsqa" / "__init__.py").is_file():
        raise BenchError(f"no jsqa package under {src}")
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(workload, seed, work)

    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("JSQA_THREADS", None)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]

    def remaining() -> float:
        return deadline - time.perf_counter()

    setup = [_start_to_ready(cmd + ["--setup-only"], env, remaining())
             for _ in range(SETUP_SAMPLES)]
    _start_to_ready(cmd + ["--seconds", str(seconds), "--trace", str(int(trace))],
                    env, remaining())
    report = json.loads((work / "report.json").read_text())
    if Path(report["jsqa"]).resolve() != (src / "jsqa").resolve():
        raise BenchError(f"imported jsqa from {report['jsqa']}, not from {src}")

    wall = statistics.median(report["wall_s"])
    if trace:
        values = report["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "replica_slots_per_s": report["slots_per_execution"] / wall,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    attempted, failed = report["attempted"], report["failed"]
    facts = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": report["machine"],
        "setup_s_samples": setup,
        "wall_s_samples": report["wall_s"],
        "traced_wall_s_samples": report["traced_wall_s"],
        "trace_overhead_ratio": report.get("trace_overhead_ratio"),
        "replica_slots_per_execution": report["slots_per_execution"],
        "digest": report["digest"],
        "digests_agree": report["digests_agree"],
        "check_fail_ratio": failed / attempted,
        "checks": report["checks"],
        "failures": report["failures"],
        "missing_spans": report.get("missing_spans", []),
        "missing_metrics": [m["name"] for m in wanted if m["name"] not in values],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return facts, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        facts, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
