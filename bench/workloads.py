"""Inputs of the three benchmark workloads, made from the workload seed.

Every workload uses the acceptance suite's servers: two Binomial(2, 1/4)
servers with arrival bound 4. A workload is a closed batch job: its CLI calls
run one after another in a single process, and the benchmark times each
execution of the whole job.

- sweep-critical: `jsqa run` on the critical family (C = 0, alpha = 1/2) at
  gamma in {1e-2, 1e-3}. Queues are short, so the run is bound by per-slot
  call overhead in the slot kernel.
- sweep-overloaded: `jsqa run` on the overloaded family (C = 0.2, alpha = 0)
  at gamma in {1e-1, 1e-2}. It retains about a million samples per gamma with
  thinning 1, the default 33-point phi grid and moment orders 1-4, so the
  estimators take a large share of the time and most of the memory.
- exact-checks: `jsqa oracle-check` on the two-queue config of acceptance
  criterion 2 at a cap in the dense-solve range, then `jsqa domination` on the
  single-queue config of criterion 9 at gamma = 0.05.

This module only writes JSON documents and CLI argument lists; it does not
import jsqa.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("sweep-critical", "sweep-overloaded", "exact-checks")
DEFAULT_SEED = 20240705

SERVICES = [
    {"kind": "binomial", "trial-count": 2, "success-probability": 0.25},
    {"kind": "binomial", "trial-count": 2, "success-probability": 0.25},
]

# gamma = 1e-3 relaxes on a scale of 1/gamma = 1000 slots: 6 relaxation times
# of warmup, then 344 retained samples per replica over another 11008 slots.
# The unused-service estimate sees only retained slots; at this size its
# relative standard error is about 3%, against the gate's 15% tolerance.
CRITICAL_PLAN = {"warmup_slots": 6000, "num_samples": 256 * 344, "thinning": 32, "replicas": 256}
# 20 relaxation times of warmup at gamma = 1e-2; 2^20 retained samples per gamma.
OVERLOADED_PLAN = {"warmup_slots": 2000, "num_samples": 256 * 4096, "thinning": 1, "replicas": 256}

# 61^2 = 3721 states, the cap of acceptance criterion 2: inside the oracle's
# dense-solve range, and small enough that the two-thread BLAS solve, whose
# time swings most with load on a shared host, is not most of the run.
ORACLE_CAP = 60
ORACLE_SAMPLES = 200_000
ORACLE_REPLICAS = 64
DOMINATION_HORIZON = 300_000


def _manifest(kind: str, constant: float, alpha: float, gammas, plan, orders, seed: int) -> dict:
    return {
        "regime": {"kind": kind, "constant": constant, "alpha": alpha,
                   "base_services": SERVICES, "bound": 4},
        "gammas": gammas,
        "plan": plan,
        "moment_orders": orders,
        "seed": seed,
        "outputs": ".",
    }


def documents(workload: str, seed: int) -> dict[str, dict]:
    """Input files of one workload, by file name."""
    if workload == "sweep-critical":
        return {"manifest.json": _manifest("critical", 0.0, 0.5, [1e-2, 1e-3],
                                           CRITICAL_PLAN, [1, 2], seed)}
    if workload == "sweep-overloaded":
        return {"manifest.json": _manifest("overloaded", 0.2, 0.0, [1e-1, 1e-2],
                                           OVERLOADED_PLAN, [1, 2, 3, 4], seed)}
    if workload == "exact-checks":
        return {
            "oracle_config.json": {
                "n": 2,
                "gamma": 0.1,
                "arrivals": {"kind": "bernoulli-scaled", "support-point": 2,
                             "success-probability": 0.2},
                "services": [
                    {"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.25},
                    {"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.25},
                ],
            },
            "domination_config.json": {
                "n": 1,
                "gamma": 0.05,
                "arrivals": {"kind": "bernoulli-scaled", "support-point": 1,
                             "success-probability": 0.3},
                "services": [
                    {"kind": "bernoulli-scaled", "support-point": 1, "success-probability": 0.4},
                ],
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, doc in documents(workload, seed).items():
        (work / name).write_text(json.dumps(doc, indent=2) + "\n")


def cli_calls(workload: str, seed: int, work: Path) -> list[list[str]]:
    """The `jsqa` argument lists that make up one execution of the workload."""
    if workload in ("sweep-critical", "sweep-overloaded"):
        return [["run", str(work / "manifest.json"), "--out", str(work / "out")]]
    return [
        ["oracle-check", str(work / "oracle_config.json"), "--cap", str(ORACLE_CAP),
         "--samples", str(ORACLE_SAMPLES), "--replicas", str(ORACLE_REPLICAS),
         "--seed", str(seed)],
        ["domination", str(work / "domination_config.json"),
         "--horizon", str(DOMINATION_HORIZON), "--seed", str(seed)],
    ]
