"""Per-layer spans for the traced run, recorded from outside the program.

The tracer wraps public jsqa functions at the module boundaries and times
each call. A span's self time is its duration minus the time of the wrapped
calls made inside it. The wrappers replace every reference to a function in
the loaded jsqa modules, so calls through `from .simulator import ...` names
are timed as well. A function that no longer exists is reported as missing,
and every metric built on it is left out.

Small observers read counts off arguments and results (rows per kernel call,
oracle matrix size). They run outside the span they observe, so their cost
counts towards the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute). Several attributes may feed one span.
SPANS = (
    ("cli.run", "jsqa.cli", "run"),
    ("cli.oracle_check", "jsqa.cli", "oracle_check"),
    ("simulator.collect_steady_state", "jsqa.simulator", "collect_steady_state"),
    ("simulator.step_many", "jsqa.simulator", "step_many"),
    ("simulator.simulate_coupled_domination", "jsqa.simulator", "simulate_coupled_domination"),
    ("model.sample_many", "jsqa.model", "sample_many"),
    ("regimes.scale", "jsqa.regimes", "scale"),
    ("regimes.build_config", "jsqa.regimes", "build_config"),
    ("limits.limit_for_regime", "jsqa.limits", "limit_for_regime"),
    ("limits.cdf", "jsqa.limits", "LimitDistribution.cdf"),
    ("transform.empirical_mgf", "jsqa.transform", "empirical_mgf"),
    ("transform.moment_report", "jsqa.transform", "moment_report"),
    ("transform.ks_statistic", "jsqa.transform", "ks_statistic"),
    ("transform.ssc_estimate", "jsqa.transform", "ssc_estimate"),
    ("transform.unused_service_rate", "jsqa.transform", "unused_service_rate"),
    ("transform.residual", "jsqa.transform", "classic_residual"),
    ("transform.residual", "jsqa.transform", "critical_ode_residual"),
    ("transform.residual", "jsqa.transform", "overloaded_ode_residual"),
    ("oracle.build_chain", "jsqa.oracle", "build_chain"),
    ("oracle.stationary", "jsqa.oracle", "stationary"),
)

# Kernel widths probed directly, in rows per step_many call.
PROBE_WIDTHS = (64, 256, 1024, 16384)
PROBE_ROWS_PER_BLOCK = 1 << 17
PROBE_BLOCKS = 5

NONZERO_THRESHOLD = 1e-16


def resolve(module: str, attr: str):
    """(owner object, attribute name, function), or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


def _matrix_facts(matrix) -> tuple[int, int, float]:
    """(states, stored bytes, share of entries above NONZERO_THRESHOLD)."""
    rows, cols = matrix.shape
    if hasattr(matrix, "tocsr"):  # a scipy.sparse kernel
        csr = matrix.tocsr()
        stored = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        above = int(np.count_nonzero(csr.data > NONZERO_THRESHOLD))
    else:
        stored = matrix.nbytes
        above = int(np.count_nonzero(matrix > NONZERO_THRESHOLD))
    return rows, stored, above / (rows * cols)


class Tracer:
    """Span totals for one workload execution; `install` wraps, `uninstall`
    restores, `take` returns the totals and starts new ones."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.unobserved: set[str] = set()  # spans whose observer failed
        self.last_samples = None  # (q matrix, config) of the last collect_steady_state
        self._stack: list[float] = []  # child time of each open span
        self._reset()

    @property
    def missing(self) -> list[str]:
        return sorted({name for name, _, _ in SPANS} - self.installed)

    def _reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)

    def _observe(self, name: str, args, result) -> None:
        try:
            if name == "simulator.step_many":
                self.counts["step_many.rows"] += args[0].shape[0]
            elif name == "simulator.collect_steady_state":
                self.last_samples = (result.q, result.config)
            elif name == "simulator.simulate_coupled_domination":
                self.counts["domination.slots"] += result.slots_checked
            elif name == "transform.empirical_mgf":
                self.counts["transform.samples"] += len(args[0])
            elif name == "oracle.build_chain":
                states, stored, ratio = _matrix_facts(result.matrix)
                self.counts["oracle.states"] = states
                self.counts["oracle.matrix_bytes"] = stored
                self.counts["oracle.nonzero_ratio"] = ratio
        except (AttributeError, IndexError, TypeError, ValueError):
            # the function's arguments or result changed shape
            self.unobserved.add(name)

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
            self._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, module, attr in SPANS:
            found = resolve(module, attr)
            if found is None:
                continue
            owner, attr_name, fn = found
            wrapper = self._wrap(name, fn)
            self._patch(owner, attr_name, wrapper)
            # rebind names imported elsewhere with `from module import fn`
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("jsqa"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
            self.installed.add(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last take."""
        out = {f"{name}.s": self.total[name] for name in self.installed}

        def put(metric, span, value, observed=False):
            if span in self.installed and not (observed and span in self.unobserved):
                out[metric] = value

        calls = self.calls["simulator.step_many"]
        put("simulator.step_many.calls", "simulator.step_many", calls)
        put("simulator.step_many.self_s", "simulator.step_many",
            self.self_time["simulator.step_many"])
        put("simulator.step_many.rows_per_call", "simulator.step_many",
            self.counts["step_many.rows"] / calls if calls else 0.0, observed=True)
        dom_s = self.total["simulator.simulate_coupled_domination"]
        put("simulator.domination.slots_per_s", "simulator.simulate_coupled_domination",
            self.counts["domination.slots"] / dom_s if dom_s else 0.0, observed=True)
        put("model.sample_many.calls", "model.sample_many", self.calls["model.sample_many"])
        put("transform.samples", "transform.empirical_mgf", self.counts["transform.samples"],
            observed=True)
        put("cli.run.self_s", "cli.run", self.self_time["cli.run"])
        for key in ("oracle.states", "oracle.matrix_bytes", "oracle.nonzero_ratio"):
            put(key, "oracle.build_chain", self.counts[key], observed=True)
        self._reset()
        return out


def probe_step_many(step_many, q_samples: np.ndarray, config, seed: int) -> dict[str, float]:
    """Replica-rows per second of direct step_many calls at each probe width,
    starting from rows drawn from the workload's own retained samples.

    Each width runs PROBE_BLOCKS timed blocks of about PROBE_ROWS_PER_BLOCK
    rows after one untimed call and reports the median block rate.
    """
    gen = np.random.Generator(np.random.Philox(seed))
    out = {}
    for width in PROBE_WIDTHS:
        q = np.ascontiguousarray(q_samples[gen.integers(0, q_samples.shape[0], width)])
        q = step_many(q, config, gen)[0]
        calls = max(1, PROBE_ROWS_PER_BLOCK // width)
        rates = []
        for _ in range(PROBE_BLOCKS):
            t0 = time.perf_counter()
            for _ in range(calls):
                q = step_many(q, config, gen)[0]
            rates.append(calls * width / (time.perf_counter() - t0))
        out[f"simulator.step_many.w{width}.rows_per_s"] = sorted(rates)[PROBE_BLOCKS // 2]
    return out
