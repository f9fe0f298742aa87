"""Exact stationary distribution of the queue chain on a truncated state
space, for one or two queues. Serves as ground truth for simulator and
estimator validation.

The one-slot kernel convolves the abandonment law Binomial(q_i, gamma), the
dispatch decision (argmin with a half/half tie split for two queues), and the
arrival/service laws, then applies the positive-part map. Probability mass
that would land above the per-queue cap is clamped into the cap state, which
keeps rows exactly stochastic; the clamped mass is reported as leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .errors import NonConvergenceError, StateBudgetError
from .model import SystemConfig

__all__ = [
    "TruncatedChain",
    "build_chain",
    "auto_chain",
    "stationary",
    "stationary_leakage",
    "oracle_moments",
    "oracle_mgf",
    "oracle_perp_second_moment",
]

# Budget for the dense float64 kernel alone. The dense stationary solve holds
# about three kernel-sized arrays at once (the kernel, its shifted transpose
# and the LU factor), so peak memory is roughly three times this.
MAX_KERNEL_BYTES = 1 << 30
DENSE_SOLVE_STATES = 20_000


@dataclass
class TruncatedChain:
    """Row-stochastic one-slot kernel over {0..cap}^n plus bookkeeping.

    `row_clamp[s]` is the probability mass that state s would have pushed
    beyond the cap (folded into the cap state); `leakage` is its maximum over
    states. The max is dominated by the cap-boundary rows themselves, so
    truncation quality checks weight it by the stationary law instead (see
    `stationary_leakage`). `expected_unused` holds E[total unused service |
    state] computed exactly from the same convolutions.
    """

    config: SystemConfig
    cap: int
    matrix: np.ndarray
    leakage: float
    expected_unused: np.ndarray
    row_clamp: np.ndarray

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    def state_vectors(self) -> np.ndarray:
        """(num_states, n) integer array mapping state index -> queue vector."""
        n = self.config.n
        if n == 1:
            return np.arange(self.cap + 1, dtype=np.int64)[:, None]
        side = self.cap + 1
        q1, q2 = np.divmod(np.arange(side * side, dtype=np.int64), side)
        return np.stack([q1, q2], axis=1)


def _signed_pmf(dist, negate: bool) -> tuple[np.ndarray, int]:
    """PMF array and the value of its first cell, optionally for -X."""
    p = dist.pmf()
    if negate:
        return p[::-1], -dist.bound
    return p, 0


def _next_pmf(q: int, abandon_pmf: np.ndarray, kernel: np.ndarray, kernel_lo: int, cap: int):
    """Distribution of max(0, q - d + w): pmf over 0..cap, clamped mass above
    cap, and the expected unused service E[max(0, -(q - d + w))]."""
    # pmf of j = q - d over j = 0..q is the reversed abandonment pmf
    surv = abandon_pmf[::-1]
    full = np.convolve(surv, kernel)  # over v = kernel_lo .. q + kernel_lo + len - 1
    lo = kernel_lo
    vals = np.arange(lo, lo + full.size)
    neg = vals < 0
    unused = float((-vals[neg] * full[neg]).sum())
    out = np.zeros(cap + 1)
    out[0] = full[neg].sum()
    inside = (~neg) & (vals <= cap)
    out[vals[inside]] = out[vals[inside]] + full[inside]
    overflow = float(full[vals > cap].sum())
    out[cap] += overflow
    return out, overflow, unused


def build_chain(config: SystemConfig, cap: int) -> TruncatedChain:
    """Exact one-slot kernel truncated at `cap` jobs per queue.

    The kernel is a dense (states x states) float64 matrix, so its size in
    bytes is checked against MAX_KERNEL_BYTES before anything is allocated;
    the dense solve in `stationary` then holds about three such arrays.
    """
    n = config.n
    if n > 2:
        raise StateBudgetError("exact chains are built for n <= 2 only")
    states = (cap + 1) ** n
    kernel_bytes = 8 * states**2
    if kernel_bytes > MAX_KERNEL_BYTES:
        raise StateBudgetError(
            f"cap {cap} gives {states} states, a dense kernel of {kernel_bytes} bytes, "
            f"over the budget of {MAX_KERNEL_BYTES} bytes"
        )
    gamma = config.gamma

    # abandonment pmf rows: row q holds Binomial(q, gamma) over 0..q
    aband = [binom.pmf(np.arange(q + 1), q, gamma) for q in range(cap + 1)]

    arr_pmf = config.arrivals.pmf()
    if n == 1:
        svc_pmf, svc_lo = _signed_pmf(config.services[0], negate=True)
        kernel = np.convolve(arr_pmf, svc_pmf)  # a - s
        kernel_lo = svc_lo
        size = cap + 1
        P = np.zeros((size, size))
        E_u = np.zeros(size)
        clamp = np.zeros(size)
        for q in range(size):
            row, overflow, unused = _next_pmf(q, aband[q], kernel, kernel_lo, cap)
            P[q] = row
            E_u[q] = unused
            clamp[q] = overflow
        return TruncatedChain(
            config=config, cap=cap, matrix=P, leakage=float(clamp.max()),
            expected_unused=E_u, row_clamp=clamp,
        )

    # n == 2: per queue, kernels with and without the arrival batch
    kernels = []
    for svc in config.services:
        svc_pmf, svc_lo = _signed_pmf(svc, negate=True)
        with_arr = np.convolve(arr_pmf, svc_pmf)
        kernels.append({"hit": (with_arr, svc_lo), "miss": (svc_pmf, svc_lo)})

    side = cap + 1
    size = side * side
    P = np.zeros((size, size))
    E_u = np.zeros(size)
    clamp = np.zeros(size)
    # cache marginal next-state pmfs per (queue, q, hit/miss)
    cache: dict[tuple[int, int, str], tuple[np.ndarray, float, float]] = {}

    def marginal(i: int, q: int, key: str):
        ck = (i, q, key)
        if ck not in cache:
            kern, lo = kernels[i][key]
            cache[ck] = _next_pmf(q, aband[q], kern, lo, cap)
        return cache[ck]

    for q1 in range(side):
        for q2 in range(side):
            state = q1 * side + q2
            if q1 < q2:
                weights = ((1.0, 0), )
            elif q2 < q1:
                weights = ((1.0, 1), )
            else:
                weights = ((0.5, 0), (0.5, 1))
            row = np.zeros((side, side))
            overflow = 0.0
            unused = 0.0
            for w, dest in weights:
                k1 = "hit" if dest == 0 else "miss"
                k2 = "hit" if dest == 1 else "miss"
                p1, o1, u1 = marginal(0, q1, k1)
                p2, o2, u2 = marginal(1, q2, k2)
                row += w * np.outer(p1, p2)
                overflow += w * (o1 + o2)
                unused += w * (u1 + u2)
            P[state] = row.reshape(-1)
            E_u[state] = unused
            clamp[state] = overflow
    return TruncatedChain(
        config=config, cap=cap, matrix=P, leakage=float(clamp.max()),
        expected_unused=E_u, row_clamp=clamp,
    )


def stationary_leakage(chain: TruncatedChain, pi: np.ndarray) -> float:
    """Clamped probability mass per slot under the stationary law.

    This is the truncation-quality diagnostic: the raw per-row maximum is
    dominated by the cap-boundary rows, which the chain essentially never
    visits when the cap is adequate.
    """
    return float(pi @ chain.row_clamp)


def auto_chain(
    config: SystemConfig, target_leakage: float = 1e-8
) -> tuple[TruncatedChain, np.ndarray]:
    """Build a chain (and its stationary law) with the cap doubled until the
    stationary leakage drops below target.

    The stationary law concentrates near max(drift, 0)/gamma with a spread of
    order sqrt(variance/gamma), which sets the starting cap.
    """
    gamma = config.gamma
    cap = int(math.ceil(max(config.drift, 0.0) / gamma + 10.0 * math.sqrt(config.variance / gamma)))
    cap = max(cap, 4 * config.bound, 16)
    while True:
        chain = build_chain(config, cap)
        pi = stationary(chain)
        if stationary_leakage(chain, pi) < target_leakage:
            return chain, pi
        cap *= 2


def stationary(
    chain: TruncatedChain,
    method: str = "auto",
    tol: float = 1e-12,
    max_sweeps: int = 2_000_000,
) -> np.ndarray:
    """Stationary probability vector of the truncated kernel.

    Solves the linear fixed point densely for small chains and falls back to
    power iteration (total-variation tolerance per sweep) for large ones.
    """
    P = chain.matrix
    size = P.shape[0]
    if method == "auto":
        method = "dense" if size <= DENSE_SOLVE_STATES else "power"
    if method == "dense":
        A = P.T - np.eye(size)
        A[-1, :] = 1.0
        b = np.zeros(size)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        pi = np.maximum(pi, 0.0)
        return pi / pi.sum()
    pi = np.full(size, 1.0 / size)
    for _ in range(max_sweeps):
        nxt = pi @ P
        delta = np.abs(nxt - pi).sum()
        pi = nxt
        if delta < tol:
            return pi / pi.sum()
    raise NonConvergenceError(f"power iteration did not reach tol={tol} in {max_sweeps} sweeps")


def oracle_moments(chain: TruncatedChain, pi: np.ndarray, order: int = 1) -> dict:
    """Exact stationary expectations: total and per-coordinate moments up to
    `order`, plus the perpendicular second moment for two queues."""
    states = chain.state_vectors()
    totals = states.sum(axis=1)
    out = {}
    for m in range(1, order + 1):
        out[f"total_m{m}"] = float(pi @ (totals.astype(float) ** m))
        for i in range(chain.config.n):
            out[f"q{i}_m{m}"] = float(pi @ (states[:, i].astype(float) ** m))
    if chain.config.n == 2:
        out["perp_second_moment"] = oracle_perp_second_moment(chain, pi)
    out["unused_mean"] = float(pi @ chain.expected_unused)
    return out


def oracle_perp_second_moment(chain: TruncatedChain, pi: np.ndarray) -> float:
    states = chain.state_vectors().astype(float)
    sq = (states**2).sum(axis=1)
    tot = states.sum(axis=1)
    return float(pi @ (sq - tot**2 / chain.config.n))


def oracle_mgf(chain: TruncatedChain, pi: np.ndarray, gamma: float, phi: float) -> float:
    """Exact E[exp(sqrt(gamma) * phi * total queue)] under pi."""
    totals = chain.state_vectors().sum(axis=1).astype(float)
    return float(pi @ np.exp(math.sqrt(gamma) * phi * totals))
