"""Exact stationary distribution of the queue chain on a truncated state
space, for one or two queues. Serves as ground truth for simulator and
estimator validation.

The one-slot kernel is a scipy.sparse CSR array built from per-queue
next-state tables over 0..cap: row q of H_i is the law of
max(0, q - d + a - s_i), where queue i gets the arrival batch a, and row q of
M_i that of max(0, q - d - s_i), with d ~ Binomial(q, gamma). One queue gives
P = H_1; two give P = D_0 (H_1 kron M_2) + D_1 (M_1 kron H_2), where the
diagonal dispatch weights D_i are 1, 1/2 or 0 as queue i is shorter, tied or
longer. Table entries below DROP_BELOW, like the mass above the cap, fold
into the cap state, so rows stay exactly stochastic and `row_clamp` reports
all truncation error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import StateBudgetError
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

# Without the drop, Binomial(q, gamma) tails fill each table row and the
# two-queue kernel holds about twice the nonzeros.
DROP_BELOW = 1e-14
# 2^24 nonzeros are 200 MB of CSR; the Kronecker products that build the
# kernel and the LU of the solve take several times that (criterion 2's
# config at cap 100: 8.1 M nonzeros, 0.7 GB peak).
MAX_KERNEL_NONZEROS = 1 << 24


@dataclass
class TruncatedChain:
    """Row-stochastic one-slot kernel over {0..cap}^n plus bookkeeping.

    `row_clamp[s]` is the probability mass that state s would have pushed
    beyond the cap or below DROP_BELOW (folded into the cap state). Its
    maximum is dominated by the cap-boundary rows themselves, so truncation
    quality checks weight it by the stationary law instead (see
    `stationary_leakage`). `expected_unused` holds E[total unused service |
    state] computed exactly from the same convolutions.
    """

    config: SystemConfig
    cap: int
    matrix: sp.csr_array
    expected_unused: np.ndarray
    row_clamp: np.ndarray

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    def state_vectors(self) -> np.ndarray:
        """(num_states, n) integer array mapping state index -> queue vector."""
        return _states(self.cap + 1, self.config.n)


def _states(side: int, n: int) -> np.ndarray:
    """(side**n, n) queue vectors in state-index order (row-major over queues)."""
    return np.indices((side,) * n, dtype=np.int64).reshape(n, -1).T


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


def _queue_table(abandon: list, kernel: np.ndarray, kernel_lo: int, cap: int):
    """One queue's next-state table (CSR, rows q = 0..cap) for the increment
    law `kernel` starting at `kernel_lo`, and a (2, cap + 1) array of each
    row's clamped mass and expected unused service. Entries below DROP_BELOW
    fold into the cap state and count as clamped."""
    side = cap + 1
    clamp_unused = np.zeros((2, side))
    cols, vals = [], []
    for q in range(side):
        row, overflow, clamp_unused[1, q] = _next_pmf(q, abandon[q], kernel, kernel_lo, cap)
        small = row < DROP_BELOW
        small[cap] = False
        dropped = row[small].sum()
        row[small] = 0.0
        row[cap] += dropped
        clamp_unused[0, q] = overflow + dropped
        cols.append(np.flatnonzero(row))
        vals.append(row[cols[-1]])
    indptr = np.concatenate([[0], np.cumsum([c.size for c in cols])])
    table = sp.csr_array((np.concatenate(vals), np.concatenate(cols), indptr), shape=(side, side))
    return table, clamp_unused


def _kernel_nonzeros(hit: list, miss: list) -> int:
    """Exact nonzero count of the kernel, from the table row supports."""
    if len(hit) == 1:
        return hit[0].nnz
    (h1, h2), (m1, m2) = hit, miss
    # the count passes 2^31 at large caps, and index arrays may be int32
    sh1, sh2, sm1, sm2 = (np.diff(t.indptr).astype(np.int64) for t in (h1, h2, m1, m2))
    # rows with q1 < q2 hold supp H_1[q1] x supp M_2[q2]; sum over q1 < q2 by
    # exclusive prefix sums
    below1, below2 = np.cumsum(sh1) - sh1, np.cumsum(sh2) - sh2
    # tied rows hold the union of both products, which overlap in the cells
    # that H and M of the same queue both reach
    shared1 = h1.astype(bool).multiply(m1.astype(bool)).sum(axis=1, dtype=np.int64)
    shared2 = h2.astype(bool).multiply(m2.astype(bool)).sum(axis=1, dtype=np.int64)
    return int(sm2 @ below1 + sm1 @ below2 + sh1 @ sm2 + sm1 @ sh2 - shared1 @ shared2)


def build_chain(config: SystemConfig, cap: int) -> TruncatedChain:
    """Exact one-slot kernel truncated at `cap` jobs per queue.

    Refuses, before anything of that size is allocated, a cap whose per-queue
    tables or kernel would exceed MAX_KERNEL_NONZEROS entries.
    """
    n = config.n
    if n > 2:
        raise StateBudgetError("exact chains are built for n <= 2 only")
    side = cap + 1
    if side**2 > MAX_KERNEL_NONZEROS:
        raise StateBudgetError(
            f"cap {cap} gives {side}^2 = {side**2} table cells, "
            f"over the budget of {MAX_KERNEL_NONZEROS} kernel nonzeros"
        )

    # Binomial(q, gamma) pmfs by the recurrence Bin(q) = Bin(q - 1) * Bernoulli:
    # one short convolution per q instead of a scipy.stats call
    abandon = [np.ones(1)]
    for _ in range(cap):
        abandon.append(np.convolve(abandon[-1], [1.0 - config.gamma, config.gamma]))
    arr_pmf = config.arrivals.pmf()
    tables = {}  # queues with the same service law share their tables
    for svc in set(config.services):
        svc_pmf, svc_lo = svc.pmf()[::-1], -svc.bound  # law of -s
        tables[svc] = (
            _queue_table(abandon, np.convolve(arr_pmf, svc_pmf), svc_lo, cap),
            _queue_table(abandon, svc_pmf, svc_lo, cap),
        )
    hit, miss = zip(*(tables[svc] for svc in config.services))
    nonzeros = _kernel_nonzeros([t for t, _ in hit], [t for t, _ in miss])
    if nonzeros > MAX_KERNEL_NONZEROS:
        raise StateBudgetError(
            f"cap {cap} gives {side**n} states and a kernel of {nonzeros} nonzeros, "
            f"over the budget of {MAX_KERNEL_NONZEROS}"
        )

    states = _states(side, n)
    # dispatch weights: the shortest queue gets the batch, ties split evenly
    shortest = states == states.min(axis=1, keepdims=True)
    weights = shortest / shortest.sum(axis=1, keepdims=True)
    matrix = sum(
        sp.diags_array(weights[:, i])
        @ reduce(sp.kron, [(hit if j == i else miss)[j][0] for j in range(n)])
        for i in range(n)
    )
    # the same dispatch mixture of the per-queue clamped mass and unused service
    clamp, unused = sum(
        w * h[:, q] + (1.0 - w) * m[:, q]
        for w, (_, h), (_, m), q in zip(weights.T, hit, miss, states.T)
    )
    return TruncatedChain(
        config=config, cap=cap, matrix=matrix,
        expected_unused=unused, row_clamp=clamp,
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


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Stationary probability vector of the truncated kernel: one sparse
    solve of (P^T - I) pi = 0 with its last equation replaced by sum(pi) = 1.

    Raises numpy.linalg.LinAlgError if the kernel has no unique stationary
    law (the system is singular).
    """
    size = chain.num_states
    A = sp.vstack([(chain.matrix.T - sp.eye_array(size))[:-1], np.ones((1, size))], format="csr")
    b = np.zeros(size)
    b[-1] = 1.0
    with warnings.catch_warnings():
        # a singular system only warns and returns NaN; the check below raises
        warnings.simplefilter("ignore", MatrixRankWarning)
        # SuperLU factors the transpose of a CSR system. In the natural state
        # order that took a half to a fifth of the time of COLAMD on two-queue
        # kernels of 0.2-4 M nonzeros.
        pi = spsolve(A, b, permc_spec="NATURAL")
    if not np.isfinite(pi).all():
        raise np.linalg.LinAlgError("the truncated kernel has no unique stationary law")
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


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
