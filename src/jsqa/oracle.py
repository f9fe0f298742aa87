"""Exact stationary law of the queue chain truncated at a cap, for one or
two queues: the ground truth for simulator and estimator validation.

The states are the queue vectors of {0..cap}^n in row-major order. The
one-slot kernel is kept as per-queue next-state tables over 0..cap: row q
of H_i is the law of max(0, q - d + a - s_i), where queue i gets the arrival
batch a, and row q of M_i that of max(0, q - d - s_i), with d ~
Binomial(q, gamma). One queue gives P = H_1; two give P = W_0 kron(H_1, M_2)
+ W_1 kron(M_1, H_2), where the diagonal dispatch weight W_i is 1, 1/2 or 0
as queue i is shorter, tied or longer. `stationary` applies a two-queue P
through its tables alone; the kernel is assembled as a CSR array only when
`TruncatedChain.matrix` is first read. All tables read one law of q - d,
carried from row to row and trimmed only where it underflows below the
smallest normal double, and each row is built over its support. That
trimmed mass, table entries below DROP_BELOW and the mass above the cap fold
into the cap state, so rows stay exactly stochastic and `row_clamp` reports
all truncation error. `exact_law` gives the stationary law as a count table,
on which the simulator's estimators return exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counts import StateCounts
from .errors import ConfigError, StateBudgetError
from .model import SystemConfig

__all__ = [
    "TruncatedChain",
    "build_chain",
    "auto_chain",
    "stationary",
    "stationary_leakage",
    "exact_law",
]

# Without the drop, Binomial(q, gamma) tails fill each table row and the
# two-queue kernel holds about twice the nonzeros.
DROP_BELOW = 1e-14
# The build's one budget, in kernel nonzeros: it caps the state count (each
# state's row holds at least one), each queue table's entries as they are
# stored (one queue's hit table is its kernel) and a two-queue kernel's exact
# count, taken by the build though the kernel is assembled only when read.
# 2^24 nonzeros are 200 MB of CSR, written in place at that count. The
# stationary solve reads only the tables and a few state-sized vectors
# (criterion 2's config at cap 100 has 8.1 M nonzeros, 97 MB of CSR).
MAX_KERNEL_NONZEROS = 1 << 24
# `auto_chain` doubles the cap until the stationary leakage is below this
TARGET_LEAKAGE = 1e-8


@dataclass
class TruncatedChain:
    """Row-stochastic one-slot kernel over the queue vectors `states` (U, n)
    plus bookkeeping.

    The kernel is kept as `parts`: triples (A, B, w) of queue tables and a
    dispatch weight per state, with P = sum of diag(w) kron(A, B). One
    queue's kernel is its hit table, the one part (H_1, None, None). `matrix`
    assembles P as a CSR array on first read, writing two queues' rows in
    place at the offsets `kernel_indptr` that `build_chain` counted.

    `row_clamp[s]` is the probability mass that state s would have pushed
    beyond the cap, below DROP_BELOW or into the underflow of the carried
    abandonment law (all folded into the cap state). Its maximum is
    dominated by the cap-boundary rows themselves, so truncation quality
    checks weight it by the stationary law instead (see
    `stationary_leakage`). `expected_unused` holds E[total unused service |
    state] computed exactly from the same convolutions.
    """

    config: SystemConfig
    cap: int
    states: np.ndarray
    expected_unused: np.ndarray
    row_clamp: np.ndarray
    parts: list
    kernel_indptr: np.ndarray | None

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def matrix(self) -> scipy.sparse.csr_array:
        """The kernel as a CSR array, assembled on first read. A two-queue
        row is written in place at its counted size; int32 indices (the
        budget keeps them below 2^31) make the kernel a quarter smaller than
        int64 ones."""
        if self.config.n == 1:
            return self.parts[0][0]
        import scipy.sparse as sp
        parts, indptr, side = self.parts, self.kernel_indptr, self.cap + 1
        indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
        for qa in range(side):
            starts = indptr[qa * side : (qa + 1) * side + 1].tolist()
            for qb in range(side):
                at = slice(starts[qb], starts[qb + 1])
                if qa != qb:  # the shorter queue's part alone, of weight 1
                    a, b, _ = parts[qa > qb]
                    shape = (a.indptr[qa + 1] - a.indptr[qa], -1)
                    _outer_row(a, qa, b, qb, out=(indices[at].reshape(shape), data[at].reshape(shape)))
                else:  # half of each part; the cells both parts reach add up
                    (c0, v0), (c1, v1) = (_outer_row(a, qa, b, qb) for a, b, _ in parts)
                    cols, where = np.unique(np.concatenate((c0, c1), axis=None), return_inverse=True)
                    indices[at] = cols
                    data[at] = np.bincount(where, weights=0.5 * np.concatenate((v0, v1), axis=None))
        return sp.csr_array((data, indices, indptr), shape=(self.num_states,) * 2)


def _queue_tables(gamma: float, laws, cap: int):
    """One queue's next-state tables (CSR, rows q = 0..cap), one per
    increment law in `laws` ((pmf, lowest value) pairs), each with a
    (2, cap + 1) array of its rows' clamped mass and expected unused service
    (the magnitude of the values that fold into 0). All read one survivors'
    law of q - d, carried by one two-term convolution per row. Each table's
    rows are written into column and value buffers that double when full, up
    to the MAX_KERNEL_NONZEROS budget, and are trimmed once at the end."""
    import scipy.sparse as sp  # loaded on first use, not with the package
    side = cap + 1
    indptr = np.zeros((len(laws), side + 1), dtype=np.int64)
    cols = [np.empty(side, dtype=np.int64) for _ in laws]
    vals = [np.empty(side) for _ in laws]
    clamp_unused = np.zeros((len(laws), 2, side))
    surv, lo, lost = np.ones(1), 0, 0.0  # the law of q - d over lo, lo + 1, ...
    tiny = np.finfo(float).tiny
    for q in range(side):
        for i, (pmf, pmf_lo) in enumerate(laws):
            full = np.convolve(surv, pmf)
            v = np.arange(lo + pmf_lo, lo + pmf_lo + full.size)
            at = np.clip(v, 0, cap)
            inside = at < cap
            row = np.bincount(at[inside] - at[0], weights=full[inside])
            keep, neg = row >= DROP_BELOW, v < 0
            dropped = row[~keep].sum() + lost
            clamp_unused[i, :, q] = full[v > cap].sum() + dropped, (-v[neg] * full[neg]).sum()
            col = at[0] + np.flatnonzero(keep)
            top = full[~inside].sum() + dropped  # the cap state's entry
            start = int(indptr[i, q])
            end = start + col.size + (top > 0)
            if end > MAX_KERNEL_NONZEROS:
                raise StateBudgetError(f"cap {cap} gives over {MAX_KERNEL_NONZEROS} entries, the "
                                       f"budget of kernel nonzeros, in rows 0..{q} of a queue table")
            if end > cols[i].size:
                grown = min(max(end, 2 * cols[i].size), MAX_KERNEL_NONZEROS)
                cols[i].resize(grown, refcheck=False)
                vals[i].resize(grown, refcheck=False)
            cols[i][start : start + col.size] = col
            vals[i][start : start + col.size] = row[keep]
            if top > 0:
                cols[i][end - 1], vals[i][end - 1] = cap, top
            indptr[i, q + 1] = end
        surv = np.convolve(surv, [gamma, 1.0 - gamma])
        normal = np.flatnonzero(surv >= tiny)
        lost += surv[: normal[0]].sum() + surv[normal[-1] + 1 :].sum()
        surv, lo = surv[normal[0] : normal[-1] + 1], lo + normal[0]
    for c, d, nnz in zip(cols, vals, indptr[:, -1]):
        c.resize(nnz, refcheck=False)
        d.resize(nnz, refcheck=False)
    return [(sp.csr_array((d, c, p), shape=(side, side)), cu)
            for c, d, p, cu in zip(cols, vals, indptr, clamp_unused)]


def _outer_row(a, qa, b, qb, out=(None, None)):
    """Kernel columns and values of a[qa] outer b[qb], for queue tables a
    and b: two arrays of shape (entries of a[qa], entries of b[qb]) in sorted
    column order, written into the arrays `out` when given."""
    ra, rb = slice(a.indptr[qa], a.indptr[qa + 1]), slice(b.indptr[qb], b.indptr[qb + 1])
    return (np.add.outer(a.indices[ra] * b.shape[1], b.indices[rb], out=out[0]),
            np.multiply.outer(a.data[ra], b.data[rb], out=out[1]))


def build_chain(config: SystemConfig, cap: int) -> TruncatedChain:
    """Exact one-slot kernel truncated at `cap` jobs per queue, kept as its
    queue tables.

    Refuses a cap whose kernel would exceed MAX_KERNEL_NONZEROS: by the state
    count before the states are listed, by each queue table's entries as they
    are stored (one queue's kernel is its hit table) and, for two queues, by
    the kernel's exact count, which the build takes though `matrix`
    assembles the kernel only when read.
    """
    if cap < 0:
        raise ConfigError(f"cap must be nonnegative, got {cap}")
    n = config.n
    if n > 2:
        raise StateBudgetError("exact chains are built for n <= 2 only")
    side = cap + 1
    # every state's kernel row holds at least one nonzero
    if side**n > MAX_KERNEL_NONZEROS:
        raise StateBudgetError(f"cap {cap} gives {side**n} states, over the budget of "
                               f"{MAX_KERNEL_NONZEROS} kernel nonzeros")

    arr_pmf = config.arrivals.pmf()
    laws = {}  # (service law, hit?): queues with the same law share their tables
    for svc in config.services:
        minus_s = svc.pmf()[::-1]
        laws[svc, True] = np.convolve(arr_pmf, minus_s), -svc.bound
        if n == 2:  # one queue gets every batch, so it has no miss table
            laws[svc, False] = minus_s, -svc.bound
    tables = dict(zip(laws, _queue_tables(config.gamma, list(laws.values()), cap)))

    states = np.indices((side,) * n).reshape(n, -1).T
    if n == 1:
        (table, (clamp, unused)), = tables.values()  # counted as it was stored
        parts, indptr = [(table, None, None)], None
    else:
        hit, miss = ([tables[svc, h] for svc in config.services] for h in (True, False))
        H, M = ([t for t, _ in tabs] for tabs in (hit, miss))
        # dispatch weights: the shortest queue gets the batch, ties split evenly
        shortest = states == states.min(axis=1, keepdims=True)
        weights = shortest / shortest.sum(axis=1, keepdims=True)
        q1, q2 = states.T
        parts = [(H[0], M[1], weights[:, 0]), (M[0], H[1], weights[:, 1])]
        sizes = [(w > 0) * np.diff(a.indptr)[q1] * np.diff(b.indptr)[q2] for a, b, w in parts]
        # tied rows (q, q) hold both parts, which overlap in the cells that H
        # and M of the same queue both reach
        shared = [h.astype(bool).multiply(m.astype(bool)).sum(axis=1) for h, m in zip(H, M)]
        row_sizes = sizes[0] + sizes[1]
        row_sizes[:: side + 1] -= shared[0] * shared[1]
        nonzeros = int(row_sizes.sum())
        if nonzeros > MAX_KERNEL_NONZEROS:
            raise StateBudgetError(
                f"cap {cap} gives {len(states)} states and a kernel of {nonzeros} nonzeros, "
                f"over the budget of {MAX_KERNEL_NONZEROS}"
            )
        # the same dispatch mixture of the per-queue clamped mass and unused service
        clamp, unused = sum(w * h[:, q] + (1.0 - w) * m[:, q]
                            for w, (_, h), (_, m), q in zip(weights.T, hit, miss, states.T))
        indptr = np.zeros(len(states) + 1, dtype=np.int32)
        np.cumsum(row_sizes, out=indptr[1:])
    return TruncatedChain(config, cap, states, expected_unused=unused, row_clamp=clamp,
                          parts=parts, kernel_indptr=indptr)



def stationary_leakage(chain: TruncatedChain, pi: np.ndarray) -> float:
    """Clamped probability mass per slot under the stationary law.

    This is the truncation-quality diagnostic: the raw per-row maximum is
    dominated by the cap-boundary rows, which the chain essentially never
    visits when the cap is adequate.
    """
    return float(pi @ chain.row_clamp)


def auto_chain(config: SystemConfig) -> tuple[TruncatedChain, np.ndarray]:
    """Build a chain (and its stationary law) with the cap doubled until the
    stationary leakage drops below TARGET_LEAKAGE.

    The stationary law concentrates near max(drift, 0)/gamma with a spread of
    order sqrt(variance/gamma), which sets the starting cap.
    """
    gamma = config.gamma
    cap = int(math.ceil(max(config.drift, 0.0) / gamma + 10.0 * math.sqrt(config.variance / gamma)))
    cap = max(cap, 4 * config.bound, 16)
    while True:
        chain = build_chain(config, cap)
        pi = stationary(chain)
        if stationary_leakage(chain, pi) < TARGET_LEAKAGE:
            return chain, pi
        cap *= 2


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Stationary probability vector of the truncated kernel P.

    pi solves A pi = u with A v = v - vP + u * sum(v) and u uniform, which is
    nonsingular when P has exactly one closed class. The solve is a GCROT(m, k)
    Krylov iteration that applies vP: from the queue tables for two queues,
    so the kernel is never assembled, and as `v @ chain.matrix` for one. Its
    recycled vectors deflate the slow total-queue mode. One kernel step,
    clipped at 0 and normalized, ends it, so a state that no transition
    enters gets exactly 0, not the solve's rounding of about 1e-15.

    P has one closed class iff some state is reachable from every state, so
    the solve is checked by walking back through Px > 0 from the state of
    largest pi. Raises numpy.linalg.LinAlgError if a state cannot reach it
    (no unique stationary law), or if the iteration did not converge or left
    a non-finite value.
    """
    # imported on first use, so `import jsqa` loads no sparse solver
    from scipy.sparse.linalg import LinearOperator, gcrotmk

    if chain.config.n == 1:
        matrix = chain.matrix
        left, right = (lambda v: v @ matrix), (lambda x: matrix @ x)
        size = matrix.shape[0]
    else:
        left, right = _table_products(chain)
        size = chain.num_states
    u = np.full(size, 1.0 / size)
    system = LinearOperator((size, size), matvec=lambda v: v - left(v) + u * v.sum(), dtype=float)
    with np.errstate(all="ignore"):  # a diverging run ends in the check below
        pi, info = gcrotmk(system, u, m=30, k=20, rtol=1e-14, atol=0.0)
    if info != 0 or not np.isfinite(pi).all():
        raise np.linalg.LinAlgError(f"the stationary solve did not converge (info={info})")
    pi = np.maximum(left(pi), 0.0)
    pi /= pi.sum()
    reach = np.zeros(size, dtype=bool)
    reach[np.argmax(pi)] = True
    while not reach.all():
        grown = reach | (right(reach.astype(float)) > 0)
        if np.array_equal(grown, reach):
            raise np.linalg.LinAlgError(
                f"{size - reach.sum()} states of the truncated kernel cannot reach its most likely "
                "state, so it has several closed classes and no unique stationary law"
            )
        reach = grown
    return pi


def _table_products(chain: TruncatedChain):
    """v -> vP and x -> Px for a two-queue kernel, from its parts. With X the
    (side, side) reshape of a state vector, vec(X) kron(A, B) = vec(A^T X B)
    and kron(A, B) vec(X) = vec(A X B^T); both are taken as (B' (A' Y)^T)^T,
    with A' and B' the tables or their transposes as CSR."""
    side = chain.cap + 1
    parts = [(a, b, a.T.tocsr(), b.T.tocsr(), w.reshape(side, side)) for a, b, w in chain.parts]

    def left(v):
        x = v.reshape(side, side)
        return sum((bt @ (at @ (w * x)).T).T for _, _, at, bt, w in parts).ravel()

    def right(x):
        x = x.reshape(side, side)
        return sum(w * (b @ (a @ x).T).T for a, b, _, _, w in parts).ravel()

    return left, right


def exact_law(chain: TruncatedChain, pi: np.ndarray) -> StateCounts:
    """The stationary law `pi` as a one-batch count table over the chain's
    states, so a batch-means estimator evaluated on it gives the exact value
    (with a NaN standard error, as for any single batch)."""
    import scipy.sparse as sp
    return StateCounts(rows=chain.states, table=sp.csr_array(pi[None, :]), sizes=np.ones(1))

