"""Per-batch counts of the distinct rows of a sample matrix.

Every estimator in jsqa is a batch mean of some function f of a sample row
(a queue-length vector, a scaled coordinate vector, a scalar). Grouping the N
rows by value gives a (batches x distinct rows) count table that is a
sufficient statistic for all of them: the per-batch means of f are
`table @ f(rows) / sizes`, so f is evaluated once per distinct row instead of
once per sample. jsqa counts integer queue-length rows, which hold few
distinct states (hundreds against a million rows). The table keeps only its
nonzero counts, so memory is O(N + U) for U distinct rows, never O(bounding
box of the rows).

The table is built from one int64 key per row: the batch label, then each
column's value less that column's minimum, as mixed-radix digits. Rows that
are not integer, or whose keys would overflow int64, are first numbered by
`np.unique(rows, axis=0)`. A row may stand for several samples: with
`weights`, row i counts weights[i] times, so a table can be merged from
partial tables, each (batch, row) entry with its count, as
`simulator.collect_steady_state` does with the samples it counts a flush at
a time. Unweighted, the key array is the only array of the rows' length that
`count_rows` keeps: each digit is added to it in place, it is sorted in
place, and the counts are the lengths of its runs of equal keys. Weighted,
the keys are put in order by an argsort, which also orders the weights, and
a run's count is the sum of its weights. The table does not depend on the
order of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["StateCounts", "count_rows", "batch_stderr"]

INT64_MAX = np.iinfo(np.int64).max


def batch_stderr(batch_means: np.ndarray) -> np.ndarray:
    """Batch-means standard error of the mean of `batch_means` along axis 0;
    NaN with fewer than two batches."""
    b = batch_means.shape[0]
    if b < 2:
        return np.full(batch_means.shape[1:], np.nan)
    return np.std(batch_means, axis=0, ddof=1) / math.sqrt(b)


@dataclass(frozen=True)
class StateCounts:
    """Count table of a sample matrix: `rows` (U, k) are its distinct rows,
    `table[b, u]` is how many samples of batch b equal `rows[u]` (a
    scipy.sparse CSR array of shape (B, U)), and `sizes` (B,) are the batch
    sizes."""

    rows: np.ndarray
    table: scipy.sparse.csr_array
    sizes: np.ndarray

    @property
    def num_batches(self) -> int:
        return self.table.shape[0]

    @property
    def pooled(self) -> np.ndarray:
        """Number of samples equal to each distinct row, over all batches."""
        return np.asarray(self.table.sum(axis=0)).ravel()

    def batch_means(self, values) -> np.ndarray:
        """Per-batch means of a function whose values at the distinct rows
        are `values`, of shape (U,) or (U, K); returns (B,) or (B, K)."""
        sums = self.table @ np.asarray(values, dtype=float)
        return sums / (self.sizes if sums.ndim == 1 else self.sizes[:, None])

    def estimate(self, values) -> tuple[float, float]:
        """Mean of the batch means of a scalar function given at the distinct
        rows, and its batch-means standard error."""
        bm = self.batch_means(values)
        return float(bm.mean()), float(batch_stderr(bm))


def count_rows(rows, batch, weights=None) -> StateCounts:
    """Count table of the rows of `rows` ((N,) or (N, k)) per batch label,
    one label per row; with `weights` (N,), positive integers, row i counts
    as weights[i] samples.

    Each column's digit is its value less the column's minimum, in the radix
    of its span. ConfigError is raised unless the labels are 0..B-1 with a
    row in every batch: their maximum, taken unsigned so that a negative
    label is the largest, must be below N, and no batch size may be 0.
    """
    from scipy import sparse  # loaded on first use, not with the package
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    batch = np.asarray(batch, dtype=np.int64)
    if rows.shape[0] == 0:
        raise ValueError("samples must be nonempty")
    if batch.shape != rows.shape[:1]:
        raise ValueError(
            f"need one batch label per row: {rows.shape[0]} rows, labels of shape {batch.shape}"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != batch.shape or not (weights > 0).all():
            raise ValueError("need one positive integer weight per row")
    nb = int(batch.view(np.uint64).max()) + 1
    if nb > batch.size:
        raise ConfigError("batch labels must be 0..B-1 with a sample in every batch")
    fits = np.can_cast(rows.dtype, np.int64)
    if fits:
        # column by column: a min over axis 0 of a narrow array is far slower
        lows = [int(col.min()) for col in rows.T]
        spans = [int(col.max()) - low + 1 for col, low in zip(rows.T, lows)]
        fits = nb * math.prod(spans) <= INT64_MAX
    distinct = None
    if not fits:
        distinct, number = np.unique(rows, axis=0, return_inverse=True)
        rows, lows, spans = number.reshape(-1, 1), [0], [distinct.shape[0]]
    code = batch.copy()
    for col, low, span in zip(rows.T, lows, spans):
        code *= span
        # a partial sum may wrap (low near -2**63), but int64 arithmetic is
        # modulo 2**64 and the key fits, so the digit lands exactly
        code -= low
        code += col
    radix = math.prod(spans)
    if weights is None:
        code.sort()
    else:
        order = code.argsort()
        code = code[order]
        weights = weights[order]
        del order
    starts = np.flatnonzero(code[1:] != code[:-1]) + 1
    starts = np.concatenate(([0], starts))
    keys = code[starts]
    if weights is None:
        counts = np.diff(starts, append=code.size)
    else:
        counts = np.add.reduceat(weights, starts)
    # the keys' runs are read; free the N-sized arrays before the table is built
    del code, weights
    batch_of, state = np.divmod(keys, radix)
    del keys
    # searchsorted against the few distinct codes: lighter than unique's inverse
    codes = np.unique(state)
    column = np.searchsorted(codes, state)
    del state
    sizes = np.bincount(batch_of, weights=counts, minlength=nb)
    if not sizes.all():
        raise ConfigError("batch labels must be 0..B-1 with a sample in every batch")
    # the keys are sorted, so each batch's entries are a run in column order
    indptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(batch_of, minlength=nb), out=indptr[1:])
    del batch_of
    table = sparse.csr_array((counts.astype(float), column, indptr), shape=(nb, codes.size))
    # numbered rows need no decoding: each has a sample, so `codes` is 0..U-1
    if distinct is None:
        distinct = np.column_stack(np.unravel_index(codes, spans))
        distinct += lows
    return StateCounts(rows=distinct, table=table, sizes=sizes)
