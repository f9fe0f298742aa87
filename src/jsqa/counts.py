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

The table is built from one int64 key per sample, its batch label and the
codes of its columns as mixed-radix digits. The key array is the only
N-sized array `count_rows` keeps: each column's digit is added to it in
place, it is sorted in place, and the counts are the lengths of its runs of
equal keys. The table does not depend on the order of the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    table: sparse.csr_array
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


def _column_code(col: np.ndarray):
    """(radix, code, decode) of one column: `code` in [0, radix) per sample
    and `decode(code)` giving the column's values back. Integer columns are
    offset by their minimum when their span is at most their length;
    otherwise values are numbered in sorted order. Either way the radix is at
    most the number of samples, so folding (see `count_rows`) always makes
    room for the next column."""
    if np.issubdtype(col.dtype, np.integer):
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span <= col.size:
            return span, col - lo, lambda c: c + lo
    values, code = np.unique(col, return_inverse=True)
    return values.size, code.reshape(-1), values.__getitem__


def _decode(parts, codes: np.ndarray) -> np.ndarray:
    """Rows of the mixed-radix `codes` over `parts`, most significant first."""
    cols = []
    for radix, decode in reversed(parts):
        codes, c = np.divmod(codes, radix)
        cols.append(decode(c))
    return np.column_stack(cols[::-1])


def _fold(parts, code: np.ndarray):
    """Renumber `code` by its distinct values: (parts, code, radix) of one
    part whose radix is the number of distinct rows coded so far."""
    uniq, code = np.unique(code, return_inverse=True)
    return [(uniq.size, _decode(parts, uniq).__getitem__)], code.reshape(-1), uniq.size


def count_rows(rows, batch) -> StateCounts:
    """Count table of the rows of `rows` ((N,) or (N, k)) per batch label,
    one label per row.

    Each sample becomes one int64 mixed-radix key (its batch label, then the
    code of each column), and the runs of the sorted keys are the nonzero
    counts. When a radix would overflow int64, the columns coded so far are
    first folded into the codes of their distinct combinations.
    """
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
    parts: list = []
    code = np.zeros(rows.shape[0], dtype=np.int64)
    radix = 1
    for col in rows.T:
        r, c, decode = _column_code(col)
        if radix > INT64_MAX // r:
            parts, code, radix = _fold(parts, code)
        code *= r
        code += c
        # drop the column's codes now, not at the next column
        del c
        radix *= r
        parts.append((r, decode))
    nb = int(batch.max()) + 1
    if radix > INT64_MAX // nb:
        parts, code, radix = _fold(parts, code)
    code += batch * radix
    code.sort()
    starts = np.flatnonzero(code[1:] != code[:-1]) + 1
    starts = np.concatenate(([0], starts))
    keys = code[starts]
    counts = np.diff(starts, append=code.size)
    # the keys' runs are read; free the N-sized array before the table is built
    del code
    batch_of, state = np.divmod(keys, radix)
    codes, column = np.unique(state, return_inverse=True)
    table = sparse.csr_array(
        (counts.astype(float), (batch_of, column.reshape(-1))), shape=(nb, codes.size)
    )
    sizes = np.bincount(batch_of, weights=counts, minlength=nb)
    return StateCounts(rows=_decode(parts, codes), table=table, sizes=sizes)
