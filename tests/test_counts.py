import numpy as np
import pytest

from jsqa.counts import batch_stderr, count_rows
from jsqa.errors import ConfigError
from jsqa.model import RngStream


def dense_reference(rows, batch):
    """(distinct rows, dense (batches, rows) count matrix) by np.unique over
    whole rows."""
    rows = np.asarray(rows).reshape(len(batch), -1)
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    dense = np.zeros((batch.max() + 1, distinct.shape[0]))
    np.add.at(dense, (batch, inverse.reshape(-1)), 1.0)
    return distinct, dense


def assert_matches_reference(rows, batch):
    counts = count_rows(rows, batch)
    distinct, dense = dense_reference(rows, batch)
    # both list distinct rows in lexicographic order
    assert np.array_equal(counts.rows, distinct)
    assert np.array_equal(counts.table.toarray(), dense)
    assert np.array_equal(counts.sizes, np.bincount(batch).astype(float))
    assert np.array_equal(counts.pooled, dense.sum(axis=0))
    return counts


class TestCountRows:
    def test_integer_rows(self):
        gen = RngStream(1).generator()
        rows = gen.integers(-5, 9, size=(4000, 3))
        assert_matches_reference(rows, np.arange(4000) * 7 // 4000)

    def test_continuous_rows(self):
        gen = RngStream(2).generator()
        rows = np.round(gen.normal(size=(3000, 2)), 1)
        assert_matches_reference(rows, np.arange(3000) % 5)

    def test_one_dimensional_values(self):
        x = np.array([0.5, -1.0, 0.5, 2.0, -1.0, 0.5])
        counts = count_rows(x, np.array([0, 0, 0, 1, 1, 1]))
        assert counts.rows.ravel().tolist() == [-1.0, 0.5, 2.0]
        assert counts.table.toarray().tolist() == [[1, 2, 0], [1, 1, 1]]

    @pytest.mark.parametrize("width,batches", [(40, 9), (18, 12)])
    def test_wide_rows_fold_before_overflow(self, width, batches):
        # columns of 10 values each: 10**40 codes overflow int64, and 10**18
        # fit, but not once 12 batch labels are put in front; either way the
        # rows are first numbered by np.unique over whole rows
        gen = RngStream(3).generator()
        base = gen.integers(0, 10, size=(50, width))
        rows = base[gen.integers(0, 50, size=2000)]
        counts = assert_matches_reference(rows, np.arange(2000) % batches)
        assert counts.rows.shape == (50, width)

    def test_sparse_integer_span_is_renumbered(self):
        # a span far beyond the sample count is offset, not numbered:
        # the radix is large, but no array of its size arises
        rows = np.array([[0, 10**15], [3, -(10**15)], [0, 10**15]])
        assert_matches_reference(rows, np.array([0, 1, 1]))

    @pytest.mark.parametrize(
        "spans,batches,lows",
        [
            # 7 * 9271 * 31252369 * 649657 * 7 == INT64_MAX: one int64 key per
            # row; the last column starts at -2**63, so its partial sums wrap
            ((7, 9271, 31252369, 649657), 7, (-3, 10**12, -(10**15), -(2**63))),
            # 2**60 * 8 == INT64_MAX + 1: the rows are numbered first
            ((2**20, 2**20, 2**20), 8, (-(2**40), 0, 2**50)),
        ],
        ids=["key-fits", "one-past"],
    )
    def test_key_capacity_boundary(self, spans, batches, lows):
        gen = RngStream(5).generator()
        lows, highs = np.array(lows), np.array(lows) + np.array(spans) - 1
        pool = np.vstack([lows, highs, gen.integers(lows, highs, size=(48, len(spans)))])
        rows = pool[gen.integers(0, 50, size=3000)]
        rows[:2] = lows, highs  # each column's whole span is present
        assert_matches_reference(rows, np.arange(3000) % batches)

    @pytest.mark.parametrize(
        "batch",
        [[0] * 5 + [2] * 5, [0] * 9 + [10], [-1] + [0] * 9, [np.iinfo(np.int64).min] + [0] * 9],
        ids=["gap", "past-last-row", "negative", "int64-min"],
    )
    def test_labels_must_cover_every_batch(self, batch):
        with pytest.raises(ConfigError, match="batch labels must be 0..B-1"):
            count_rows(np.arange(10), np.array(batch))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            count_rows(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize(
        "batch", [[0], [0] * 9, [0] * 11, [[0] * 10]], ids=["one", "short", "long", "2d"]
    )
    def test_one_label_per_row(self, batch):
        with pytest.raises(ValueError, match="one batch label per row"):
            count_rows(np.arange(10), np.array(batch))


def assert_weighted_matches_expanded(rows, batch, seed):
    """count_rows of the distinct (batch, row) entries, each weighted by its
    multiplicity, equals count_rows of the rows themselves, bitwise. Some
    entries are split in two, and all are shuffled, as flushes that cut a
    batch leave them."""
    rows = np.asarray(rows).reshape(len(batch), -1)
    entries, weights = np.unique(np.column_stack([batch, rows]), axis=0, return_counts=True)
    gen = RngStream(seed).generator()
    split = np.flatnonzero((weights > 1) & (gen.random(weights.size) < 0.5))
    assert split.size > 0
    entries = np.concatenate([entries, entries[split]])
    weights = np.concatenate([weights, np.ones(split.size, dtype=weights.dtype)])
    weights[split] -= 1
    order = gen.permutation(weights.size)
    entries, weights = entries[order], weights[order]
    weighted = count_rows(entries[:, 1:].astype(rows.dtype), entries[:, 0].astype(np.int64),
                          weights=weights)
    expanded = count_rows(rows, batch)
    for got, want in [
        (weighted.rows, expanded.rows),
        (weighted.table.data, expanded.table.data),
        (weighted.table.indices, expanded.table.indices),
        (weighted.table.indptr, expanded.table.indptr),
        (weighted.sizes, expanded.sizes),
    ]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestWeights:
    def test_integer_rows(self):
        rows = RngStream(11).generator().integers(-5, 9, size=(4000, 2))
        assert_weighted_matches_expanded(rows, np.arange(4000) * 7 // 4000, seed=1)

    def test_continuous_rows(self):
        # float rows are numbered by np.unique before they are keyed
        rows = np.round(RngStream(12).generator().normal(size=(3000, 2)), 1)
        assert_weighted_matches_expanded(rows, np.arange(3000) % 5, seed=2)

    def test_rows_past_the_key(self):
        # three spans of 2**20 and 8 batch labels overflow int64, so the
        # rows are numbered first
        gen = RngStream(13).generator()
        lows = np.array([-(2**40), 0, 2**50])
        pool = gen.integers(lows, lows + 2**20, size=(40, 3))
        pool[:2] = lows, lows + 2**20 - 1
        rows = pool[gen.integers(0, 40, size=3000)]
        assert_weighted_matches_expanded(rows, np.arange(3000) % 8, seed=3)

    @pytest.mark.parametrize("weights", [[1, 0, 2], [1, -1, 2], [1, 2]],
                             ids=["zero", "negative", "short"])
    def test_weights_must_be_positive_one_per_row(self, weights):
        with pytest.raises(ValueError, match="positive integer weight per row"):
            count_rows(np.arange(3), np.zeros(3, dtype=np.int64), weights=weights)


class TestBatchMeans:
    def test_matches_per_sample_means(self):
        gen = RngStream(4).generator()
        rows = gen.integers(0, 6, size=(1000, 2))
        batch = np.arange(1000) * 4 // 1000
        counts = count_rows(rows, batch)
        f = lambda r: np.exp(0.1 * r[:, 0]) * r[:, 1]  # noqa: E731
        expect = np.bincount(batch, weights=f(rows)) / np.bincount(batch)
        np.testing.assert_allclose(counts.batch_means(f(counts.rows)), expect, rtol=1e-12)
        est, se = counts.estimate(f(counts.rows))
        assert est == pytest.approx(expect.mean(), rel=1e-12)
        assert se == pytest.approx(batch_stderr(expect), rel=1e-12)

    def test_single_batch_stderr_is_nan(self):
        counts = count_rows(np.arange(10), np.zeros(10, dtype=int))
        est, se = counts.estimate(counts.rows[:, 0].astype(float))
        assert est == 4.5
        assert np.isnan(se)
