"""Unit tests for iteration-space partitioning (repro.runtime.partition)."""

import numpy as np
import pytest

from repro.analysis.unimodular import skew
from repro.data.synthetic import netflix_like
from repro.errors import PartitionError
from repro.runtime import partition as parts
from repro.runtime.schedule import unordered_2d_schedule


class TestEqualBounds:
    def test_even_split(self):
        assert parts.equal_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_covers_everything(self):
        bounds = parts.equal_bounds(10, 3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b

    def test_zero_parts_raises(self):
        with pytest.raises(PartitionError):
            parts.equal_bounds(10, 0)

    def test_zero_extent_raises(self):
        with pytest.raises(PartitionError):
            parts.equal_bounds(0, 2)


class TestBalancedBounds:
    def test_uniform_counts_behave_like_equal(self):
        counts = np.ones(8, dtype=np.int64)
        assert parts.balanced_bounds(counts, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_skewed_counts_get_balanced(self):
        # 90% of entries on the first coordinate: it gets its own partition.
        counts = np.array([90, 2, 2, 2, 2, 2])
        bounds = parts.balanced_bounds(counts, 2)
        assert bounds[0] == (0, 1)
        assert bounds[1] == (1, 6)

    def test_balance_quality_on_power_law(self):
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, 101) ** 1.2
        counts = rng.multinomial(10_000, weights / weights.sum())
        bounds = parts.balanced_bounds(counts, 8)
        loads = [counts[lo:hi].sum() for lo, hi in bounds]
        # Balanced partitioning keeps the max/mean ratio modest even under
        # a power-law distribution (equal-width would be ~8x here).
        assert max(loads) / (sum(loads) / len(loads)) < 3.0

    def test_covers_full_extent_contiguously(self):
        counts = np.array([5, 0, 0, 1, 9, 3, 3, 7])
        bounds = parts.balanced_bounds(counts, 3)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == len(counts)
        for (lo_a, hi_a), (lo_b, _b) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b

    def test_more_parts_than_coords_pads_empty(self):
        counts = np.array([3, 4])
        bounds = parts.balanced_bounds(counts, 4)
        assert bounds[:2] == [(0, 1), (1, 2)]
        assert bounds[2:] == [(2, 2), (2, 2)]

    def test_all_zero_counts_fall_back_to_equal(self):
        counts = np.zeros(8, dtype=np.int64)
        assert parts.balanced_bounds(counts, 2) == [(0, 4), (4, 8)]

    def test_bucket_of(self):
        bounds = [(0, 3), (3, 7), (7, 10)]
        assert parts.bucket_of(bounds, 0) == 0
        assert parts.bucket_of(bounds, 3) == 1
        assert parts.bucket_of(bounds, 9) == 2
        with pytest.raises(PartitionError):
            parts.bucket_of(bounds, 10)


def _grid_entries(rows, cols):
    return [((i, j), float(i * cols + j)) for i in range(rows) for j in range(cols)]


class TestPartition1D:
    def test_every_entry_assigned_once(self):
        entries = _grid_entries(6, 4)
        partitions = parts.partition_1d(entries, 0, 6, 3)
        assert partitions.total_entries == len(entries)
        assert partitions.num_space == 3
        assert partitions.num_time == 1

    def test_entries_respect_bounds(self):
        entries = _grid_entries(6, 4)
        partitions = parts.partition_1d(entries, 0, 6, 3)
        for (space_idx, _t), block in partitions.blocks.items():
            lo, hi = partitions.space_bounds[space_idx]
            assert all(lo <= key[0] < hi for key, _v in block)

    def test_partition_on_second_dim(self):
        entries = _grid_entries(4, 6)
        partitions = parts.partition_1d(entries, 1, 6, 2)
        for (space_idx, _t), block in partitions.blocks.items():
            lo, hi = partitions.space_bounds[space_idx]
            assert all(lo <= key[1] < hi for key, _v in block)


class TestPartition2D:
    def test_grid_blocks(self):
        entries = _grid_entries(8, 8)
        partitions = parts.partition_2d(entries, 0, 1, 8, 8, 2, 4)
        assert partitions.total_entries == 64
        sizes = partitions.size_matrix()
        assert sizes.shape == (2, 4)
        assert sizes.sum() == 64

    def test_blocks_respect_both_bounds(self):
        entries = _grid_entries(8, 8)
        partitions = parts.partition_2d(entries, 0, 1, 8, 8, 2, 4)
        for (space_idx, time_idx), block in partitions.blocks.items():
            slo, shi = partitions.space_bounds[space_idx]
            tlo, thi = partitions.time_bounds[time_idx]
            for key, _value in block:
                assert slo <= key[0] < shi
                assert tlo <= key[1] < thi

    def test_balanced_flag_changes_bounds_under_skew(self):
        rng = np.random.default_rng(1)
        rows = rng.choice(
            20, size=500, p=(lambda w: w / w.sum())(1.0 / np.arange(1, 21))
        )
        entries = [((int(r), int(i % 10)), 1.0) for i, r in enumerate(rows)]
        balanced = parts.partition_2d(entries, 0, 1, 20, 10, 4, 4, balance=True)
        equal = parts.partition_2d(entries, 0, 1, 20, 10, 4, 4, balance=False)
        balanced_loads = balanced.size_matrix().sum(axis=1)
        equal_loads = equal.size_matrix().sum(axis=1)
        assert balanced_loads.max() < equal_loads.max()

    def test_block_lookup_empty_for_missing(self):
        entries = [((0, 0), 1.0)]
        partitions = parts.partition_2d(entries, 0, 1, 4, 4, 2, 2)
        assert partitions.block(1, 1) == []
        assert partitions.block_size(1, 1) == 0


def _scalar_blocks(entries, dims_and_bounds):
    """The per-entry bucketing loop the vectorized bucketing replaced,
    kept as its oracle: block key -> entries in dataset order."""
    blocks = {}
    for key, value in entries:
        block_key = tuple(
            parts.bucket_of(bounds, key[dim]) for dim, bounds in dims_and_bounds
        )
        blocks.setdefault(block_key, []).append((key, value))
    return blocks


@pytest.fixture(scope="module")
def shuffled_ratings():
    """Skewed, shuffled (row, col) entries: ~40 ratings per column."""
    return netflix_like(
        num_rows=120, num_cols=96, num_ratings=4000, seed=3
    ).entries


class TestVectorizedBucketing:
    @pytest.mark.parametrize("balance", [True, False])
    def test_1d_matches_the_scalar_loop(self, shuffled_ratings, balance):
        got = parts.partition_1d(shuffled_ratings, 1, 96, 5, balance=balance)
        want = _scalar_blocks(shuffled_ratings, [(1, got.space_bounds)])
        assert got.blocks == {(s, 0): block for (s,), block in want.items()}

    @pytest.mark.parametrize("balance", [True, False])
    def test_2d_keeps_dataset_order_by_default(self, shuffled_ratings, balance):
        """What an ordered 2D plan executes: same blocks, dataset order."""
        got = parts.partition_2d(
            shuffled_ratings, 0, 1, 120, 96, 3, 6, balance=balance
        )
        assert got.blocks == _scalar_blocks(
            shuffled_ratings, [(0, got.space_bounds), (1, got.time_bounds)]
        )

    def test_bounds_are_the_histogram_cuts(self, shuffled_ratings):
        got = parts.partition_2d(shuffled_ratings, 0, 1, 120, 96, 3, 6)
        for dim, extent, num, bounds in (
            (0, 120, 3, got.space_bounds), (1, 96, 6, got.time_bounds)
        ):
            counts = np.zeros(extent, dtype=np.int64)
            for key, _value in shuffled_ratings:
                counts[key[dim]] += 1
            assert bounds == parts.balanced_bounds(counts, num)

    def test_transformed_matches_the_scalar_loop(self):
        entries = _grid_entries(6, 6)[::-1]
        got = parts.partition_transformed(entries, skew(2, 0, 1, 1), 3, 4)
        want = {}
        for key, value in entries:
            block_key = (
                parts.bucket_of(got.space_bounds, key[1]),
                parts.bucket_of(got.time_bounds, key[0] + key[1]),
            )
            want.setdefault(block_key, []).append((key, value))
        assert got.blocks == want

    def test_coordinate_outside_extent_raises(self):
        with pytest.raises(PartitionError):
            parts.partition_1d([((7,), 1.0)], 0, 4, 2)
        with pytest.raises(PartitionError):
            parts.partition_2d([((0, -1), 1.0)], 0, 1, 4, 4, 2, 2)

    def test_no_entries_no_blocks(self):
        assert parts.partition_1d([], 0, 4, 2).blocks == {}
        assert parts.partition_2d(
            [], 0, 1, 4, 4, 2, 2, canonical_order=True
        ).blocks == {}


class TestCanonicalOrder:
    """The unordered-2D in-block order: (time coordinate, remaining key
    dims), duplicates of one key in dataset order."""

    def test_blocks_sorted_by_time_coordinate_then_key(self, shuffled_ratings):
        got = parts.partition_2d(
            shuffled_ratings, 0, 1, 120, 96, 3, 6, canonical_order=True
        )
        plain = parts.partition_2d(shuffled_ratings, 0, 1, 120, 96, 3, 6)
        assert got.space_bounds == plain.space_bounds
        assert got.time_bounds == plain.time_bounds
        for block_key, block in plain.blocks.items():
            assert got.blocks[block_key] == sorted(
                block, key=lambda entry: (entry[0][1], entry[0])
            )

    def test_three_dim_keys_and_duplicates(self):
        entries = [
            ((2, 1, 0), "a"), ((0, 1, 5), "b"), ((0, 1, 5), "c"),
            ((1, 0, 9), "d"), ((0, 1, 2), "e"), ((2, 0, 0), "f"),
        ]
        got = parts.partition_2d(
            entries, 0, 1, 3, 2, 1, 1, canonical_order=True
        )
        assert [value for _key, value in got.block(0, 0)] == [
            "d", "f", "e", "b", "c", "a"
        ]

    @pytest.mark.parametrize("depth", [2, 4])
    def test_worker_sequence_is_the_same_at_every_depth(
        self, shuffled_ratings, depth
    ):
        """A worker's rotation visits the same entries in the same order
        at pipeline depths 1, 2 and 4."""
        workers = 3

        def sequences(partitions):
            out = {worker: [] for worker in range(workers)}
            for step in unordered_2d_schedule(workers, partitions.num_time):
                for task in step:
                    out[task.worker] += partitions.block(
                        task.space_idx, task.time_idx
                    )
            return out

        base = parts.partition_2d(
            shuffled_ratings, 0, 1, 120, 96, workers, workers,
            canonical_order=True,
        )
        fresh = parts.partition_2d(
            shuffled_ratings, 0, 1, 120, 96, workers, workers * depth,
            canonical_order=True,
        )
        assert sequences(fresh) == sequences(base)
        assert sum(len(seq) for seq in sequences(base).values()) == 4000


class TestTransformedPartition:
    def test_skewed_coordinates_bucketed(self):
        entries = _grid_entries(6, 6)
        matrix = skew(2, 0, 1, 1)  # q = (i + j, j)
        partitions = parts.partition_transformed(entries, matrix, 3, 4)
        assert partitions.total_entries == 36
        # Time bounds cover the skewed range [0, 11).
        assert partitions.time_bounds[0][0] == 0
        assert partitions.time_bounds[-1][1] == 11

    def test_blocks_consistent_with_transform(self):
        entries = _grid_entries(5, 5)
        matrix = skew(2, 0, 1, 1)
        partitions = parts.partition_transformed(entries, matrix, 2, 3)
        for (space_idx, time_idx), block in partitions.blocks.items():
            tlo, thi = partitions.time_bounds[time_idx]
            slo, shi = partitions.space_bounds[space_idx]
            for key, _value in block:
                q0 = key[0] + key[1]
                q1 = key[1]
                assert tlo <= q0 < thi
                assert slo <= q1 < shi

    def test_empty_entries_raise(self):
        with pytest.raises(PartitionError):
            parts.partition_transformed([], skew(2, 0, 1, 1), 2, 2)
