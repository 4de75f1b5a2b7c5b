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


# ---------------------------------------------------------------------- #
# Block: the columnar sequence the partitions hold                        #
# ---------------------------------------------------------------------- #

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.analysis import unimodular as uni  # noqa: E402
from repro.runtime.partition import Block  # noqa: E402

_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-5, 5),
    st.tuples(st.integers(0, 3), st.floats(allow_nan=False)),
    st.lists(st.integers(0, 9), max_size=3).map(np.array),
)


@st.composite
def _entry_lists(draw):
    ndim = draw(st.integers(1, 3))
    key = st.tuples(*[st.integers(-3, 40)] * ndim)
    # Either all floats (the float64 column) or anything (the object list).
    values = draw(st.sampled_from([st.floats(allow_nan=False), _VALUES]))
    return draw(st.lists(st.tuples(key, values), max_size=12))


def _same_entry(got, want):
    (got_key, got_value), (want_key, want_value) = got, want
    assert got_key == want_key and type(got_key) is tuple
    assert all(type(c) is int for c in got_key)
    assert type(got_value) is type(want_value)
    if isinstance(want_value, np.ndarray):
        assert got_value is want_value
    else:
        assert got_value == want_value
        if isinstance(want_value, float):
            assert got_value.hex() == want_value.hex()


class TestBlock:
    @settings(max_examples=60, deadline=None)
    @given(_entry_lists())
    def test_round_trip_keeps_values_and_types(self, entries):
        block = Block.of(entries)
        assert len(block) == len(entries)
        assert block.keys.dtype == np.intp and block.keys.ndim == 2
        got = list(block)
        assert len(got) == len(entries)
        for position, want in enumerate(entries):
            _same_entry(got[position], want)
            _same_entry(block[position], want)
        for lo, hi in ((0, len(entries) // 2), (len(entries) // 2, None)):
            part = block[lo:hi]
            assert isinstance(part, Block)
            for got_entry, want in zip(part, entries[lo:hi]):
                _same_entry(got_entry, want)
        halves = [block[: len(entries) // 2], block[len(entries) // 2:]]
        if len(entries):
            joined = Block.concat(halves)
            assert len(joined) == len(entries)
            for got_entry, want in zip(joined, entries):
                _same_entry(got_entry, want)

    def test_float_values_are_one_float64_column(self):
        block = Block.of([((1, 2), 0.1), ((0, 5), -2.5)])
        assert isinstance(block.values, np.ndarray)
        assert block.values.dtype == np.float64
        assert isinstance(Block.of([((0,), 1.0), ((1,), 2)]).values, list)
        assert Block.of(block) is block

    def test_equality_against_lists_and_blocks(self):
        entries = [((1, 2), 0.5), ((0, 5), -2.5), ((1, 2), 7.0)]
        block = Block.of(entries)
        assert block == entries and entries == list(block)
        assert block == Block.of(entries)
        assert block != entries[:2] and block != entries[::-1]
        assert block[1:] == entries[1:]
        assert block[:0] == [] and Block.of([]) == []
        assert block[np.array([2, 0])] == [entries[2], entries[0]]
        assert {0: block} == {0: entries}
        assert entries[0] in block and len(block) == 3

    def test_slices_share_the_key_storage(self):
        block = Block.of([((i, i + 1), float(i)) for i in range(6)])
        assert np.shares_memory(block[2:5].keys, block.keys)
        assert np.shares_memory(block[2:5].values, block.values)


class TestBlocksOnEveryStrategy:
    def test_partitions_hold_column_slices(self, shuffled_ratings):
        columns = Block.of(shuffled_ratings)
        plans = [
            parts.partition_1d(columns, 0, 120, 3),
            parts.partition_2d(columns, 0, 1, 120, 96, 3, 6),
            parts.partition_2d(
                columns, 0, 1, 120, 96, 3, 6, canonical_order=True
            ),
            parts.partition_transformed(columns, skew(2, 0, 1, 1), 3, 4),
        ]
        for partitions in plans:
            assert partitions.total_entries == len(shuffled_ratings)
            bases = set()
            for block in partitions.blocks.values():
                assert isinstance(block, Block)
                assert block.keys.shape == (len(block), 2)
                bases.add(id(block.keys.base))
            assert len(bases) == 1  # slices of one permuted copy
            empty = partitions.block(99, 99)
            assert isinstance(empty, Block) and len(empty) == 0
            assert empty.keys.shape == (0, 2)

    def test_a_list_and_its_columns_partition_alike(self, shuffled_ratings):
        from_list = parts.partition_2d(
            shuffled_ratings, 0, 1, 120, 96, 3, 6, canonical_order=True
        )
        from_columns = parts.partition_2d(
            Block.of(shuffled_ratings), 0, 1, 120, 96, 3, 6,
            canonical_order=True,
        )
        assert from_list.blocks == from_columns.blocks
        assert from_list.space_bounds == from_columns.space_bounds


def _composed(*matrices):
    product = np.array(matrices[0])
    for matrix in matrices[1:]:
        product = product @ np.array(matrix)
    return tuple(tuple(int(v) for v in row) for row in product)


class TestColumnarTransform:
    """``keys @ matrix.T`` buckets entries exactly as one
    ``transform_point`` call per entry did (tests/test_unimodular.py's
    matrices)."""

    @pytest.mark.parametrize("matrix", [
        uni.identity(2),
        uni.interchange(2, 0, 1),
        uni.reversal(2, 0),
        uni.reversal(2, 1),
        uni.skew(2, 0, 1, 1),
        uni.skew(2, 0, 1, 2),
        uni.skew(2, 0, 1, -1),
        _composed(uni.interchange(2, 0, 1), uni.skew(2, 0, 1, 1)),
        uni.skew(3, 0, 1, 3),
        uni.interchange(3, 0, 1),
        _composed(uni.skew(3, 0, 1, 1), uni.skew(3, 0, 2, 1)),
    ])
    def test_matches_the_per_point_transform(self, matrix):
        ndim = len(matrix)
        rng = np.random.default_rng(ndim)
        entries = [
            (tuple(int(c) for c in key), float(position))
            for position, key in enumerate(rng.integers(0, 7, size=(60, ndim)))
        ]
        got = parts.partition_transformed(entries, matrix, 3, 4)
        want = {}
        for key, value in entries:
            point = uni.transform_point(matrix, key)
            block_key = (
                parts.bucket_of(got.space_bounds, point[1]),
                parts.bucket_of(got.time_bounds, point[0]),
            )
            want.setdefault(block_key, []).append((key, value))
        assert got.blocks == want
        points = [uni.transform_point(matrix, key) for key, _v in entries]
        assert got.time_bounds[0][0] == min(q[0] for q in points)
        assert got.time_bounds[-1][1] == max(q[0] for q in points) + 1
