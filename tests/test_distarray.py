"""Unit tests for DistArrays (repro.core.distarray)."""

import numpy as np
import pytest

from repro.core.distarray import DistArray, parse_dense_line
from repro.errors import CheckpointError, MaterializationError, SubscriptError


class TestLazyCreation:
    def test_from_entries_is_lazy(self):
        array = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2))
        assert not array.is_materialized

    def test_materialize_is_idempotent(self):
        array = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2))
        array.materialize()
        first = array._entries
        array.materialize()
        assert array._entries is first

    def test_access_before_materialize_raises(self):
        array = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2))
        with pytest.raises(MaterializationError):
            array[0, 0]

    def test_shape_unknown_before_materialize(self):
        array = DistArray.from_entries([((0, 0), 1.0)])
        with pytest.raises(MaterializationError):
            array.shape

    def test_shape_inference(self):
        array = DistArray.from_entries(
            [((0, 0), 1.0), ((3, 5), 2.0)]
        ).materialize()
        assert array.shape == (4, 6)

    def test_empty_entries_shape_inference_fails(self):
        array = DistArray.from_entries([])
        with pytest.raises(MaterializationError):
            array.materialize()

    def test_no_recipe_raises(self):
        array = DistArray(name="bare", shape=(2,), sparse=True)
        with pytest.raises(MaterializationError):
            array.materialize()


class TestDenseCreation:
    def test_randn_shape_and_determinism(self):
        a = DistArray.randn(3, 4, seed=42).materialize()
        b = DistArray.randn(3, 4, seed=42).materialize()
        assert a.values.shape == (3, 4)
        assert np.array_equal(a.values, b.values)

    def test_randn_scale(self):
        a = DistArray.randn(50, 50, seed=0, scale=0.01).materialize()
        assert np.abs(a.values).max() < 1.0

    def test_rand_in_unit_interval(self):
        a = DistArray.rand(10, 10, seed=1).materialize()
        assert a.values.min() >= 0.0
        assert a.values.max() < 1.0

    def test_zeros(self):
        a = DistArray.zeros(2, 3).materialize()
        assert np.array_equal(a.values, np.zeros((2, 3)))

    def test_full(self):
        a = DistArray.full((2, 2), 7.5).materialize()
        assert np.array_equal(a.values, np.full((2, 2), 7.5))

    def test_dense_requires_shape(self):
        array = DistArray(name="noshape", recipes=[], sparse=False)
        with pytest.raises(MaterializationError):
            array.materialize()


class TestMapFusion:
    def test_map_values_on_dense(self):
        a = DistArray.zeros(2, 2).map(lambda v: v + 1.0, map_values=True)
        a.materialize()
        assert np.array_equal(a.values, np.ones((2, 2)))

    def test_map_chain_fuses(self):
        a = (
            DistArray.zeros(2, 2)
            .map(lambda v: v + 1.0, map_values=True)
            .map(lambda v: v * 3.0, map_values=True)
        ).materialize()
        assert np.array_equal(a.values, np.full((2, 2), 3.0))

    def test_map_is_lazy(self):
        calls = []

        def fn(v):
            calls.append(v)
            return v

        a = DistArray.zeros(2, 2).map(fn, map_values=True)
        assert not calls
        a.materialize()
        assert calls

    def test_map_does_not_mutate_parent(self):
        parent = DistArray.from_entries([((0,), 1.0)], shape=(1,))
        child = parent.map(lambda v: v * 2, map_values=True)
        parent.materialize()
        child.materialize()
        assert parent[(0,)] == 1.0
        assert child[(0,)] == 2.0

    def test_map_entries_sparse(self):
        a = DistArray.from_entries(
            [((0, 1), 2.0), ((1, 0), 3.0)], shape=(2, 2)
        ).map(lambda key, value: ((key[1], key[0]), value), map_values=False)
        a.materialize()
        assert a[(1, 0)] == 2.0
        assert a[(0, 1)] == 3.0

    def test_map_entries_can_drop(self):
        a = DistArray.from_entries(
            [((0,), 1.0), ((1,), 2.0)], shape=(2,)
        ).map(lambda key, value: None if value > 1.5 else (key, value))
        a.materialize()
        assert a.num_entries == 1

    def test_dense_map_entries_rejected(self):
        with pytest.raises(MaterializationError):
            DistArray.zeros(2, 2).map(lambda k, v: (k, v), map_values=False)


class TestTextFile(object):
    def test_load_and_parse(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0 1 2.5\n1 0 -1.0\n\n")
        array = DistArray.text_file(str(path)).materialize()
        assert array.num_entries == 2
        assert array[(0, 1)] == 2.5
        assert array[(1, 0)] == -1.0

    def test_custom_parser(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("3,4,9.0\n")

        def parser(line):
            a, b, v = line.split(",")
            return (int(a), int(b)), float(v)

        array = DistArray.text_file(str(path), parser).materialize()
        assert array[(3, 4)] == 9.0

    def test_default_parser_rejects_garbage(self):
        with pytest.raises(MaterializationError):
            parse_dense_line("oops")


class TestAccess:
    def test_sparse_point_get_set(self):
        a = DistArray.from_entries([((1, 2), 5.0)], shape=(3, 3)).materialize()
        assert a[1, 2] == 5.0
        a[1, 2] = 6.0
        assert a[1, 2] == 6.0

    def test_sparse_missing_entry_raises(self):
        a = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2)).materialize()
        with pytest.raises(SubscriptError):
            a[1, 1]

    def test_sparse_get_with_default(self):
        a = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2)).materialize()
        assert a.get((1, 1), -1.0) == -1.0

    def test_sparse_contains(self):
        a = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2)).materialize()
        assert a.contains((0, 0))
        assert not a.contains((1, 1))

    def test_sparse_wrong_arity_raises(self):
        a = DistArray.from_entries([((0, 0), 1.0)], shape=(2, 2)).materialize()
        with pytest.raises(SubscriptError):
            a[(0,)]

    def test_dense_point_and_set_queries(self):
        a = DistArray.zeros(3, 4).materialize()
        a[1, 2] = 9.0
        assert a[1, 2] == 9.0
        column = a[:, 2]
        assert column.shape == (3,)
        assert column[1] == 9.0

    def test_dense_range_query(self):
        a = DistArray.zeros(5, 5).materialize()
        a[1:3, 0] = np.array([1.0, 2.0])
        assert np.array_equal(a[1:3, 0], np.array([1.0, 2.0]))

    def test_values_on_sparse_raises(self):
        a = DistArray.from_entries([((0,), 1.0)], shape=(1,)).materialize()
        with pytest.raises(SubscriptError):
            a.values

    def test_set_dense_replaces_storage(self):
        a = DistArray.zeros(2, 2).materialize()
        a.set_dense(np.ones((2, 2)))
        assert np.array_equal(a.values, np.ones((2, 2)))

    def test_entries_iteration_dense(self):
        a = DistArray.zeros(2, 2).materialize()
        keys = {key for key, _v in a.entries()}
        assert keys == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_nbytes_positive(self):
        dense = DistArray.zeros(4, 4).materialize()
        sparse = DistArray.from_entries([((0,), 1.0)], shape=(4,)).materialize()
        assert dense.nbytes == 4 * 4 * 8
        assert sparse.nbytes > 0


class TestSetOperations:
    def _sparse(self):
        entries = [((i, j), float(i * 10 + j)) for i in range(4) for j in range(3)]
        return DistArray.from_entries(entries, shape=(4, 3)).materialize()

    def test_group_by_dimension(self):
        grouped = self._sparse().group_by(0)
        assert grouped.sparse
        assert grouped.num_entries == 4
        rows = grouped[(2,)]
        assert len(rows) == 3
        assert all(key[0] == 2 for key, _v in rows)

    def test_group_by_out_of_range(self):
        with pytest.raises(SubscriptError):
            self._sparse().group_by(5)

    def test_group_by_dense_rejected(self):
        with pytest.raises(SubscriptError):
            DistArray.zeros(2, 2).materialize().group_by(0)

    def test_randomize_preserves_multiset(self):
        original = self._sparse()
        shuffled = original.randomize(seed=3)
        assert shuffled.num_entries == original.num_entries
        assert sorted(v for _k, v in shuffled.entries()) == sorted(
            v for _k, v in original.entries()
        )

    def test_randomize_permutations_recorded(self):
        shuffled = self._sparse().randomize(dims=[0], seed=3)
        assert set(shuffled.permutations) == {0}
        assert sorted(shuffled.permutations[0]) == list(range(4))

    def test_randomize_single_dim_keeps_other(self):
        original = self._sparse()
        shuffled = original.randomize(dims=[0], seed=3)
        original_cols = sorted(key[1] for key, _v in original.entries())
        shuffled_cols = sorted(key[1] for key, _v in shuffled.entries())
        assert original_cols == shuffled_cols

    def test_histogram_per_coordinate(self):
        counts = self._sparse().histogram(0)
        assert counts.tolist() == [3, 3, 3, 3]

    def test_histogram_binned(self):
        counts = self._sparse().histogram(0, num_bins=2)
        assert counts.tolist() == [6, 6]

    def test_histogram_bad_dim(self):
        with pytest.raises(SubscriptError):
            self._sparse().histogram(9)


class TestCheckpoint:
    def test_roundtrip_dense(self, tmp_path):
        a = DistArray.randn(3, 3, seed=7, name="ckpt_dense").materialize()
        path = str(tmp_path / "a.ckpt")
        a.checkpoint(path)
        restored = DistArray.load_checkpoint(path)
        assert np.array_equal(restored.values, a.values)
        assert restored.name == "ckpt_dense"

    def test_roundtrip_sparse(self, tmp_path):
        a = DistArray.from_entries(
            [((0, 1), 2.0)], shape=(2, 2), name="ckpt_sparse"
        ).materialize()
        path = str(tmp_path / "b.ckpt")
        a.checkpoint(path)
        restored = DistArray.load_checkpoint(path)
        assert restored[(0, 1)] == 2.0

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            DistArray.load_checkpoint(str(tmp_path / "missing.ckpt"))

    def test_unwritable_path_raises(self):
        a = DistArray.zeros(2).materialize()
        with pytest.raises(CheckpointError):
            a.checkpoint("/nonexistent-dir-xyz/a.ckpt")


class TestSnapshotRestore:
    def test_dense_round_trip_keeps_the_backing_array(self):
        array = DistArray.randn(3, 4, name="snap_d", seed=2).materialize()
        backing = array.values
        saved = array.snapshot()
        array[1, 2] = 99.0
        array[:, 0] = -1.0
        assert not np.array_equal(array.values, saved)
        array.restore(saved)
        assert array.values is backing  # in place: shared memory survives
        assert np.array_equal(array.values, saved)
        # The snapshot is independent of the array and reusable.
        array[0, 0] = 7.0
        assert saved[0, 0] != 7.0
        array.restore(saved)
        assert np.array_equal(array.values, saved)

    def test_sparse_round_trip_copies_ndarray_values(self):
        array = DistArray.from_entries(
            [((0, 1), np.array([1.0, 2.0])), ((2, 0), 5.0)], name="snap_s"
        ).materialize()
        saved = array.snapshot()
        array[0, 1][0] = -3.0          # mutate a stored ndarray in place
        array[2, 0] = 6.0              # overwrite a scalar
        array.direct_set((1, 1), 8.0)  # add a key
        array.restore(saved)
        assert dict(array.entries()).keys() == {(0, 1), (2, 0)}
        assert np.array_equal(array[0, 1], [1.0, 2.0])
        assert array[2, 0] == 5.0
        # Restoring copied again: mutating the array leaves the snapshot.
        array[0, 1][1] = 0.0
        assert np.array_equal(saved[(0, 1)], [1.0, 2.0])

    def test_unmaterialized_array_refuses(self):
        with pytest.raises(MaterializationError):
            DistArray.zeros(3, name="snap_lazy").snapshot()


def _loop_sees(space):
    """What a loop built *now* over a 1-D sparse ``space`` iterates:
    ``{key[0]: value}`` as its scalar body observed it."""
    from repro.analysis.loop_info import analyze_loop_body
    from repro.analysis.strategy import choose_plan
    from repro.runtime.cluster import ClusterSpec
    from repro.runtime.executor import OrionExecutor
    from repro.runtime.options import LoopOptions

    seen = {}

    def body(key, value):
        seen[key[0]] = value

    info = analyze_loop_body(body, space)
    executor = OrionExecutor(
        body, info, choose_plan(info),
        ClusterSpec(num_machines=1, workers_per_machine=2),
        options=LoopOptions(kernel="off"),
    )
    executor.run_epoch()
    return seen


class TestColumnarStorage:
    """Exactly one of columns / dict is live, and every reader answers
    from the live one — so no write can leave a loop partitioning stale
    data."""

    def _space(self):
        return DistArray.from_entries(
            [((3,), 3.5), ((0,), 0.5), ((2,), 2.5)], name="cs", shape=(6,)
        ).materialize()

    @staticmethod
    def _live(array):
        return (array._columns is not None, array._dict is not None)

    def test_materializes_columnar_and_switches_on_point_access(self):
        space = self._space()
        assert self._live(space) == (True, False)
        keys, values = space.columns()
        assert keys.dtype == np.intp and keys.tolist() == [[3], [0], [2]]
        assert values.dtype == np.float64
        assert list(space.entries()) == [((3,), 3.5), ((0,), 0.5), ((2,), 2.5)]
        assert space.num_entries == 3 and space.nbytes == 8 * 2 * 3
        assert self._live(space) == (True, False)  # readers do not switch
        assert space[0] == 0.5
        assert self._live(space) == (False, True)
        assert list(space.entries()) == [((3,), 3.5), ((0,), 0.5), ((2,), 2.5)]

    def test_entry_types_survive_the_columns(self):
        entries = [((1, 0), 2), ((0, 1), 2.5), ((2, 2), (1, "x"))]
        space = DistArray.from_entries(entries, shape=(3, 3)).materialize()
        assert isinstance(space.columns()[1], list)
        got = list(space.entries())
        assert got == entries
        for (key, value), (_k, want) in zip(got, entries):
            assert all(type(c) is int for c in key)
            assert type(value) is type(want)
        floats = DistArray.from_entries([((0,), 1.5)], shape=(1,)).materialize()
        assert type(next(floats.entries())[1]) is float

    def test_direct_set_then_loop(self):
        space = self._space()
        space.direct_set((5,), 5.5)
        space.direct_set((0,), -1.0)
        assert space.num_entries == 4
        assert list(space.entries()) == [
            ((3,), 3.5), ((0,), -1.0), ((2,), 2.5), ((5,), 5.5)
        ]
        assert _loop_sees(space) == {3: 3.5, 0: -1.0, 2: 2.5, 5: 5.5}

    def test_bulk_set_then_loop(self):
        space = self._space()
        space.bulk_set([(2,), 4], [9.0, 4.5])
        assert space.num_entries == 4
        assert [key for key, _v in space.entries()] == [(3,), (0,), (2,), (4,)]
        assert _loop_sees(space) == {3: 3.5, 0: 0.5, 2: 9.0, 4: 4.5}

    def test_restore_empty_then_loop_refuses(self):
        from repro.errors import ExecutionError

        space = self._space()
        space.restore({})
        assert space.num_entries == 0 and list(space.entries()) == []
        assert space.columns()[0].shape == (0, 1)
        with pytest.raises(ExecutionError):
            _loop_sees(space)

    def test_restore_snapshot_then_loop(self):
        space = self._space()
        saved = space.snapshot()
        assert self._live(space) == (True, False)  # a snapshot only reads
        space.direct_set((1,), 1.5)
        space.restore(saved)
        assert _loop_sees(space) == {3: 3.5, 0: 0.5, 2: 2.5}

    def test_loop_after_loop_sees_writes_between(self):
        space = self._space()
        assert _loop_sees(space) == {3: 3.5, 0: 0.5, 2: 2.5}
        space[3] = 30.0
        assert _loop_sees(space) == {3: 30.0, 0: 0.5, 2: 2.5}

    def test_randomize_output_is_current(self):
        space = self._space()
        space.direct_set((5,), 5.5)  # the source is a dict by now
        shuffled = space.randomize(seed=3)
        perm = shuffled.permutations[0]
        want = {int(perm[k[0]]): v for k, v in space.entries()}
        assert [k[0] for k, _v in shuffled.entries()] == [
            int(perm[k[0]]) for k, _v in space.entries()
        ]
        assert _loop_sees(shuffled) == want
        shuffled.direct_set((int(perm[5]),), -5.5)
        want[int(perm[5])] = -5.5
        assert _loop_sees(shuffled) == want

    def test_group_by_output_is_current(self):
        space = DistArray.from_entries(
            [((0, 1), 1.0), ((1, 0), 2.0), ((0, 2), 3.0)], shape=(2, 3)
        ).materialize()
        space.direct_set((1, 2), 4.0)
        groups = space.group_by(0)
        assert groups.num_entries == 2
        assert _loop_sees(groups) == {
            0: [((0, 1), 1.0), ((0, 2), 3.0)],
            1: [((1, 0), 2.0), ((1, 2), 4.0)],
        }

    def test_duplicate_keys_keep_first_position_last_value(self):
        space = DistArray.from_entries(
            [((1,), "a"), ((0,), "b"), ((1,), "c")], shape=(2,)
        ).materialize()
        assert list(space.entries()) == [((1,), "c"), ((0,), "b")]
        assert space.num_entries == 2

    @pytest.mark.parametrize("key", [
        (np.int64(1), np.int64(2)), (True, 2), (1.0, 2.7), [1, 2],
    ])
    def test_other_key_types_normalize_as_before(self, key):
        space = DistArray.from_entries(
            [(key, 1.5), ((0, 0), 2.5)], shape=(3, 3)
        ).materialize()
        got = list(space.entries())
        assert got == [((1, 2), 1.5), ((0, 0), 2.5)]
        assert all(type(c) is int for k, _v in got for c in k)
        assert space[1, 2] == 1.5

    def test_bad_keys_raise_as_before(self):
        with pytest.raises(TypeError):
            DistArray.from_entries([(3, 1.0)], shape=(4,)).materialize()
        with pytest.raises(ValueError):
            DistArray.from_entries([(("x",), 1.0)], shape=(4,)).materialize()
        with pytest.raises(ValueError):
            DistArray.from_entries([((0,), 1.0, 2.0)], shape=(4,)).materialize()

    def test_mixed_arity(self):
        entries = [((0, 1), 1.0), ((1,), 2.0)]
        with pytest.raises(MaterializationError):
            DistArray.from_entries(entries).materialize()
        # Under a given shape the dict holds them, as before; only the
        # columnar view (and so a loop) refuses.
        held = DistArray.from_entries(entries, shape=(2, 2)).materialize()
        assert held.num_entries == 2 and held.get((0, 1)) == 1.0
        with pytest.raises(MaterializationError):
            held.columns()

    def test_map_and_text_file_chains_end_columnar(self, tmp_path):
        mapped = DistArray.from_entries(
            [((0,), 1.0), ((1,), 2.0)], shape=(4,)
        ).map(lambda key, value: ((key[0] + 2,), value * 2)).materialize()
        assert self._live(mapped) == (True, False)
        assert list(mapped.entries()) == [((2,), 2.0), ((3,), 4.0)]
        path = tmp_path / "m.txt"
        path.write_text("0 1 1.5\n2 0 2.5\n")
        loaded = DistArray.text_file(str(path)).materialize()
        assert self._live(loaded) == (True, False)
        assert loaded.shape == (3, 2)
        assert list(loaded.entries()) == [((0, 1), 1.5), ((2, 0), 2.5)]

    def test_checkpoint_round_trips_a_columnar_array(self, tmp_path):
        space = self._space()
        path = str(tmp_path / "c.ckpt")
        space.checkpoint(path)
        assert self._live(space) == (True, False)
        loaded = DistArray.load_checkpoint(path)
        assert list(loaded.entries()) == list(space.entries())
        assert loaded.shape == space.shape and loaded.num_entries == 3
        assert _loop_sees(loaded) == {3: 3.5, 0: 0.5, 2: 2.5}

    def test_dense_columns(self):
        dense = DistArray.full((2, 3), 1.5).materialize()
        keys, values = dense.columns()
        want = list(dense.entries())
        assert [tuple(k) for k in keys.tolist()] == [k for k, _v in want]
        assert values == [v for _k, v in want]
        assert {type(v) for v in values} == {np.float64}

    def test_histogram_reads_the_live_form(self):
        space = self._space()
        assert space.histogram(0).tolist() == [1, 0, 1, 1, 0, 0]
        assert self._live(space) == (True, False)
        space.direct_set((5,), 1.0)
        assert space.histogram(0, num_bins=2).tolist() == [2, 2]

    def test_racing_first_accesses_lose_no_write(self):
        """Threads making the first point accesses to one sparse array
        together: one dict is built, and every write lands in it."""
        import sys
        import threading

        workers, per_worker, rounds = 8, 40, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(rounds):
                n = workers * per_worker
                array = DistArray.from_entries(
                    [((i,), 0.0) for i in range(n)], shape=(n,)
                ).materialize()
                start = threading.Barrier(workers)

                def work(worker):
                    start.wait(timeout=10)
                    for i in range(worker, n, workers):
                        array.direct_set((i,), array.direct_get((i,)) + 1.0)

                threads = [
                    threading.Thread(target=work, args=(w,))
                    for w in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert self._live(array) == (False, True)
                assert [v for _k, v in array.entries()] == [1.0] * n
        finally:
            sys.setswitchinterval(interval)
