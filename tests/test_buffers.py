"""Unit tests for DistArray Buffers (repro.core.buffers)."""

import numpy as np
import pytest

from repro.core import access
from repro.core.buffers import DistArrayBuffer
from repro.core.distarray import DistArray


def _target(extent=10):
    return DistArray.zeros(extent, name="buf_target").materialize()


class TestBuffering:
    def test_writes_are_buffered_not_applied(self):
        target = _target()
        buf = DistArrayBuffer(target)
        buf[3] = 2.0
        assert target[(3,)] == 0.0
        assert buf.pending_count() == 1

    def test_flush_applies_with_default_add(self):
        target = _target()
        buf = DistArrayBuffer(target)
        buf[3] = 2.0
        applied = buf.flush_all()
        assert applied == 1
        assert target[(3,)] == 2.0
        assert buf.pending_count() == 0

    def test_same_index_writes_combine(self):
        target = _target()
        buf = DistArrayBuffer(target)
        buf[3] = 2.0
        buf[3] = 5.0
        assert buf.pending_count() == 1
        buf.flush_all()
        assert target[(3,)] == 7.0

    def test_custom_combiner(self):
        target = _target()
        buf = DistArrayBuffer(target, combiner=lambda old, new: new)
        buf[3] = 2.0
        buf[3] = 5.0
        buf.flush_all()
        assert target[(3,)] == 5.0

    def test_read_pending_value(self):
        buf = DistArrayBuffer(_target())
        buf[3] = 2.0
        assert buf[3] == 2.0
        assert buf[4] is None

    def test_clear_discards(self):
        target = _target()
        buf = DistArrayBuffer(target)
        buf[3] = 2.0
        buf.clear()
        buf.flush_all()
        assert target[(3,)] == 0.0


class TestPerWorkerIsolation:
    def test_worker_slots_independent(self):
        target = _target()
        buf = DistArrayBuffer(target)
        with access.worker_scope(0):
            buf[1] = 1.0
        with access.worker_scope(1):
            buf[1] = 10.0
        assert buf.pending_count(0) == 1
        assert buf.pending_count(1) == 1
        buf.flush_worker(0)
        assert target[(1,)] == 1.0
        assert buf.pending_count(1) == 1
        buf.flush_worker(1)
        assert target[(1,)] == 11.0

    def test_driver_writes_use_driver_slot(self):
        buf = DistArrayBuffer(_target())
        buf[0] = 1.0
        assert buf.pending_count(access.DRIVER_WORKER) == 1


class TestApplyUDF:
    def test_two_arg_udf(self):
        target = _target()
        buf = DistArrayBuffer(target, apply_fn=lambda cur, up: cur - up)
        buf[2] = 3.0
        buf.flush_all()
        assert target[(2,)] == -3.0

    def test_three_arg_udf_receives_key(self):
        target = _target()
        seen = []

        def udf(key, current, update):
            seen.append(key)
            return current + 2 * update

        buf = DistArrayBuffer(target, apply_fn=udf)
        buf[4] = 1.5
        buf.flush_all()
        assert seen == [(4,)]
        assert target[(4,)] == 3.0

    def test_adagrad_style_udf(self):
        target = _target(5)
        n2 = np.full(5, 1e-8)

        def adagrad(key, current, grad):
            n2[key[0]] += grad * grad
            return current - grad / np.sqrt(n2[key[0]])

        buf = DistArrayBuffer(target, apply_fn=adagrad)
        buf[1] = 2.0
        buf.flush_all()
        assert n2[1] == pytest.approx(4.0, rel=1e-6)
        assert target[(1,)] == pytest.approx(-1.0, rel=1e-3)


class TestMaxDelay:
    def test_tick_forces_flush_at_bound(self):
        buf = DistArrayBuffer(_target(), max_delay=3)
        assert not buf.tick(0)
        assert not buf.tick(0)
        assert buf.tick(0)

    def test_flush_resets_age(self):
        buf = DistArrayBuffer(_target(), max_delay=2)
        buf.tick(0)
        buf.flush_worker(0)
        assert not buf.tick(0)

    def test_no_bound_never_forces(self):
        buf = DistArrayBuffer(_target())
        assert not any(buf.tick(0) for _ in range(100))


class TestAccounting:
    def test_pending_bytes_scales_with_count(self):
        buf = DistArrayBuffer(_target())
        buf[0] = 1.0
        one = buf.pending_bytes()
        buf[1] = 1.0
        assert buf.pending_bytes() == 2 * one

    def test_multidim_target_bytes(self):
        grid = DistArray.zeros(4, 4, name="grid_b").materialize()
        buf = DistArrayBuffer(grid)
        buf[1, 1] = 1.0
        assert buf.pending_bytes() == 8 * 3  # 2-dim index + payload


class TestSliceKeys:
    """Buffers accept slice (set-query) indices for dense-model updates."""

    def test_whole_vector_write(self):
        import numpy as np

        target = _target(5)
        buf = DistArrayBuffer(target)
        buf[:] = np.ones(5)
        buf.flush_all()
        assert np.array_equal(target.values, np.ones(5))

    def test_whole_matrix_write(self):
        import numpy as np

        grid = DistArray.zeros(3, 4, name="grid_slice").materialize()
        buf = DistArrayBuffer(grid)
        buf[:, :] = np.full((3, 4), 2.0)
        buf[:, :] = np.full((3, 4), 3.0)  # combines before flushing
        buf.flush_all()
        assert np.array_equal(grid.values, np.full((3, 4), 5.0))

    def test_row_slice_write(self):
        import numpy as np

        grid = DistArray.zeros(3, 4, name="grid_row").materialize()
        buf = DistArrayBuffer(grid)
        buf[1, :] = np.arange(4.0)
        buf.flush_all()
        assert np.array_equal(grid.values[1], np.arange(4.0))
        assert grid.values[0].sum() == 0.0

    def test_bounded_slice_write(self):
        import numpy as np

        target = _target(6)
        buf = DistArrayBuffer(target)
        buf[2:4] = np.array([1.0, 2.0])
        buf.flush_all()
        assert target[(2,)] == 1.0
        assert target[(3,)] == 2.0

    def test_slice_pending_bytes_count_elements(self):
        import numpy as np

        grid = DistArray.zeros(4, 8, name="grid_bytes").materialize()
        buf = DistArrayBuffer(grid)
        buf[0, 0] = 1.0
        point_bytes = buf.pending_bytes()
        buf.clear()
        buf[:, :] = np.zeros((4, 8))
        assert buf.pending_bytes() > 8 * point_bytes


class TestMixedKeysAndTargets:
    """The point-key fast paths of ``pending_bytes`` / ``flush_worker`` /
    ``direct_buffer_write_many`` beside the general ones."""

    def test_point_and_slice_keys_in_one_slot(self):
        grid = DistArray.zeros(3, 4, name="grid_mixed").materialize()
        seen = []

        def udf(key, current, update):
            seen.append(key)
            return current + update

        buf = DistArrayBuffer(grid, apply_fn=udf)
        buf[2, 1] = 1.0
        buf[0, :] = np.arange(4.0)
        buf[1] = np.ones(4)  # a point key shorter than the target's rank
        assert buf.pending_bytes() == 8 * (2 + 1) + 8 * (2 + 4) + 8 * (1 + 1)
        buf.flush_all()
        assert seen == [(2, 1), (0, slice(None, None)), (1,)]
        expected = np.zeros((3, 4))
        expected[2, 1], expected[0], expected[1] = 1.0, np.arange(4.0), 1.0
        assert np.array_equal(grid.values, expected)

    def test_sparse_target_flushes_through_point_access(self):
        target = DistArray.from_entries(
            [((0, 1), 1.0), ((2, 2), 5.0)], name="sparse_target", shape=(3, 3)
        ).materialize()
        buf = DistArrayBuffer(target)
        buf[2, 2] = 0.5
        buf[2, 2] = 0.25
        assert buf.flush_all() == 1
        assert target.get((2, 2)) == 5.75 and target.get((0, 1)) == 1.0

    @pytest.mark.parametrize("combiner", [None, max])
    def test_write_many_merges_like_single_writes(self, combiner):
        kwargs = {} if combiner is None else {"combiner": combiner}
        one, many = (DistArrayBuffer(_target(), **kwargs) for _ in range(2))
        indices = [3, 1, 3, np.int64(1), 7, 3]
        values = [0.1, 0.2, 0.3, -0.4, 0.5, 0.7]
        for index, value in zip(indices, values):
            one.direct_buffer_write(index, value)
        many.direct_buffer_write_many(indices, values)
        assert list(one.take_pending(-1).items()) == \
            list(many.take_pending(-1).items())


class TestSnapshotAndHandOff:
    def _buffer(self):
        target = DistArray.zeros(6, name="handoff_t").materialize()
        return target, DistArrayBuffer(target, max_delay=5)

    def test_take_then_apply_equals_a_local_flush(self):
        target, buf = self._buffer()
        with access.worker_scope(3):
            buf[1] = 2.0
            buf[1] = 0.5
            buf[5] = -1.0
        taken = buf.take_pending(3)
        assert buf.pending_count() == 0
        assert np.array_equal(target.values, np.zeros(6))  # not applied
        assert buf.take_pending(3) == {}
        # The owner of the apply UDF merges with what it already holds.
        with access.worker_scope(3):
            buf[5] = 4.0
        buf.apply_pending(3, taken)
        assert np.array_equal(target.values, [0, 2.5, 0, 0, 0, 3.0])
        assert buf.pending_count() == 0
