"""The kernel contract's guard rails and building blocks.

The executor's kernel fast path (repro.runtime.kernels) promises the same
floating-point results *and* the same accounting — every EpochResult field
— as the per-entry interpreted body.  ``tests/test_synth.py`` runs every
app both ways; here ``equivalence_check`` must reject a caller-supplied
kernel that breaks the promise, and the bulk DistArray accessors and
conflict-free grouping the kernels are built on are tested directly.
"""

import numpy as np
import pytest

from repro.api import OrionContext
from repro.core.distarray import DistArray, SubscriptError
from repro.data.synthetic import sparse_classification
from repro.runtime.executor import ExecutionError
from repro.runtime.kernels import conflict_free_groups
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def slr_data():
    return sparse_classification(
        num_samples=120, num_features=70, nnz_per_sample=5, seed=17
    )


class TestEquivalenceCheckMode:
    def test_catches_wrong_kernel(self, slr_data):
        """A kernel that diverges from the body must fail the check."""
        ctx = OrionContext(seed=1)
        samples = ctx.from_entries(
            slr_data.entries, name="samples", shape=slr_data.shape
        )
        ctx.materialize(samples)
        weights = ctx.zeros(slr_data.num_features, name="weights")
        ctx.materialize(weights)
        buf = ctx.dist_array_buffer(weights, name="buf")

        def body(key, sample):
            features, _target = sample
            for fid, fval in features:
                buf[fid] = -0.1 * fval

        def bad_kernel(block, kctx):
            for _key, (features, _target) in block:
                for fid, fval in features:
                    kctx.buffer_add(buf, [fid], [-0.2 * fval])  # wrong scale
                kctx.account_point_reads(weights, [])

        loop = ctx.parallel_for(
            samples,
            options=LoopOptions(kernel=bad_kernel, equivalence_check=True),
        )(body)
        with pytest.raises(ExecutionError, match="kernel/scalar"):
            loop.run()


class TestBulkAccessors:
    def test_dense_bulk_get_set(self):
        array = DistArray.zeros(6, name="d")
        array.materialize()
        array.bulk_set([1, 4], [2.5, -1.0])
        assert array.bulk_get([1, 4, 0]) == [2.5, -1.0, 0.0]

    def test_sparse_bulk_get_default_and_missing(self):
        array = DistArray.from_entries([((0,), 1.0), ((3,), 4.0)], name="s")
        array.materialize()
        assert array.bulk_get([0, 3]) == [1.0, 4.0]
        assert array.bulk_get([0, 2], default=None) == [1.0, None]
        with pytest.raises(SubscriptError):
            array.bulk_get([2])

    def test_sparse_bulk_set_canonicalizes_keys(self):
        array = DistArray.from_entries([((0,), 1.0)], name="s2")
        array.materialize()
        array.bulk_set([(np.int64(1),), 2], [5.0, 6.0])
        assert array.get((1,)) == 5.0
        assert array.get((2,)) == 6.0

    def test_bulk_set_length_mismatch(self):
        array = DistArray.zeros(3, name="d2")
        array.materialize()
        with pytest.raises(SubscriptError):
            array.bulk_set([0, 1], [1.0])

    def test_dense_columns_roundtrip(self):
        array = DistArray.randn(3, 5, name="m", seed=0)
        array.materialize()
        gathered = array.dense_columns([4, 1])
        assert np.array_equal(gathered, array.values[:, [4, 1]])


class TestConflictFreeGroups:
    def test_groups_partition_and_are_conflict_free(self):
        rows = [0, 1, 0, 2, 3, 1]
        cols = [0, 1, 2, 3, 4, 5]
        groups = conflict_free_groups(rows, cols)
        assert groups[0][0] == 0 and groups[-1][1] == len(rows)
        for (_, hi), (lo2, _) in zip(groups, groups[1:]):
            assert hi == lo2
        for lo, hi in groups:
            assert len(set(rows[lo:hi])) == hi - lo
            assert len(set(cols[lo:hi])) == hi - lo

    def test_empty(self):
        assert conflict_free_groups([], []) == []
