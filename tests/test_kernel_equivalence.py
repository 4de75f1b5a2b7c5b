"""The building blocks of the kernel contract.

The executor's kernel fast path (repro.runtime.kernels) promises the same
floating-point results *and* the same accounting — every EpochResult field
— as the per-entry interpreted body.  ``tests/test_synth.py``
(``TestAutoMatchesScalar``) runs every app both ways and checks that
promise; here the bulk DistArray accessors and the level schedule the
kernels are built on are tested directly.
"""

import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distarray import DistArray, SubscriptError
from repro.runtime.kernels import level_schedule, pairwise_sum
from repro.sanitizer import verify_conflict_groups


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


#: Floats NumPy's sum must agree on besides ordinary ones: signed zeros,
#: subnormals, infinities, NaN and the extremes.
_SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf,
    -math.inf, math.nan, 1.7976931348623157e308, -1.7976931348623157e308,
]
#: ... and mixed magnitudes, whose sums cancel and round differently in
#: every other order.
_ANY_FLOAT = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-60, 60)),
)


def _float_lists(elements, max_size=300):
    """Lists of ``elements`` whose length is uniform in ``1..max_size``
    (hypothesis alone favours short lists; the sum's shape changes at 8
    and at 128 addends)."""
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n)
    )


class TestPairwiseSum:
    """``pairwise_sum`` replays NumPy's reduction order; the LDA block
    sampler relies on it to equal the body's ``probs.sum()``."""

    @settings(max_examples=100, deadline=None)
    @given(values=_float_lists(_ANY_FLOAT))
    @example(values=[-0.0] * 3)  # sums to +0.0 at every width
    @example(values=[-0.0] * 9)
    @example(values=[-0.0] * 200)
    def test_bit_equal_to_add_reduce(self, values):
        with np.errstate(all="ignore"):
            ref = float(np.add.reduce(np.array(values)))
        # ``hex`` tells the zeros apart and spells every NaN ``nan``.
        assert pairwise_sum(len(values))(values).hex() == ref.hex()

    @pytest.mark.parametrize(
        "n", [*range(20), 31, 64, 127, 128, 129, 136, 200, 257, 300, 1000]
    )
    def test_every_shape_on_random_vectors(self, n):
        rng = np.random.default_rng(n)
        total = pairwise_sum(n)
        assert total is pairwise_sum(n)  # generated once per width
        for trial in range(300):
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            if trial % 3 == 0:  # a few specials at random places
                spots = rng.integers(0, max(n, 1), size=min(n, 3))
                a[spots] = rng.choice(_SPECIAL_FLOATS, size=len(spots))
            with np.errstate(all="ignore"):
                ref = float(np.add.reduce(a))
            assert total(a.tolist()).hex() == ref.hex()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_running_sum_and_bisect_equal_accumulate_and_searchsorted(
        self, data
    ):
        values = data.draw(_float_lists(st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 1.0]),  # ties in the running sum
            st.floats(0.0, 1e6),
            st.builds(math.ldexp, st.floats(0.0, 1.0), st.integers(-60, 60)),
        )))
        cum = list(itertools.accumulate(values))
        ref = np.add.accumulate(np.array(values))
        assert cum == ref.tolist()
        end = cum[-1] + 0.0  # -0.0 when every value is
        target = data.draw(st.one_of(
            st.sampled_from(cum),  # exactly on a boundary
            st.floats(0.0, end),
            st.floats(end, end * 2.0 + 1.0),  # past the end
        ))
        assert bisect.bisect_left(cum, target) == int(ref.searchsorted(target))


def _consecutive_runs(seqs):
    """The grouping ``level_schedule`` replaced, kept as the oracle for its
    group count: maximal runs of consecutive entries with no value
    repeated on any dimension."""
    groups, lo, seen = [], 0, [set() for _ in seqs]
    for position, values in enumerate(zip(*seqs)):
        if any(value in s for value, s in zip(values, seen)):
            groups.append((lo, position))
            lo, seen = position, [set() for _ in seqs]
        for s, value in zip(seen, values):
            s.add(value)
    if seqs and lo < len(seqs[0]):
        groups.append((lo, len(seqs[0])))
    return groups


class TestLevelSchedule:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=60
        ),
        ndim=st.sampled_from([2, 3]),
    )
    def test_legal_complete_and_no_deeper_than_consecutive_runs(
        self, keys, ndim
    ):
        seqs = [[key[d] for key in keys] for d in range(ndim)]
        order, groups = level_schedule(seqs)
        n = len(keys)
        # Every entry exactly once; the groups tile the permutation.
        assert sorted(order.tolist()) == list(range(n))
        assert groups[0][0] == 0 and groups[-1][1] == n
        assert all(lo < hi for lo, hi in groups)
        assert all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
        # Legal: two entries sharing a value on any dimension sit in
        # different groups, the earlier entry's group first.
        group_of = {}
        for index, (lo, hi) in enumerate(groups):
            for entry in order[lo:hi].tolist():
                group_of[entry] = index
        for later in range(n):
            for earlier in range(later):
                if any(seq[earlier] == seq[later] for seq in seqs):
                    assert group_of[earlier] < group_of[later]
        assert verify_conflict_groups(seqs, order, groups) == []
        # Within a level, entries keep their relative (entry) order.
        for lo, hi in groups:
            assert order[lo:hi].tolist() == sorted(order[lo:hi].tolist())
        assert len(groups) <= len(_consecutive_runs(seqs))

    def test_independent_entries_share_one_level(self):
        rows = [0, 0, 1, 1]
        cols = [0, 1, 2, 3]
        order, groups = level_schedule([rows, cols])
        # Entry 2 does not wait for entry 1; splitting the entry sequence
        # into consecutive conflict-free runs gave (0, 1) (1, 3) (3, 4).
        assert order.tolist() == [0, 2, 1, 3]
        assert groups == [(0, 2), (2, 4)]
        assert len(_consecutive_runs([rows, cols])) == 3

    def test_empty(self):
        for seqs in ([], [[]], [[], []], [[], [], []]):
            order, groups = level_schedule(seqs)
            assert order.tolist() == [] and groups == []
