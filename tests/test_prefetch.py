"""Unit tests for bulk-prefetch synthesis (repro.analysis.prefetch)."""

import numpy as np

from repro.analysis.loop_info import analyze_loop_body
from repro.analysis.prefetch import synthesize_prefetch
from repro.core.buffers import DistArrayBuffer
from repro.core.distarray import DistArray


def _space_1d(extent=6, values=None):
    entries = [
        ((i,), values[i] if values else float(i)) for i in range(extent)
    ]
    return DistArray.from_entries(entries, name="psp", shape=(extent,)).materialize()


weights = DistArray.zeros(50, name="weights_p").materialize()
table = DistArray.randn(4, 50, name="table_p", seed=5).materialize()


class TestSLRStylePrefetch:
    """The paper's SLR case: feature ids from the sample's value."""

    def _build(self):
        values = [([(i * 3 % 50, 1.0), (i * 7 % 50, 2.0)], 1) for i in range(6)]
        space = _space_1d(6, values)
        buf = DistArrayBuffer(weights, name="wbuf_p")
        step = 0.1

        def body(key, sample):
            features, label = sample
            margin = 0.0
            for fid, fval in features:
                margin = margin + weights[fid] * fval
            prob = 1.0 / (1.0 + np.exp(-margin))
            for fid, fval in features:
                buf[fid] = -step * (prob - label) * fval

        info = analyze_loop_body(body, space)
        return body, info, space

    def test_synthesis_succeeds(self):
        body, info, _space = self._build()
        prefetch = synthesize_prefetch(body, info, ["weights"])
        assert prefetch is not None
        assert prefetch.arrays == ("weights",)

    def test_recorded_indices_match_sample_features(self):
        body, info, space = self._build()
        prefetch = synthesize_prefetch(body, info, ["weights"])
        key, sample = next(iter(space.entries()))
        recorded = prefetch(key, sample)
        expected = {("weights", (fid,)) for fid, _v in sample[0]}
        assert {(name, idx) for name, idx in recorded} == expected

    def test_generated_source_has_no_computation(self):
        body, info, _space = self._build()
        prefetch = synthesize_prefetch(body, info, ["weights"])
        assert "exp" not in prefetch.source
        assert "margin" not in prefetch.source
        assert "append" in prefetch.source

    def test_generated_function_does_not_touch_arrays(self):
        body, info, space = self._build()
        prefetch = synthesize_prefetch(body, info, ["weights"])
        before = weights.values.copy()
        for key, sample in space.entries():
            prefetch(key, sample)
        assert np.array_equal(weights.values, before)


class TestTaintSkipping:
    def test_value_dependent_subscript_not_recorded(self):
        # idx = int(weights[key[0]]): the second read's subscript depends on
        # a DistArray value, so only the first read is recorded.
        space = _space_1d(6)

        def body(key, value):
            idx = int(weights[key[0]])
            chained = weights[idx]
            return chained

        info = analyze_loop_body(body, space)
        prefetch = synthesize_prefetch(body, info, ["weights"])
        recorded = prefetch((3,), 0.0)
        assert recorded == [("weights", (3,))]

    def test_all_tainted_returns_none(self):
        space = _space_1d(6)

        def body(key, value):
            idx = int(weights[key[0]])  # itself recordable...
            return idx

        info = analyze_loop_body(body, space)
        # ...but if the only server array read is via a slice of another
        # server read, nothing survives:

        def body2(key, value):
            idx = int(table[0, key[0]])
            chained = table[1, int(idx)]
            return chained

        info2 = analyze_loop_body(body2, space)
        prefetch2 = synthesize_prefetch(body2, info2, ["table"])
        recorded = prefetch2((2,), 0.0)
        assert recorded == [("table", (0, 2))]

    def test_empty_server_set_returns_none(self):
        space = _space_1d(6)

        def body(key, value):
            return weights[key[0]]

        info = analyze_loop_body(body, space)
        assert synthesize_prefetch(body, info, []) is None


class TestControlFlow:
    def test_branch_condition_kept(self):
        space = _space_1d(6)

        def body(key, value):
            if value > 2.0:
                a = weights[key[0]]
            else:
                a = weights[key[0] + 1]
            return a

        info = analyze_loop_body(body, space)
        prefetch = synthesize_prefetch(body, info, ["weights"])
        assert prefetch((3,), 5.0) == [("weights", (3,))]
        assert prefetch((3,), 0.0) == [("weights", (4,))]

    def test_tainted_branch_not_recorded(self):
        # The branch condition reads a server array: subscripts inside are
        # control dependent on remote values and must be skipped.
        space = _space_1d(6)

        def body(key, value):
            if weights[key[0]] > 0:
                b = weights[key[0] + 1]
            else:
                b = 0.0
            return b

        info = analyze_loop_body(body, space)
        prefetch = synthesize_prefetch(body, info, ["weights"])
        recorded = prefetch((2,), 0.0)
        # Only the condition's own (untainted) read is recorded.
        assert recorded == [("weights", (2,))]

    def test_slice_read_recorded_with_slice_object(self):
        space = _space_1d(6)

        def body(key, value):
            column = table[:, key[0]]
            return column

        info = analyze_loop_body(body, space)
        prefetch = synthesize_prefetch(body, info, ["table"])
        recorded = prefetch((4,), 0.0)
        assert recorded == [("table", (slice(None, None), 4))]


class TestConstantFunction:
    """``constant``: no recorded subscript names a variable, so every
    iteration records the same indices (``PrefetchManager`` then evaluates
    the function once per block)."""

    def test_whole_array_read_is_constant(self):
        space = _space_1d(6)

        def body(key, value):
            totals = weights[:]
            return totals

        info = analyze_loop_body(body, space)
        prefetch = synthesize_prefetch(body, info, ["weights"])
        assert prefetch.constant
        assert prefetch((1,), 0.0) == prefetch((4,), 9.0) == [
            ("weights", (slice(None, None),))
        ]

    def test_key_value_and_guarded_subscripts_are_not(self):
        space = _space_1d(6)

        def by_key(key, value):
            w = weights[key[0]]
            return w

        def by_value(key, value):
            w = weights[int(value)]
            return w

        def guarded(key, value):
            w = 0.0
            if value > 2.0:
                w = weights[:]
            return w

        for body in (by_key, by_value, guarded):
            info = analyze_loop_body(body, space)
            assert not synthesize_prefetch(body, info, ["weights"]).constant
