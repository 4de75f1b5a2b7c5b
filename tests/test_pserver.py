"""Unit tests for parameter-server costs and prefetch management
(repro.runtime.pserver)."""

import pytest

from repro.analysis.loop_info import analyze_loop_body
from repro.analysis.prefetch import synthesize_prefetch
from repro.core.distarray import DistArray
from repro.runtime.cluster import ClusterSpec
from repro.runtime.network import NetworkModel
from repro.runtime.pserver import PrefetchManager, index_nbytes
from repro.runtime.simtime import CostModel


table = DistArray.randn(4, 20, name="table_ps", seed=6).materialize()
weights = DistArray.zeros(20, name="weights_ps").materialize()


class TestIndexNbytes:
    def test_point_index(self):
        assert index_nbytes(weights, (3,)) == 8

    def test_scalar_index(self):
        assert index_nbytes(weights, 3) == 8

    def test_full_slice_column(self):
        assert index_nbytes(table, (slice(None), 3)) == 8 * 4

    def test_bounded_slice(self):
        assert index_nbytes(table, (slice(1, 3), 0)) == 8 * 2

    def test_two_point_axes(self):
        assert index_nbytes(table, (1, 2)) == 8


def _cluster():
    return ClusterSpec(
        num_machines=1,
        workers_per_machine=2,
        network=NetworkModel(bandwidth_bytes_per_s=1e8, latency_s=1e-3),
        cost=CostModel(entry_cost_s=1e-6),
    )


def _entries():
    return [((i,), float(i % 5)) for i in range(10)]


def _prefetch_fn():
    space = DistArray.from_entries(_entries(), name="ps_sp", shape=(10,))
    space.materialize()

    def body(key, value):
        w = weights[int(value)]
        return w

    info = analyze_loop_body(body, space)
    return synthesize_prefetch(body, info, ["weights"])


class TestPrefetchManager:
    def test_bulk_cost_single_request(self):
        manager = PrefetchManager(
            _cluster(), {"weights": weights}, _prefetch_fn()
        )
        cost = manager.block_read_cost("block0", _entries())
        assert cost.num_requests == 1
        # 5 unique indices (values cycle mod 5): 40 payload bytes.
        assert cost.nbytes == 5 * 8
        assert cost.seconds > 0

    def test_bulk_beats_random_access(self):
        manager = PrefetchManager(
            _cluster(), {"weights": weights}, _prefetch_fn()
        )
        bulk = manager.block_read_cost("b", _entries())
        scattered = manager.random_access_cost_from_counts(10, 80.0)
        assert scattered.seconds > 3 * bulk.seconds

    def test_cache_skips_cpu_on_second_call(self):
        manager = PrefetchManager(
            _cluster(), {"weights": weights}, _prefetch_fn(), cache_indices=True
        )
        first = manager.block_read_cost("b", _entries())
        second = manager.block_read_cost("b", _entries())
        assert second.seconds < first.seconds
        assert second.nbytes == first.nbytes

    def test_distinct_blocks_cached_separately(self):
        manager = PrefetchManager(
            _cluster(), {"weights": weights}, _prefetch_fn(), cache_indices=True
        )
        manager.block_read_cost("b0", _entries()[:5])
        cost = manager.block_read_cost("b1", _entries()[5:])
        assert cost.num_requests == 1

    def test_constant_function_runs_once_per_block(self):
        """A constant prefetch function (LDA's ``topic_sum[:]``) is
        evaluated for one entry, not for each, and costs the same."""
        space = DistArray.from_entries(_entries(), name="ps_c", shape=(10,))
        space.materialize()

        def body(key, value):
            totals = weights[:]
            return totals

        info = analyze_loop_body(body, space)
        costs = []
        for constant in (True, False):
            prefetch = synthesize_prefetch(body, info, ["weights"])
            assert prefetch.constant
            prefetch.constant = constant
            calls, inner = [], prefetch.fn
            prefetch.fn = lambda key, value: calls.append(key) or inner(key, value)
            manager = PrefetchManager(_cluster(), {"weights": weights}, prefetch)
            costs.append(manager.block_read_cost("b", _entries()))
            assert len(calls) == (1 if constant else 10)
            assert manager.block_read_cost("empty", []).num_requests == 0
        assert costs[0] == costs[1]
        assert costs[0].nbytes == 8 * 20 and costs[0].num_requests == 1

    def test_no_arrays_is_free(self):
        manager = PrefetchManager(_cluster(), {}, None)
        cost = manager.block_read_cost("b", _entries())
        assert cost.seconds == 0.0
        assert cost.nbytes == 0.0

    def test_no_prefetch_fn_defers_to_counts(self):
        manager = PrefetchManager(_cluster(), {"weights": weights}, None)
        cost = manager.block_read_cost("b", _entries())
        assert cost.seconds == 0.0  # executor uses measured counts instead
        measured = manager.random_access_cost_from_counts(100, 800.0)
        assert measured.seconds == pytest.approx(100 * 1e-3 + 800.0 / 1e8)
