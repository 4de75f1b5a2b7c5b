"""Tests for executor traffic accounting and placement-driven costs."""

import numpy as np
import pytest

from repro.analysis.loop_info import analyze_loop_body
from repro.analysis.strategy import PlacementKind, Strategy, choose_plan
from repro.core.distarray import DistArray
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import OrionExecutor
from repro.runtime.network import NetworkModel
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel


def _cluster(**kwargs):
    defaults = dict(
        num_machines=2,
        workers_per_machine=2,
        network=NetworkModel(bandwidth_bytes_per_s=1e8, latency_s=1e-4),
        cost=CostModel(entry_cost_s=1e-6),
    )
    defaults.update(kwargs)
    return ClusterSpec(**defaults)


def _mf_executor(cluster):
    entries = [
        ((i, j), 1.0) for i in range(12) for j in range(10) if (i + j) % 2
    ]
    ratings = DistArray.from_entries(
        entries, name="tr_ratings", shape=(12, 10)
    ).materialize()
    W = DistArray.randn(3, 12, name="tr_W", seed=1).materialize()
    H = DistArray.randn(3, 10, name="tr_H", seed=2).materialize()

    def body(key, value):
        w = W[:, key[0]]
        h = H[:, key[1]]
        W[:, key[0]] = w * 0.99
        H[:, key[1]] = h * 0.99

    info = analyze_loop_body(body, ratings)
    plan = choose_plan(info)
    return OrionExecutor(body, info, plan, cluster)


class TestTrafficEvents:
    def test_events_within_epoch_horizon(self):
        executor = _mf_executor(_cluster())
        result = executor.run_epoch()
        for t_start, t_end, nbytes, _kind in result.events:
            assert t_start >= 0.0
            assert t_end >= t_start
            assert nbytes > 0
            # Events may extend slightly past the makespan (the final
            # rotation completes after the last block) but not wildly.
            assert t_end <= result.epoch_time_s * 2 + 1e-6

    def test_bytes_sum_matches_events(self):
        executor = _mf_executor(_cluster())
        result = executor.run_epoch()
        assert result.bytes_sent == pytest.approx(
            sum(event[2] for event in result.events)
        )

    def test_rotation_bytes_match_array_size(self):
        executor = _mf_executor(_cluster())
        result = executor.run_epoch()
        rotation = sum(b for _s, _e, b, k in result.events if k == "rotation")
        rotated_total = executor._rotated_bytes
        # Every block rotates once per step per worker: total rotation
        # traffic is (blocks) x (block bytes) = workers x num_time x bytes/T.
        expected = (
            executor.num_workers
            * executor.num_time
            * executor.rotated_block_bytes
        )
        assert rotation == pytest.approx(expected)
        assert rotated_total > 0

    def test_epoch_time_stable_across_epochs(self):
        executor = _mf_executor(_cluster())
        first = executor.run_epoch().epoch_time_s
        second = executor.run_epoch().epoch_time_s
        assert second == pytest.approx(first, rel=1e-6)


class TestReplicatedBroadcast:
    def test_read_only_array_broadcast_once_per_epoch(self):
        space = DistArray.from_entries(
            [((i,), float(i)) for i in range(16)], name="tr_sp", shape=(16,)
        ).materialize()
        out = DistArray.zeros(16, name="tr_out").materialize()
        table = DistArray.randn(20, 20, name="tr_table", seed=3).materialize()

        def body(key, value):
            out[key[0]] = table[0, 1] + value

        info = analyze_loop_body(body, space)
        plan = choose_plan(info)
        assert plan.placements["table"].kind is PlacementKind.REPLICATED
        executor = OrionExecutor(body, info, plan, _cluster())
        result = executor.run_epoch()
        broadcast = [e for e in result.events if e[3] == "broadcast"]
        assert len(broadcast) == 1
        assert broadcast[0][2] == pytest.approx(
            table.nbytes * _cluster().num_machines
        )


class TestHeuristicAmongCandidates:
    def test_one_d_candidate_minimizing_comm_wins(self):
        # Both dims are 1D candidates (separate arrays pinned per dim); the
        # heuristic must pick the dim that localizes the *larger* array.
        space = DistArray.from_entries(
            [((i, j), 1.0) for i in range(8) for j in range(8)],
            name="tr_sp2", shape=(8, 8),
        ).materialize()
        big = DistArray.randn(16, 8, name="tr_big", seed=4).materialize()
        small = DistArray.randn(2, 8, name="tr_small", seed=5).materialize()

        def body(key, value):
            value2 = big[0, key[0]] + small[0, key[1]]
            return value2

        info = analyze_loop_body(body, space)
        plan = choose_plan(info)
        # Read-only arrays replicate regardless; force writes to create the
        # placement pressure instead:

        def body_writes(key, value):
            big[0, key[0]] = big[0, key[0]] * 0.9
            small[0, key[1]] = small[0, key[1]] * 0.9

        info = analyze_loop_body(body_writes, space)
        plan = choose_plan(info)
        assert plan.strategy is Strategy.TWO_D
        # The larger array (big, pinned by dim 0) should be LOCAL.
        assert plan.placements["big"].kind is PlacementKind.LOCAL
        assert plan.placements["small"].kind is PlacementKind.ROTATED

    def test_extent_tiebreak_for_identical_costs(self):
        # Two 1D candidates with symmetric costs: prefer the dimension
        # with larger extent (more parallelism).
        space = DistArray.from_entries(
            [((i, j), 1.0) for i in range(4) for j in range(16)],
            name="tr_sp3", shape=(4, 16),
        ).materialize()

        def body(key, value):
            return value * 2

        info = analyze_loop_body(body, space)
        plan = choose_plan(info)
        assert plan.space_dim == 1  # extent 16 beats extent 4


class TestNumTimeClamping:
    def test_time_extent_smaller_than_workers(self):
        # 3-column iteration space, 4 workers: unordered rotation clamps
        # worker count so every step still has distinct time indices.
        entries = [((i, j), 1.0) for i in range(12) for j in range(3)]
        space = DistArray.from_entries(
            entries, name="tr_sp4", shape=(12, 3)
        ).materialize()
        A = DistArray.randn(2, 12, name="tr_A", seed=6).materialize()
        B = DistArray.randn(2, 3, name="tr_B", seed=7).materialize()

        def body(key, value):
            A[:, key[0]] = A[:, key[0]] * 0.9
            B[:, key[1]] = B[:, key[1]] * 0.9

        info = analyze_loop_body(body, space)
        plan = choose_plan(info)
        executor = OrionExecutor(
            body, info, plan, _cluster(), options=LoopOptions(validate=True)
        )
        assert executor.num_workers <= 3
        executor.run_epoch()


class TestUtilization:
    def test_utilization_in_unit_interval(self):
        executor = _mf_executor(_cluster())
        result = executor.run_epoch()
        assert 0.0 < result.utilization <= 1.0

    def test_more_workers_lower_utilization_at_fixed_size(self):
        few = _mf_executor(
            ClusterSpec(
                num_machines=1,
                workers_per_machine=2,
                network=NetworkModel(bandwidth_bytes_per_s=1e8, latency_s=1e-4),
                cost=CostModel(entry_cost_s=1e-6),
            )
        ).run_epoch()
        many = _mf_executor(
            ClusterSpec(
                num_machines=5,
                workers_per_machine=2,
                network=NetworkModel(bandwidth_bytes_per_s=1e8, latency_s=1e-4),
                cost=CostModel(entry_cost_s=1e-6),
            )
        ).run_epoch()
        # Strong scaling on a fixed tiny workload: per-worker efficiency
        # drops as overheads stop amortizing.
        assert many.utilization < few.utilization
