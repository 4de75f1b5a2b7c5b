"""Tests for the baseline engines (repro.baselines)."""

import numpy as np
import pytest

from repro.apps import LDAApp, LDAHyper, MFHyper, SGDMFApp, build_sgd_mf
from repro.baselines import (
    run_bosen,
    run_managed_comm,
    run_serial,
    run_strads,
    run_tensorflow_minibatch,
    shard_entries,
    strads_cluster,
)
from repro.errors import ExecutionError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.simtime import CostModel


def _mf_app(dataset, step=0.05, rank=4, adarev=False):
    return SGDMFApp(dataset, MFHyper(rank=rank, step_size=step, adarev=adarev))


class TestSerial:
    def test_loss_decreases(self, mf_small):
        history = run_serial(_mf_app(mf_small), epochs=4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_time_is_entries_times_cost(self, mf_small):
        cost = CostModel(entry_cost_s=1e-6)
        app = _mf_app(mf_small, rank=8)
        history = run_serial(app, epochs=2, cost=cost)
        expected = mf_small.num_entries * 1e-6
        assert history.records[0].epoch_time_s == pytest.approx(expected)

    def test_shuffle_each_epoch_changes_result(self, mf_small):
        fixed = run_serial(_mf_app(mf_small), epochs=2)
        shuffled = run_serial(_mf_app(mf_small), epochs=2, shuffle_each_epoch=True)
        assert fixed.final_loss != pytest.approx(shuffled.final_loss, abs=1e-12)

    def test_label(self, mf_small):
        assert run_serial(_mf_app(mf_small), epochs=1).label == "Serial sgd_mf"


class TestSharding:
    def test_all_entries_assigned_once(self, mf_small):
        shards = shard_entries(mf_small.entries, 7, seed=0)
        total = sum(len(s) for s in shards)
        assert total == mf_small.num_entries

    def test_shards_balanced(self, mf_small):
        shards = shard_entries(mf_small.entries, 7, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_seed_determinism(self, mf_small):
        a = shard_entries(mf_small.entries, 4, seed=1)
        b = shard_entries(mf_small.entries, 4, seed=1)
        assert a == b


class TestBosen:
    def test_converges_but_slower_than_serial(self, mf_small, cluster_mid):
        app = _mf_app(mf_small)
        epochs = 6
        serial = run_serial(app, epochs)
        bosen = run_bosen(app, cluster_mid, epochs)
        assert bosen.final_loss < bosen.meta["initial_loss"]
        # Dependence violation costs per-iteration progress (paper Fig. 9b).
        assert bosen.final_loss > serial.final_loss

    def test_more_workers_worse_per_iteration(self, mf_small):
        app = _mf_app(mf_small)
        few = run_bosen(app, ClusterSpec(num_machines=1, workers_per_machine=2), 4)
        many = run_bosen(app, ClusterSpec(num_machines=8, workers_per_machine=8), 4)
        assert many.final_loss > few.final_loss

    def test_more_syncs_help_convergence(self, mf_small, cluster_mid):
        app = _mf_app(mf_small)
        once = run_bosen(app, cluster_mid, 4, syncs_per_epoch=1)
        often = run_bosen(app, cluster_mid, 4, syncs_per_epoch=8)
        assert often.final_loss < once.final_loss

    def test_sync_traffic_recorded(self, mf_small, cluster_mid):
        history = run_bosen(_mf_app(mf_small), cluster_mid, 2)
        assert history.traffic.bytes_by_kind().get("sync", 0) > 0

    def test_works_for_lda(self, corpus_small, cluster_tiny):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        history = run_bosen(app, cluster_tiny, 3)
        assert history.final_loss < history.meta["initial_loss"]


class TestManagedComm:
    def test_between_bosen_and_serial(self, mf_small, cluster_mid):
        app = _mf_app(mf_small)
        epochs = 5
        bosen = run_bosen(app, cluster_mid, epochs)
        cm = run_managed_comm(
            app, cluster_mid, epochs, bandwidth_budget_mbps=1600
        )
        assert cm.final_loss < bosen.final_loss

    def test_uses_more_bandwidth_than_bosen(self, mf_small, cluster_mid):
        app = _mf_app(mf_small)
        bosen = run_bosen(app, cluster_mid, 3)
        cm = run_managed_comm(app, cluster_mid, 3, bandwidth_budget_mbps=1600)
        assert cm.traffic.total_bytes > bosen.traffic.total_bytes

    def test_cpu_overhead_slows_epochs(self, mf_small, cluster_mid):
        app = _mf_app(mf_small)
        cheap = run_managed_comm(
            app, cluster_mid, 2, 1600, cpu_overhead_s_per_mb=0.0
        )
        costly = run_managed_comm(
            app, cluster_mid, 2, 1600, cpu_overhead_s_per_mb=1.0
        )
        assert costly.total_time_s > cheap.total_time_s

    def test_managed_comm_traffic_kind(self, mf_small, cluster_mid):
        cm = run_managed_comm(_mf_app(mf_small), cluster_mid, 2, 1600)
        assert "managed_comm" in cm.traffic.bytes_by_kind()


class TestStrads:
    def test_matches_orion_convergence(self, mf_small, cluster_tiny):
        epochs = 4
        hyper = MFHyper(rank=4, step_size=0.05)
        orion = build_sgd_mf(mf_small, cluster=cluster_tiny, hyper=hyper).run(epochs)
        strads = run_strads(
            lambda c, options: build_sgd_mf(
                mf_small, cluster=c, hyper=hyper, options=options
            ),
            cluster_tiny,
            epochs,
        )
        assert strads.losses == pytest.approx(orion.losses)

    def test_faster_when_speed_factor_below_one(self, mf_small, cluster_tiny):
        hyper = MFHyper(rank=4)
        orion = build_sgd_mf(mf_small, cluster=cluster_tiny, hyper=hyper).run(3)
        strads = run_strads(
            lambda c, options: build_sgd_mf(
                mf_small, cluster=c, hyper=hyper, options=options
            ),
            cluster_tiny,
            3,
            speed_factor=0.5,
        )
        assert strads.total_time_s < orion.total_time_s

    def test_strads_cluster_zero_intra(self, cluster_tiny):
        tuned = strads_cluster(cluster_tiny, 0.5)
        assert tuned.network.intra_machine_factor == 0.0
        assert tuned.cost.overhead_factor == pytest.approx(0.5)

    def test_label(self, mf_small, cluster_tiny):
        strads = run_strads(
            lambda c, options: build_sgd_mf(
                mf_small, cluster=c, options=options
            ),
            cluster_tiny,
            1,
        )
        assert strads.label.startswith("STRADS")


class TestTensorFlowLike:
    def test_converges_slower_per_iteration(self, mf_small):
        app = _mf_app(mf_small)
        cluster = ClusterSpec.single_machine(8)
        epochs = 5
        serial = run_serial(app, epochs)
        tf = run_tensorflow_minibatch(
            app, cluster, epochs, batch_size=mf_small.num_entries // 4
        )
        assert tf.final_loss > serial.final_loss

    def test_still_makes_progress(self, mf_small):
        app = _mf_app(mf_small)
        cluster = ClusterSpec.single_machine(8)
        tf = run_tensorflow_minibatch(
            app, cluster, 5, batch_size=100, step_scale=4.0
        )
        assert tf.final_loss < tf.meta["initial_loss"]

    def test_small_batches_slower_per_iteration(self, mf_small):
        app = _mf_app(mf_small)
        cluster = ClusterSpec.single_machine(8)
        big = run_tensorflow_minibatch(
            app, cluster, 2, batch_size=mf_small.num_entries // 2
        )
        small = run_tensorflow_minibatch(app, cluster, 2, batch_size=20)
        assert small.time_per_iteration() > big.time_per_iteration()

    def test_oom_guard(self, mf_small):
        app = _mf_app(mf_small)
        cluster = ClusterSpec.single_machine(8)
        with pytest.raises(ExecutionError, match="memory"):
            run_tensorflow_minibatch(
                app, cluster, 1, batch_size=10_000, oom_batch_entries=5_000
            )
