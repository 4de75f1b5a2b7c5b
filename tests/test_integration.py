"""Cross-engine integration tests: the paper's comparative claims in miniature.

Each test runs two or more engines on the same workload and asserts the
*shape* the paper reports — who converges faster per iteration, who wins
over time, where throughput relations fall — not absolute numbers.
"""

import pytest

from repro.apps import (
    LDAApp,
    LDAHyper,
    MFHyper,
    SGDMFApp,
    build_lda,
    build_sgd_mf,
)
from repro.apps.sgd_mf import mf_cost_model
from repro.baselines import (
    run_bosen,
    run_managed_comm,
    run_serial,
    run_strads,
    run_tensorflow_minibatch,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def mf_setup(request):
    from repro.data import netflix_like

    dataset = netflix_like(num_rows=80, num_cols=64, num_ratings=3000, seed=31)
    hyper = MFHyper(rank=4, step_size=0.05)
    cost = mf_cost_model(hyper)
    cluster = ClusterSpec(num_machines=4, workers_per_machine=4, cost=cost)
    return dataset, hyper, cluster


class TestFig9bShape:
    """Serial ≈ dependence-aware ≪ data parallelism, per iteration."""

    def test_orion_tracks_serial_per_iteration(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 6
        serial = run_serial(SGDMFApp(dataset, hyper), epochs)
        orion = build_sgd_mf(dataset, cluster=cluster, hyper=hyper).run(epochs)
        # Dependence-aware parallel execution is a serial execution in a
        # different order: same ballpark convergence (within 35%).
        assert orion.final_loss < serial.final_loss * 1.35
        assert orion.final_loss < orion.meta["initial_loss"] * 0.7

    def test_data_parallel_much_slower_per_iteration(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 6
        orion = build_sgd_mf(dataset, cluster=cluster, hyper=hyper).run(epochs)
        bosen = run_bosen(SGDMFApp(dataset, hyper), cluster, epochs)
        initial = bosen.meta["initial_loss"]
        orion_progress = initial - orion.final_loss
        bosen_progress = initial - bosen.final_loss
        # At 16 simulated workers the gap is already > 30%; the paper's 384
        # workers widen it much further (bench_fig09b runs that scale).
        assert orion_progress > 1.3 * bosen_progress

    def test_ordering_relaxation_negligible_for_convergence(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 5
        unordered = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper,
            options=LoopOptions(ordered=False),
        ).run(epochs)
        ordered = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper,
            options=LoopOptions(ordered=True),
        ).run(epochs)
        # Fig. 9b: ordering makes a negligible convergence difference.
        assert unordered.final_loss == pytest.approx(
            ordered.final_loss, rel=0.25
        )


class TestTable3Shape:
    """Unordered 2D beats ordered 2D on time per iteration (≥ 2x)."""

    def test_unordered_speedup(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 3
        unordered = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper,
            options=LoopOptions(ordered=False),
        ).run(epochs)
        ordered = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper,
            options=LoopOptions(ordered=True),
        ).run(epochs)
        speedup = ordered.time_per_iteration() / unordered.time_per_iteration()
        assert speedup > 1.5


class TestFig10Shape:
    """Orion vs Bösen (+CM): CM approaches Orion at a bandwidth price."""

    def test_cm_between_bosen_and_orion(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 5
        app = SGDMFApp(dataset, hyper)
        orion = build_sgd_mf(dataset, cluster=cluster, hyper=hyper).run(epochs)
        bosen = run_bosen(app, cluster, epochs)
        cm = run_managed_comm(app, cluster, epochs, bandwidth_budget_mbps=1600)
        assert orion.final_loss < cm.final_loss < bosen.final_loss

    def test_cm_bandwidth_exceeds_orion(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 3
        orion = build_sgd_mf(dataset, cluster=cluster, hyper=hyper).run(epochs)
        cm = run_managed_comm(
            SGDMFApp(dataset, hyper), cluster, epochs, bandwidth_budget_mbps=1600
        )
        assert cm.traffic.total_bytes > orion.traffic.total_bytes


class TestFig11Shape:
    """Orion matches STRADS per-iteration; STRADS faster per second on
    marshalling-heavy apps."""

    def test_identical_per_iteration_convergence(self, mf_setup):
        dataset, hyper, cluster = mf_setup
        epochs = 4
        orion = build_sgd_mf(dataset, cluster=cluster, hyper=hyper).run(epochs)
        strads = run_strads(
            lambda c, options: build_sgd_mf(
                dataset, cluster=c, hyper=hyper, options=options
            ),
            cluster,
            epochs,
        )
        assert strads.losses == pytest.approx(orion.losses)

    def test_lda_strads_throughput_advantage(self, corpus_small):
        from repro.apps.lda import lda_cost_model

        hyper = LDAHyper(num_topics=4)
        # A compute-dominated regime (the paper's corpora are millions of
        # documents): per-entry cost large relative to fixed sync costs.
        cluster = ClusterSpec(
            num_machines=2,
            workers_per_machine=2,
            cost=lda_cost_model(hyper, base_entry_cost=5e-5),
        )
        epochs = 3
        orion = build_lda(corpus_small, cluster=cluster, hyper=hyper).run(epochs)
        strads = run_strads(
            lambda c, options: build_lda(
                corpus_small, cluster=c, hyper=hyper, options=options
            ),
            cluster,
            epochs,
            speed_factor=0.4,
        )
        ratio = orion.time_per_iteration() / strads.time_per_iteration()
        assert ratio > 1.5  # paper: 1.8x (ClueWeb) to 4x (NYTimes)


class TestFig13Shape:
    """Orion vs TensorFlow-style mini-batching."""

    def test_orion_converges_much_faster(self, mf_setup):
        dataset, hyper, _cluster = mf_setup
        single = ClusterSpec.single_machine(16, cost=mf_cost_model(hyper))
        epochs = 5
        orion = build_sgd_mf(dataset, cluster=single, hyper=hyper).run(epochs)
        tf = run_tensorflow_minibatch(
            SGDMFApp(dataset, hyper),
            single,
            epochs,
            batch_size=dataset.num_entries // 4,
        )
        initial = tf.meta["initial_loss"]
        assert (initial - orion.final_loss) > 3 * (initial - tf.final_loss)

    def test_tf_slower_per_iteration_than_orion(self, mf_setup):
        dataset, hyper, _cluster = mf_setup
        single = ClusterSpec.single_machine(16, cost=mf_cost_model(hyper))
        orion = build_sgd_mf(dataset, cluster=single, hyper=hyper).run(2)
        tf = run_tensorflow_minibatch(
            SGDMFApp(dataset, hyper),
            single,
            2,
            batch_size=dataset.num_entries // 4,
        )
        assert tf.time_per_iteration() > orion.time_per_iteration()


class TestScalingShape:
    """Fig. 9a: Orion beats serial from a few workers, keeps speeding up."""

    def test_speedup_grows_with_workers(self, mf_setup):
        from repro.runtime.simtime import CostModel

        dataset, hyper, _cluster = mf_setup
        # Compute-dominated regime (the paper's Netflix runs use rank 1000).
        cost = CostModel(entry_cost_s=2e-5)
        times = {}
        for workers in (1, 4, 16):
            cluster = ClusterSpec(
                num_machines=max(1, workers // 4),
                workers_per_machine=min(workers, 4),
                cost=cost,
            )
            program = build_sgd_mf(dataset, cluster=cluster, hyper=hyper)
            times[workers] = program.run(3).time_per_iteration()
        assert times[4] < times[1]
        assert times[16] < times[4]

    def test_orion_beats_serial_at_four_workers(self, mf_setup):
        from repro.runtime.simtime import CostModel

        dataset, hyper, _cluster = mf_setup
        cost = CostModel(entry_cost_s=2e-5)
        serial = run_serial(SGDMFApp(dataset, hyper), 3, cost=cost)
        # Orion pays an abstraction overhead (paper Fig. 9a) yet wins with
        # a few workers.
        cluster = ClusterSpec(
            num_machines=1,
            workers_per_machine=4,
            cost=cost.with_overhead(1.3),
        )
        orion = build_sgd_mf(dataset, cluster=cluster, hyper=hyper).run(3)
        assert orion.time_per_iteration() < serial.time_per_iteration()
