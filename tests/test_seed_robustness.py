"""Seed robustness: the paper-shape orderings must not be seed artifacts.

Each comparative claim asserted by the benchmarks (dep-aware ≈ serial ≪
data parallel; CM between them; STRADS ≡ Orion) is re-checked here on
miniature workloads across several seeds.  A claim that held only for one
lucky seed would be calibration theater; these tests make the shapes part
of the regression suite.
"""

import pytest

from repro.apps import MFHyper, SGDMFApp, build_sgd_mf
from repro.baselines import run_bosen, run_managed_comm, run_serial, run_strads
from repro.data import netflix_like
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

SEEDS = [1, 22, 333]
EPOCHS = 6


def _setup(seed):
    dataset = netflix_like(
        num_rows=70, num_cols=56, num_ratings=2500, seed=seed
    )
    hyper = MFHyper(rank=4, step_size=0.05)
    cluster = ClusterSpec(num_machines=4, workers_per_machine=4)
    return dataset, hyper, cluster


class TestShapeAcrossSeeds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dep_aware_beats_data_parallel(self, seed):
        dataset, hyper, cluster = _setup(seed)
        orion = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper, seed=seed
        ).run(EPOCHS)
        bosen = run_bosen(SGDMFApp(dataset, hyper), cluster, EPOCHS, seed=seed)
        assert orion.final_loss < bosen.final_loss

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dep_aware_tracks_serial(self, seed):
        dataset, hyper, cluster = _setup(seed)
        serial = run_serial(SGDMFApp(dataset, hyper), EPOCHS, seed=seed)
        orion = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper, seed=seed
        ).run(EPOCHS)
        initial = serial.meta["initial_loss"]
        progress = initial - serial.final_loss
        assert abs(orion.final_loss - serial.final_loss) < 0.5 * progress

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cm_improves_on_bosen_and_tracks_orion(self, seed):
        # The paper's robust claims: CM clearly improves on plain data
        # parallelism, and its per-iteration convergence is *similar* to
        # Orion's (Sec. 6.4 — on some workloads CM matches Orion; its cost
        # is bandwidth, not iterations).
        dataset, hyper, cluster = _setup(seed)
        app = SGDMFApp(dataset, hyper)
        bosen = run_bosen(app, cluster, EPOCHS, seed=seed)
        cm = run_managed_comm(
            app, cluster, EPOCHS, bandwidth_budget_mbps=1600, seed=seed
        )
        orion = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper, seed=seed
        ).run(EPOCHS)
        assert cm.final_loss < bosen.final_loss
        assert orion.final_loss < bosen.final_loss
        initial = bosen.meta["initial_loss"]
        progress = initial - min(orion.final_loss, cm.final_loss)
        assert abs(orion.final_loss - cm.final_loss) < 0.35 * progress
        # And CM pays for it in bandwidth.
        assert cm.traffic.total_bytes > bosen.traffic.total_bytes

    @pytest.mark.parametrize("seed", SEEDS)
    def test_strads_identical_to_orion(self, seed):
        dataset, hyper, cluster = _setup(seed)
        orion = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper, seed=seed
        ).run(3)
        strads = run_strads(
            lambda c, options: build_sgd_mf(
                dataset, cluster=c, hyper=hyper, seed=seed, options=options
            ),
            cluster,
            3,
        )
        assert strads.losses == pytest.approx(orion.losses)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unordered_vs_ordered_throughput(self, seed):
        dataset, hyper, cluster = _setup(seed)
        unordered = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper, seed=seed,
            options=LoopOptions(ordered=False),
        ).run(3)
        ordered = build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper, seed=seed,
            options=LoopOptions(ordered=True),
        ).run(3)
        assert unordered.time_per_iteration() < ordered.time_per_iteration()
