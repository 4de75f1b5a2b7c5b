"""Tests for the threaded execution backend (``backend="threaded"``).

A dependence-preserving schedule's same-step blocks touch disjoint
elements, so running them on a thread pool must produce *bitwise identical*
results to the serial linearization — the strongest possible witness that
the claimed concurrency is real.  Buffered plans relax dependences on
purpose: there the pool's blocks read step-start state and the flushes
apply in task order afterwards, bitwise what ``multiprocess`` computes.
"""

import numpy as np
import pytest

from repro.apps import MFHyper, build_sgd_mf, build_slr
from repro.apps.slr import SLRHyper
from repro.data import netflix_like, sparse_classification
from repro.errors import ExecutionError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=48, num_cols=40, num_ratings=1200, seed=41)


@pytest.fixture
def cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


class TestThreadedMF:
    def test_bitwise_identical_to_serial(self, mf_data, cluster):
        hyper = MFHyper(rank=4, step_size=0.05)
        serial = build_sgd_mf(
            mf_data, cluster=cluster, hyper=hyper, seed=3,
            options=LoopOptions(backend="simulated"),
        )
        threaded = build_sgd_mf(
            mf_data, cluster=cluster, hyper=hyper, seed=3,
            options=LoopOptions(backend="threaded"),
        )
        serial.run(3)
        threaded.run(3)
        assert np.array_equal(
            serial.arrays["W"].values, threaded.arrays["W"].values
        )
        assert np.array_equal(
            serial.arrays["H"].values, threaded.arrays["H"].values
        )

    def test_threaded_passes_validation(self, mf_data, cluster):
        program = build_sgd_mf(
            mf_data,
            cluster=cluster,
            hyper=MFHyper(rank=4),
            options=LoopOptions(backend="threaded", validate=True),
        )
        program.run(2)  # raises on any serializability violation

    def test_threaded_ordered_schedule(self, mf_data, cluster):
        program = build_sgd_mf(
            mf_data,
            cluster=cluster,
            hyper=MFHyper(rank=4),
            options=LoopOptions(
                ordered=True,
                backend="threaded",
                validate=True,
            ),
        )
        history = program.run(2)
        assert len(history.records) == 2

    def test_virtual_time_unaffected_by_backend(self, mf_data, cluster):
        hyper = MFHyper(rank=4)
        t_serial = build_sgd_mf(
            mf_data, cluster=cluster, hyper=hyper,
            options=LoopOptions(backend="simulated"),
        ).run(2).total_time_s
        t_threads = build_sgd_mf(
            mf_data, cluster=cluster, hyper=hyper,
            options=LoopOptions(backend="threaded"),
        ).run(2).total_time_s
        assert t_serial == pytest.approx(t_threads)


class TestThreadedBuffered:
    def test_slr_buffered_writes_threaded(self, cluster):
        dataset = sparse_classification(
            num_samples=120, num_features=60, nnz_per_sample=5, seed=43
        )
        program = build_slr(
            dataset,
            cluster=cluster,
            hyper=SLRHyper(step_size=0.2),
            options=LoopOptions(backend="threaded"),
        )
        history = program.run(3)
        assert history.final_loss < history.meta["initial_loss"]


    @pytest.mark.parametrize("adarev", [False, True], ids=["plain", "adarev"])
    def test_deterministic_and_bitwise_equal_to_multiprocess(self, adarev):
        """A block-end flush is a read-UDF-write per key, so flushing from
        the pool threads raced (lost updates; AdaRev's ``n2`` too) — on
        1500-sample blocks four runs gave four answers.  The pool now only
        takes the pending writes and the calling thread applies them in
        task order, which is the multiprocess master's parameter service:
        same-step blocks read step-start state, bit for bit."""
        dataset = sparse_classification(
            num_samples=6000, num_features=800, nnz_per_sample=12, seed=3
        )

        def weights(backend):
            program = build_slr(
                dataset,
                cluster=ClusterSpec(num_machines=1, workers_per_machine=4),
                hyper=SLRHyper(step_size=0.02, adarev=adarev),
                options=LoopOptions(backend=backend),
            )
            with program:
                program.train_loop.run(3)
            return program.arrays["weights"].values.copy()

        first = weights("threaded")
        assert np.isfinite(first).all() and first.any()
        assert np.array_equal(first, weights("threaded"))
        assert np.array_equal(first, weights("multiprocess"))


class TestBadMode:
    def test_unknown_backend_rejected(self, mf_data, cluster):
        with pytest.raises(ExecutionError, match="backend"):
            build_sgd_mf(
                mf_data,
                cluster=cluster,
                hyper=MFHyper(rank=4),
                options=LoopOptions(backend="gpus"),
            )
