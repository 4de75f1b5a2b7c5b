"""Tests for the real multiprocess runtime (repro.runtime.distributed).

The headline property: running a compiled plan on forked OS processes with
IPC-mediated partition rotation produces *bitwise identical* parameters to
the simulated executor's linearization — the plans are truly executable by
a distributed runtime.  Buffered plans promise less, and
:func:`stepped_replay` states what they do promise.
"""

import numpy as np
import pytest

from repro.apps import MFHyper, build_sgd_mf, build_slr
from repro.apps.slr import SLRHyper
from repro.data import netflix_like, sparse_classification
from repro.errors import ExecutionError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.distributed import MultiprocessRunner
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=36, num_cols=30, num_ratings=700, seed=61)


@pytest.fixture
def cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def stepped_replay(loop, epochs):
    """The multiprocess master's stepped epochs, in this process.  Each
    block runs as a forked worker runs it (alone, counting nothing, its
    buffered writes taken rather than flushed), so a step's blocks all
    read step-start state; then the flushes apply in task order."""
    executor = loop.executor
    for _ in range(epochs):
        for step_tasks in executor.steps:
            records = [
                record
                for task in step_tasks
                for record in executor.run_blocks(
                    [task], frozenset(), flush_local=False
                )
            ]
            executor.apply_flushes(records)


def _mf_programs(mf_data, cluster, options=None):
    hyper = MFHyper(rank=4, step_size=0.05)
    simulated = build_sgd_mf(
        mf_data, cluster=cluster, hyper=hyper, seed=7, options=options
    )
    distributed = build_sgd_mf(
        mf_data, cluster=cluster, hyper=hyper, seed=7, options=options
    )
    return simulated, distributed


class TestBitwiseEquivalence:
    def test_unordered_2d(self, mf_data, cluster):
        simulated, distributed = _mf_programs(mf_data, cluster)
        simulated.run(3)
        with MultiprocessRunner(distributed.train_loop) as runner:
            for _ in range(3):
                runner.run_epoch()
        assert np.array_equal(
            simulated.arrays["W"].values, distributed.arrays["W"].values
        )
        assert np.array_equal(
            simulated.arrays["H"].values, distributed.arrays["H"].values
        )

    def test_ordered_2d(self, mf_data, cluster):
        simulated, distributed = _mf_programs(
            mf_data, cluster, LoopOptions(ordered=True)
        )
        simulated.run(2)
        with MultiprocessRunner(distributed.train_loop) as runner:
            for _ in range(2):
                runner.run_epoch()
        assert np.array_equal(
            simulated.arrays["W"].values, distributed.arrays["W"].values
        )

    def test_loss_progresses(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        initial = distributed.loss_fn()
        with MultiprocessRunner(distributed.train_loop) as runner:
            for _ in range(4):
                runner.run_epoch()
        assert distributed.loss_fn() < initial


class TestProtocol:
    def test_block_count(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        executor = distributed.train_loop.executor
        with MultiprocessRunner(distributed.train_loop) as runner:
            blocks = runner.run_epoch()
        assert blocks == executor.num_workers * executor.num_time

    def test_reusable_across_epochs(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        runner = MultiprocessRunner(distributed.train_loop)
        try:
            first = distributed.loss_fn()
            runner.run_epoch()
            second = distributed.loss_fn()
            runner.run_epoch()
            third = distributed.loss_fn()
        finally:
            runner.close()
        assert third < second < first

    def test_close_is_idempotent(self, mf_data, cluster):
        _sim, distributed = _mf_programs(mf_data, cluster)
        runner = MultiprocessRunner(distributed.train_loop)
        runner.run_epoch()
        runner.close()
        runner.close()


class TestValidationOnRealProcesses:
    """``validate=True`` is honoured on multiprocess: workers ship their
    access records in the task records and the master runs the simulated
    backend's serializability check over them."""

    def test_clean_plan_is_validated_every_epoch(self, mf_data, cluster):
        from repro.obs import Observability

        obs = Observability.enabled()
        with build_sgd_mf(
            mf_data, cluster=cluster, hyper=MFHyper(rank=4), seed=3,
            options=LoopOptions(
                backend="multiprocess", validate=True, obs=obs
            ),
        ) as program:
            program.run(2)
        validated = obs.metrics.counter("serializability_validations_total")
        assert validated.value == 2

    def test_bogus_plan_caught(self, cluster):
        # Claim 1D over dim 0 while the body writes a column keyed by
        # dim 1: same-step workers then write overlapping H columns.
        from repro.analysis.loop_info import analyze_loop_body
        from repro.analysis.strategy import Plan, Strategy, choose_plan
        from repro.api import ParallelLoop
        from repro.core.distarray import DistArray
        from repro.runtime.executor import OrionExecutor

        entries = [((i, j), 1.0) for i in range(8) for j in range(8)]
        space = DistArray.from_entries(
            entries, name="mp_bogus", shape=(8, 8)
        ).materialize()
        H = DistArray.randn(3, 8, name="mp_bogus_H", seed=3).materialize()

        def body(key, value):
            H[:, key[1]] = H[:, key[1]] + value

        info = analyze_loop_body(body, space)
        honest = choose_plan(info)
        bogus = Plan(
            strategy=Strategy.ONE_D,
            ordered=False,
            space_dim=0,
            placements=honest.placements,
        )
        options = LoopOptions(validate=True, backend="multiprocess")
        executor = OrionExecutor(body, info, bogus, cluster, options=options)
        with ParallelLoop(None, body, info, bogus, executor) as loop:
            with pytest.raises(ExecutionError, match="serializability"):
                loop.run()


class TestParameterServerPlans:
    """Buffered / server-array plans run with the master as a real
    parameter server: prefetched values ship with each block, buffered
    writes come back as flush messages and are applied through their UDFs."""

    def test_slr_trains_distributed(self, cluster):
        dataset = sparse_classification(
            num_samples=160, num_features=90, nnz_per_sample=5, seed=63
        )
        program = build_slr(dataset, cluster=cluster, hyper=SLRHyper(0.2))
        initial = program.loss_fn()
        with MultiprocessRunner(program.train_loop) as runner:
            for _ in range(3):
                runner.run_epoch()
        assert program.loss_fn() < initial

    def test_lda_counts_consistent_distributed(self, cluster):
        from repro.apps import LDAHyper, build_lda
        from repro.data import lda_corpus

        corpus = lda_corpus(
            num_docs=36, vocab_size=40, num_topics=4, doc_length=12, seed=65
        )
        program = build_lda(corpus, cluster=cluster, hyper=LDAHyper(num_topics=4))
        with MultiprocessRunner(program.train_loop) as runner:
            runner.run_epoch()
        assert program.arrays["doc_topic"].values.sum() == corpus.total_tokens
        assert program.arrays["word_topic"].values.sum() == corpus.total_tokens
        assert program.arrays["topic_sum"].values.sum() == corpus.total_tokens

    def test_mlp_accumulators_collected(self, cluster):
        from repro.apps.mlp import MLPHyper, build_orion_program, make_blobs

        entries = make_blobs(
            num_samples=120, num_features=5, num_classes=3, seed=67
        )
        program = build_orion_program(
            entries, 5, 3, cluster=cluster,
            hyper=MLPHyper(step_size=0.05, max_delay=8), seed=2,
        )
        initial = program.loss_fn()
        # The distributed runtime synchronizes buffers once per block (the
        # paper's once-per-partition bound), i.e. coarser than max_delay,
        # so convergence takes a few passes of whole-block staleness.
        with MultiprocessRunner(program.train_loop) as runner:
            for _ in range(4):
                runner.run_epoch()
        assert program.loss_fn() < initial
        assert program.ctx.get_aggregated_value("train_loss") > 0.0

    def test_unimodular_plan_executes_bitwise(self, cluster):
        """Unimodular plans run stepped: written arrays are server-placed
        dense (in-place shared-memory writes).  Time partitions can lump
        several transformed time values, so the master linearizes such
        steps task-by-task — reproducing the simulated linearization
        bitwise."""
        from repro.analysis.loop_info import analyze_loop_body
        from repro.analysis.strategy import choose_plan
        from repro.api import ParallelLoop
        from repro.core.distarray import DistArray
        from repro.runtime.executor import OrionExecutor

        def build():
            entries = [((i, j), 1.0) for i in range(6) for j in range(6)]
            space = DistArray.from_entries(
                entries, name="mp_uni", shape=(6, 6)
            ).materialize()
            grid = DistArray.randn(6, 6, name="mp_grid", seed=9).materialize()

            def body(key, value):
                left = grid[key[0], key[1] - 1]
                diag = grid[key[0] - 1, key[1] - 1]
                grid[key[0], key[1]] = 0.5 * (left + diag)

            info = analyze_loop_body(body, space, ordered=True)
            plan = choose_plan(info)
            executor = OrionExecutor(body, info, plan, cluster)
            return grid, ParallelLoop(None, body, info, plan, executor)

        grid_sim, loop_sim = build()
        grid_mp, loop_mp = build()
        assert loop_sim.plan.transform is not None
        loop_sim.run(2)
        with MultiprocessRunner(loop_mp) as runner:
            for _ in range(2):
                runner.run_epoch()
        assert np.array_equal(grid_sim.values, grid_mp.values)


class TestSteppedReplay:
    """Buffered plans are not bitwise the simulated linearization: there
    a block sees the flushes of the blocks before it in its step.  What
    they promise is :func:`stepped_replay`, bit for bit and run to run."""

    @pytest.mark.parametrize("adarev", [False, True], ids=["plain", "adarev"])
    def test_multiprocess_equals_replay_not_simulated(self, adarev):
        """A block-end flush is a read-UDF-write per key (AdaRev's ``n2``
        too), so any race or reordering in the parameter server shows on
        1500-sample blocks."""
        dataset = sparse_classification(
            num_samples=6000, num_features=800, nnz_per_sample=12, seed=3
        )

        def weights(backend, replay=False):
            program = build_slr(
                dataset,
                cluster=ClusterSpec(num_machines=1, workers_per_machine=4),
                hyper=SLRHyper(step_size=0.02, adarev=adarev),
                options=LoopOptions(backend=backend),
            )
            with program:
                if replay:
                    stepped_replay(program.train_loop, 3)
                else:
                    program.train_loop.run(3)
            return program.arrays["weights"].values.copy()

        replay = weights("simulated", replay=True)
        assert np.isfinite(replay).all() and replay.any()
        first = weights("multiprocess")
        assert np.array_equal(first, weights("multiprocess"))
        assert np.array_equal(first, replay)
        assert not np.array_equal(replay, weights("simulated"))
