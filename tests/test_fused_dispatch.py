"""The dispatch unit: a schedule step's blocks through one kernel call.

The block is what the plan schedules; what one kernel call executes is
the whole step when the synthesized kernel carries no per-worker state
(``SynthResult.fusable`` — the vector tier).  Fusing must not show: the
fused call, one call per block and the scalar body leave bit-identical
state and identical per-block ``TaskRecord``s, validation and server
accounting still see every block separately, and a silent fall-back to
per-block dispatch fails the call-count guard below.
"""

import dataclasses
import multiprocessing
from collections import Counter

import numpy as np
import pytest

from repro.analysis.strategy import Placement, PlacementKind, Strategy
from repro.apps import build_glove, build_sgd_mf, cooccurrence_corpus
from repro.apps.sgd_mf import MFHyper
from repro.data.synthetic import netflix_like
from repro.errors import ExecutionError
from repro.obs.observability import Observability
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import OrionExecutor
from repro.runtime.options import LoopOptions

RECORD_FIELDS = ("entries", "server_reads", "server_read_bytes", "flush_bytes")


def _cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _build(app, ordered=False, **opts):
    options = LoopOptions(**opts)
    if app == "glove":
        data = cooccurrence_corpus(vocab_size=30, num_tokens=900, seed=6)
        return build_glove(data, cluster=_cluster(), options=options)
    # Sparse enough that depth 4 (4 workers x 16 time slices over 14
    # columns' worth of ratings) leaves some blocks empty.
    data = netflix_like(num_rows=24, num_cols=20, num_ratings=90, seed=5)
    return build_sgd_mf(
        data, cluster=_cluster(), hyper=MFHyper(adarev=app == "mf-adarev"),
        options=options.merged_with(ordered=ordered),
    )


def _executor(program, plan_kind):
    """The program's own executor, or one over the same body with the
    plan re-labelled 1D (no buffers, so the plan refuses batching and the
    unit loops over the scalar body — the non-fused arm of run_blocks)."""
    loop = program.train_loop
    if plan_kind != "1d":
        return loop.executor
    plan = dataclasses.replace(
        loop.plan, strategy=Strategy.ONE_D, ordered=False, time_dim=None
    )
    return OrionExecutor(
        loop.body, loop.info, plan, _cluster(), options=loop.options
    )


def _run(program, plan_kind, mode, epochs=2):
    """Drive ``run_blocks`` directly: the whole step at once (fused when
    the kernel allows), one call per block, or the scalar body."""
    executor = _executor(program, plan_kind)
    server_ids = executor._server_ids
    records = []
    for _ in range(epochs):
        for step in executor.steps:
            if mode == "per-block":
                for task in step:
                    records += executor.run_blocks([task], server_ids)
            else:
                records += executor.run_blocks(
                    step, server_ids, force_scalar=mode == "scalar"
                )
    state = {
        name: array.values.copy()
        for name, array in program.arrays.items() if not array.sparse
    }
    return executor, records, state


@pytest.mark.parametrize("depth", [1, 4])
@pytest.mark.parametrize("plan_kind", ["unordered", "ordered", "1d"])
@pytest.mark.parametrize("app", ["mf", "mf-adarev", "glove"])
def test_fused_equals_per_block_equals_scalar(app, plan_kind, depth):
    runs = {}
    for mode in ("fused", "per-block", "scalar"):
        with _build(
            app, ordered=plan_kind == "ordered", pipeline_depth=depth,
            validate=True,
        ) as program:
            runs[mode] = _run(program, plan_kind, mode)
    executor, ref_records, ref_state = runs["scalar"]
    batched = plan_kind != "1d"
    assert executor.kernel_path == batched
    if app != "glove" and depth == 4 and batched:
        assert any(record.entries == 0 for record in ref_records)
    for mode in ("fused", "per-block"):
        _, records, state = runs[mode]
        assert state.keys() == ref_state.keys()
        for name in ref_state:
            assert np.array_equal(state[name], ref_state[name]), (mode, name)
        assert [r.task for r in records] == [r.task for r in ref_records]
        for got, ref in zip(records, ref_records):
            for name in RECORD_FIELDS:
                assert getattr(got, name) == getattr(ref, name), (mode, name)
            assert Counter(got.accesses) == Counter(ref.accesses), mode
    # One kernel call per step when fused, one per block otherwise.
    steps = 2 * len(executor.steps)
    calls = {mode: sum(r.kernel_calls for r in runs[mode][1]) for mode in runs}
    assert calls == {
        "fused": steps if batched else 0,
        "per-block": len(ref_records) if batched else 0,
        "scalar": 0,
    }


class TestValidationAndServerAccounting:
    def test_bogus_1d_plan_still_caught(self):
        """A step handed to run_blocks whole is still validated block
        against block: relabel MF's 2D plan 1D over the rows and
        same-step workers write overlapping H columns."""
        with _build("mf", validate=True) as program:
            executor = _executor(program, "1d")
            with pytest.raises(ExecutionError, match="serializability violation"):
                executor.run_epoch()

    def test_bogus_2d_plan_caught_on_the_fused_path(self):
        """Both plan dimensions on the rows: the kernel still batches
        (and fuses), H columns are shared by same-step blocks, and the
        per-block access records recovered from the fused call's offsets
        are what convicts the plan."""
        with _build("mf", validate=True) as program:
            loop = program.train_loop
            plan = dataclasses.replace(loop.plan, time_dim=loop.plan.space_dim)
            executor = OrionExecutor(
                loop.body, loop.info, plan, _cluster(), options=loop.options
            )
            assert executor.kernel_path and executor.synth.fusable
            with pytest.raises(ExecutionError, match="serializability violation"):
                executor.run_epoch()

    @pytest.mark.parametrize("validate", [False, True])
    def test_server_placed_reads_are_counted_per_block(self, validate):
        """Serve H from the parameter server (no prefetch: every read is
        counted by the broker on the scalar path, declared per site by
        the kernel): the fused call splits each site's count and bytes
        at the block boundaries."""
        runs = {}
        for kernel in ("auto", "off"):
            with _build(
                "mf", kernel=kernel, prefetch="none", validate=validate,
                pipeline_depth=2,
            ) as program:
                loop = program.train_loop
                placements = dict(loop.plan.placements)
                placements["H"] = Placement(PlacementKind.SERVER)
                plan = dataclasses.replace(loop.plan, placements=placements)
                executor = OrionExecutor(
                    loop.body, loop.info, plan, _cluster(),
                    options=loop.options,
                )
                records = [
                    record
                    for step in executor.steps
                    for record in executor.run_blocks(
                        step, executor._server_ids
                    )
                ]
                result = executor.run_epoch()
                runs[kernel] = (executor.kernel_tier, records, result)
        assert runs["auto"][0] == "synth:vector"
        assert runs["off"][0] == "scalar"
        rank = MFHyper().rank
        for got, ref in zip(runs["auto"][1], runs["off"][1]):
            assert got.server_reads == ref.server_reads == ref.entries
            assert got.server_read_bytes == ref.server_read_bytes \
                == 8.0 * rank * ref.entries
            assert Counter(got.accesses) == Counter(ref.accesses)
            assert bool(ref.accesses) == (validate and ref.entries > 0)
        assert any(record.server_reads for record in runs["off"][1])
        for name in ("epoch_time_s", "bytes_sent", "utilization", "events"):
            assert getattr(runs["auto"][2], name) == \
                getattr(runs["off"][2], name)


def test_equivalence_check_compares_every_block_of_the_fused_unit():
    """The self-check runs the first non-empty *unit* both ways and
    compares each block's record, not just the unit's first."""
    with _build("mf", equivalence_check=True) as program:
        executor = program.train_loop.executor
        kernel = executor.kernel

        def skewed(block, kctx):
            kernel(block, kctx)
            assert len(kctx.records) > 1
            kctx.records[-1].server_reads += 1

        executor.kernel = skewed
        with pytest.raises(
            ExecutionError, match=r"equivalence check failed.*server_reads"
        ):
            program.train_loop.run(1)


class TestDispatchCount:
    """The paper-shaped configuration in miniature (12x2 workers, depth
    4): how many times the kernel is entered per epoch."""

    @staticmethod
    def _program(backend, obs=None):
        data = netflix_like(
            num_rows=480, num_cols=384, num_ratings=6000, seed=5
        )
        return build_sgd_mf(
            data,
            cluster=ClusterSpec(num_machines=12, workers_per_machine=2),
            options=LoopOptions(backend=backend, pipeline_depth=4, obs=obs),
        )

    @pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
    def test_kernel_calls_per_step_or_per_block(self, backend):
        """One call per step in process; a forked worker runs its own
        blocks, one call each."""
        obs = Observability.enabled()
        with self._program(backend, obs) as program:
            executor = program.train_loop.executor
            kernel = executor.kernel
            # Created before the workers fork, so they all count into it.
            calls = multiprocessing.get_context("fork").Value("i", 0)

            def counting(block, kctx):
                with calls.get_lock():
                    calls.value += 1
                return kernel(block, kctx)

            executor.kernel = counting
            result = program.train_loop.run(1)[0]
            blocks = sum(len(step) for step in executor.steps)
            assert (len(executor.steps), blocks) == (96, 2304)
            assert result.num_tasks == blocks
            expected = len(executor.steps) if backend == "simulated" else blocks
            assert calls.value == expected
            if backend == "simulated":  # the master counts virtual blocks
                counters = obs.metrics.snapshot()
                assert counters["kernel_calls_total"] == expected
                assert counters["kernel_blocks_total"] == blocks
            # The report describes dispatch units: step-wide levels when
            # fused, block-wide ones otherwise.
            stats = program.train_loop.run_summary()["level_schedule"]
            assert stats["entries"] == 6000
            if backend == "simulated":
                assert stats["mean_group_size"] > 10
            else:
                assert stats["mean_group_size"] < 3

    def test_backends_agree_bitwise(self):
        states = []
        for backend in ("simulated", "multiprocess"):
            with self._program(backend) as program:
                program.train_loop.run(2)
                states.append(
                    {n: a.values.copy() for n, a in program.arrays.items()
                     if not a.sparse}
                )
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name

    def test_a_user_kernel_is_never_fused(self):
        """Fusability is a fact about a synthesized kernel; a callable
        passed as ``LoopOptions.kernel`` gets one block per call."""
        seen, late = [], {}

        def user_kernel(block, kctx):
            seen.append(len(kctx.records))
            for key, value in block:
                late["body"](key, value)

        data = netflix_like(num_rows=48, num_cols=40, num_ratings=400, seed=5)
        with build_sgd_mf(
            data, cluster=_cluster(),
            options=LoopOptions(kernel=user_kernel, pipeline_depth=2),
        ) as program:
            executor = program.train_loop.executor
            late["body"] = program.train_loop.body
            assert executor.kernel_tier == "hand" and executor.synth is None
            program.train_loop.run(1)
            assert seen == [1] * sum(len(step) for step in executor.steps)
