"""The Orion driver API (paper Sec. 3, Fig. 5).

An application creates an :class:`OrionContext` — the driver's handle on
the distributed runtime — builds DistArrays lazily, materializes them, and
parallelizes loops with :meth:`OrionContext.parallel_for`:

.. code-block:: python

    ctx = OrionContext(cluster=ClusterSpec.paper_default())
    ratings = ctx.text_file(path, parse_line)
    ctx.materialize(ratings)
    W = ctx.randn(K, num_rows)
    H = ctx.randn(K, num_cols)
    ctx.materialize(W, H)
    err = ctx.accumulator("err", 0.0)

    def body(key, rating):
        w = W[:, key[0]]
        h = H[:, key[1]]
        ...
        W[:, key[0]] = w - step_size * gw
        H[:, key[1]] = h - step_size * gh

    loop = ctx.parallel_for(ratings)(body)     # JIT-style static analysis
    for _ in range(num_iterations):
        loop.run()
    total = ctx.get_aggregated_value("err")

The decorator form mirrors the paper's ``@parallel_for`` macro: applying it
triggers static dependence analysis, strategy selection and schedule
construction exactly once; each ``run()`` executes one pass.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

# Annotation-only: importing synth before repro.runtime would cycle
# (synth -> repro.runtime -> executor -> synth).
if TYPE_CHECKING:
    from repro.analysis.synth import SynthResult

from repro.analysis.lint import Diagnostic
from repro.analysis.loop_info import LoopInfo, analyze_loop_body
from repro.analysis.strategy import Plan, choose_plan
from repro.core.accumulator import Accumulator, AccumulatorRegistry
from repro.core.buffers import DistArrayBuffer, default_apply
from repro.core.distarray import DistArray, parse_dense_line
from repro.faults.recovery import RecoveryManager
from repro.obs.observability import Observability
from repro.runtime.backend import Backend, create_backend
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import EpochResult, OrionExecutor
from repro.runtime.network import TrafficLog
from repro.runtime.options import LoopOptions

__all__ = ["OrionContext", "ParallelLoop"]


class ParallelLoop:
    """A compiled parallel for-loop: analysis, plan and executor in one.

    Created by :meth:`OrionContext.parallel_for`.  The static analysis and
    schedule construction happen at creation (the paper's macro-expansion /
    JIT step); :meth:`run` executes data passes.
    """

    def __init__(
        self,
        ctx: "OrionContext",
        body: Callable[..., Any],
        info: LoopInfo,
        plan: Plan,
        executor: OrionExecutor,
        options: Optional[LoopOptions] = None,
    ) -> None:
        self.ctx = ctx
        self.body = body
        self.info = info
        self.plan = plan
        self.executor = executor
        self.options = options if options is not None else executor.options
        #: Logical (1-based) epoch counter across run() calls — fault
        #: events are pinned against this, not the executor's pass count.
        self._epoch = 0
        self._recovery: Optional[RecoveryManager] = None
        opts = self.options
        if opts.backend == "multiprocess":
            from repro.errors import ExecutionError

            if opts.faults is not None or opts.checkpoint is not None:
                raise ExecutionError(
                    "fault injection and checkpointing model virtual-clock "
                    "crashes; they are not supported on the multiprocess "
                    "backend (run them on backend='simulated')"
                )
        #: The execution engine driving :meth:`run` — see
        #: :mod:`repro.runtime.backend`.
        self.backend: Backend = create_backend(self)
        if opts.faults is not None or opts.checkpoint is not None:
            self._recovery = RecoveryManager(
                self._protected_arrays(opts),
                accumulators=info.accumulator_refs,
                checkpoint=opts.checkpoint,
                costs=opts.faults.costs if opts.faults is not None else None,
                tracer=executor.tracer,
                metrics=executor.metrics,
                trace_process=executor.trace_process,
            )

    def _protected_arrays(self, opts: LoopOptions) -> List[DistArray]:
        """The arrays recovery must restore: the checkpoint config's
        explicit list, or every array/buffer target the loop mutates."""
        if opts.checkpoint is not None and opts.checkpoint.arrays:
            return list(opts.checkpoint.arrays)
        seen: Dict[str, DistArray] = {}
        written = self.info.written_arrays()
        for name, array in self.info.arrays.items():
            if name in written:
                seen[array.name] = array
        for buffer in self.info.buffers.values():
            target = buffer.target
            seen[target.name] = target
        return list(seen.values())

    def run(self, epochs: int = 1) -> List[EpochResult]:
        """Execute ``epochs`` full passes, advancing the context clock and
        recording traffic on the context's log.

        Without a fault plan or checkpoint config this is exactly the
        historical loop (bit-identical results).  With one, each logical
        epoch runs under crash protection: a detected crash restores the
        latest complete checkpoint (or the initial state), charges the
        virtual clock for detection + restore, and replays the lost
        epochs.  Aborted passes stay in the returned list (check
        :attr:`EpochResult.fault`), so the result count can exceed
        ``epochs`` when crashes fired.
        """
        results: List[EpochResult] = []
        if self._recovery is None:
            for _ in range(epochs):
                self._epoch += 1
                result = self.backend.run_epoch(
                    t0=self.ctx.now if self.ctx is not None else 0.0,
                    epoch=self._epoch,
                )
                if self.ctx is not None:
                    self.ctx._absorb(result)
                results.append(result)
        else:
            for _ in range(epochs):
                self._epoch += 1
                self._run_protected(self._epoch, results)
        if self.options.run_store is not None:
            self._persist_run(results)
        return results

    def _persist_run(self, results: List[EpochResult]) -> None:
        """Append one run-store record for a finished :meth:`run` call.

        Pure introspection after the pass: with ``run_store`` unset this
        is never reached and results stay bit-identical (the import is
        lazy so unrecorded runs do not even load the module)."""
        from repro.obs.runstore import RunStore, record_run

        store = RunStore.resolve(self.options.run_store)
        store.append(
            record_run(self, results, label=self.options.run_label)
        )

    def run_summary(self) -> Dict[str, Any]:
        """Plan/schedule introspection, including the requested vs.
        resolved values of ``pipeline_depth`` (clamped per plan) and the
        prefetch knobs, and — once an epoch has run — how wide the
        vector kernel's level-scheduled groups are (``level_schedule``:
        entries, groups, mean group size, single-entry share)."""
        summary = self.executor.run_summary()
        # The backend knows where the block caches live (multiprocess: in
        # the workers, not in this process's executor).
        summary["level_schedule"] = self.backend.level_schedule()
        return summary

    def close(self) -> None:
        """Release the backend's resources (worker processes, shared
        memory).  Safe to call more than once; the loop can
        still run afterwards — the backend re-acquires what it needs."""
        self.backend.close()

    def __enter__(self) -> "ParallelLoop":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_protected(self, epoch: int, results: List[EpochResult]) -> None:
        """Run one logical epoch; on a detected crash, restore and replay.

        Recursion handles crashes during replay: each crash in the plan is
        one-shot, so the depth is bounded by the number of planned crashes.
        """
        recovery = self._recovery
        assert recovery is not None
        result = self.backend.run_epoch(t0=self.ctx.now, epoch=epoch)
        self.ctx._absorb(result)
        results.append(result)
        if result.fault is None:
            self.ctx.now += recovery.after_epoch(epoch, self.ctx.now)
            return
        seconds, replay_from, restored_nbytes = recovery.recover(self.ctx.now)
        if restored_nbytes:
            self.ctx.traffic.record(
                self.ctx.now, self.ctx.now + seconds, restored_nbytes,
                "restore",
            )
        self.ctx.now += seconds
        for replay_epoch in range(replay_from + 1, epoch + 1):
            self._run_protected(replay_epoch, results)

    def explain(self) -> str:
        """A Fig. 6-style report of what static parallelization decided.

        When kernel synthesis ran (``kernel="auto"``), the report also
        shows the outcome — the generated kernel source (after the first
        epoch also how wide its level-scheduled groups came out), or why
        synthesis fell back to the scalar interpreter.
        """
        from repro.analysis.explain import explain_plan

        return explain_plan(
            self.info,
            self.plan,
            synth=self.executor.synth,
            level_schedule=self.run_summary()["level_schedule"],
        )

    def synthesis(self) -> Optional["SynthResult"]:
        """The kernel-synthesis outcome, or ``None`` unless
        ``kernel="auto"`` was requested (see :mod:`repro.analysis.synth`)."""
        return self.executor.synth

    def diagnostics(self) -> List["Diagnostic"]:
        """The analyzer's lint findings for this loop's body.

        A compiled loop has no E-code errors by construction (they raise
        during ``parallel_for``); this returns the W-code warnings — see
        the catalog in ``docs/analysis.md`` and the ``repro lint`` CLI
        for linting a loop without compiling or running it.
        """
        return list(self.info.diagnostics)

    def __call__(self, epochs: int = 1) -> List[EpochResult]:
        return self.run(epochs)


class OrionContext:
    """Driver-side handle on the (simulated) Orion runtime.

    Args:
        cluster: the simulated cluster; defaults to a small 1×4 cluster so
            examples run instantly (the paper's figures use
            ``ClusterSpec.paper_default()``).
        seed: base seed for random array initialization.
        obs: the :class:`~repro.obs.observability.Observability` (tracer
            + metrics) shared by every loop this context builds —
            ``Observability.enabled()`` for a live pair; default: the
            disabled singletons, zero overhead.
    """

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        seed: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
        self.seed = seed
        self.obs = Observability.resolve(obs=obs)
        self.tracer = self.obs.tracer
        self.metrics = self.obs.metrics
        self.accumulators = AccumulatorRegistry()
        self.traffic = TrafficLog()
        #: Cumulative virtual seconds spent in parallel loops.
        self.now = 0.0
        #: Cumulative *real* wall-clock seconds spent in parallel loops
        #: executed by a real backend (``EpochResult.clock == "real"``).
        #: Kept apart from :attr:`now` — the two clocks never mix.
        self.real_now = 0.0
        self._arrays: List[DistArray] = []
        self._loops: List["ParallelLoop"] = []
        self._seed_counter = 0

    # ---------------- array creation ----------------------------------- #

    def _next_seed(self) -> Optional[int]:
        if self.seed is None:
            return None
        self._seed_counter += 1
        return self.seed + self._seed_counter

    def _register(self, array: DistArray) -> DistArray:
        self._arrays.append(array)
        return array

    def text_file(
        self,
        path: str,
        parser: Callable[[str], Tuple[Tuple[int, ...], Any]] = parse_dense_line,
        name: Optional[str] = None,
        shape: Optional[Tuple[int, ...]] = None,
    ) -> DistArray:
        """Lazily load a sparse DistArray from a text file (paper Fig. 5)."""
        return self._register(DistArray.text_file(path, parser, name, shape))

    def from_entries(
        self,
        entries: Iterable[Tuple[Tuple[int, ...], Any]],
        name: Optional[str] = None,
        shape: Optional[Tuple[int, ...]] = None,
    ) -> DistArray:
        """Lazily create a sparse DistArray from ``(key, value)`` pairs."""
        return self._register(DistArray.from_entries(entries, name, shape))

    def randn(
        self, *shape: int, name: Optional[str] = None, scale: float = 1.0
    ) -> DistArray:
        """Lazily create a dense normal-initialized DistArray."""
        return self._register(
            DistArray.randn(*shape, name=name, seed=self._next_seed(), scale=scale)
        )

    def rand(self, *shape: int, name: Optional[str] = None) -> DistArray:
        """Lazily create a dense uniform-initialized DistArray."""
        return self._register(
            DistArray.rand(*shape, name=name, seed=self._next_seed())
        )

    def zeros(self, *shape: int, name: Optional[str] = None) -> DistArray:
        """Lazily create a dense zero DistArray."""
        return self._register(DistArray.zeros(*shape, name=name))

    def full(
        self, shape: Tuple[int, ...], value: float, name: Optional[str] = None
    ) -> DistArray:
        """Lazily create a dense constant DistArray."""
        return self._register(DistArray.full(shape, value, name=name))

    @staticmethod
    def materialize(*arrays: DistArray) -> None:
        """Force evaluation of lazy arrays (paper's ``Orion.materialize``)."""
        for array in arrays:
            array.materialize()

    # ---------------- accumulators & buffers --------------------------- #

    def accumulator(
        self,
        name: str,
        initial: Any = 0.0,
        op: Callable[[Any, Any], Any] = operator.add,
    ) -> Accumulator:
        """Create a named accumulator (paper's ``@accumulator``)."""
        return self.accumulators.create(name, initial, op)

    def get_aggregated_value(
        self, name: str, op: Optional[Callable[[Any, Any], Any]] = None
    ) -> Any:
        """Aggregate one accumulator across all workers."""
        return self.accumulators.aggregate(name, op)

    def reset_accumulator(self, name: str) -> None:
        """Reset one accumulator on every worker."""
        self.accumulators.reset(name)

    def dist_array_buffer(
        self,
        target: DistArray,
        apply_fn: Callable[[Any, Any], Any] = default_apply,
        combiner: Optional[Callable[[Any, Any], Any]] = None,
        max_delay: Optional[int] = None,
        name: Optional[str] = None,
    ) -> DistArrayBuffer:
        """Create a write-back buffer for ``target`` (paper Sec. 3.3)."""
        kwargs = {"apply_fn": apply_fn, "max_delay": max_delay, "name": name}
        if combiner is not None:
            kwargs["combiner"] = combiner
        return DistArrayBuffer(target, **kwargs)

    # ---------------- parallel for-loops ------------------------------- #

    def parallel_for(
        self,
        iteration_space: DistArray,
        options: Optional[LoopOptions] = None,
    ) -> Callable[[Callable[..., Any]], ParallelLoop]:
        """Parallelize a loop body over ``iteration_space``.

        Returns a decorator; applying it performs static dependence
        analysis, chooses the parallelization strategy, partitions the
        iteration space and builds the schedule — once.  The decorated name
        becomes a :class:`ParallelLoop`.

        Configuration is **options-first**: build a
        :class:`~repro.runtime.options.LoopOptions` and pass it as
        ``options=`` —

        .. code-block:: python

            loop = ctx.parallel_for(
                ratings,
                options=LoopOptions(pipeline_depth=4, validate=True),
            )(body)

        Every field is documented on ``LoopOptions`` itself; the knobs
        that exist only there include fault injection (``faults`` /
        ``checkpoint``) and run recording (``run_store`` /
        ``run_label``).  Use ``options.merged_with(...)`` for call-site
        overrides.

        Args:
            iteration_space: materialized DistArray to iterate over.
            options: the :class:`~repro.runtime.options.LoopOptions`
                bundle carrying every knob (``options.obs`` defaults to
                the context's observability pair).
        """
        opts = options if options is not None else LoopOptions()
        final = replace(opts, obs=opts.resolve_obs(default=self.obs))

        def decorate(body: Callable[..., Any]) -> ParallelLoop:
            info = analyze_loop_body(
                body, iteration_space, ordered=final.ordered
            )
            plan = choose_plan(info, force_dims=final.force_dims)
            executor = OrionExecutor(
                body, info, plan, self.cluster, options=final
            )
            loop = ParallelLoop(
                self, body, info, plan, executor, options=final
            )
            self._loops.append(loop)
            return loop

        return decorate

    # ---------------- bookkeeping -------------------------------------- #

    def close(self) -> None:
        """Release backend resources (worker processes, shared memory) of
        every loop this context built.  Safe to call more than once; loops
        can still run afterwards — backends re-acquire what they need.
        Multi-loop programs (e.g. GBT) need this rather than closing
        ``train_loop`` alone."""
        for loop in self._loops:
            loop.close()

    def __enter__(self) -> "OrionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _absorb(self, result: EpochResult) -> None:
        if result.clock == "real":
            # Real backends measure the host, not the cost model: advance
            # the wall clock and leave the virtual timeline untouched.
            self.real_now += result.epoch_time_s
            return
        for t_start, t_end, nbytes, kind in result.events:
            self.traffic.record(
                self.now + t_start, self.now + t_end, nbytes, kind
            )
        self.now += result.epoch_time_s
