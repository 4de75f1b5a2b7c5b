"""The Orion distributed executor.

Takes a parallelization :class:`~repro.analysis.strategy.Plan` plus the
analyzed loop and runs epochs over the simulated cluster:

* partitions the iteration space (histogram-balanced) along the plan's
  space/time dimensions, or by transformed coordinates for unimodular
  plans;
* executes the *real* loop body for every iteration, in an order that is a
  linearization of the schedule — so results are serializable by
  construction, and a validation mode double-checks that blocks the
  schedule claims concurrent touch disjoint elements;
* charges virtual time per block (compute + prefetch + buffer flush) and
  feeds the schedule's timing model (pipelined rotation, wavefront, or 1D
  barrier) to obtain the epoch makespan;
* records traffic events (rotation, flush, prefetch, broadcast) on the
  virtual timeline for bandwidth accounting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.loop_info import LoopInfo
from repro.analysis.prefetch import synthesize_prefetch
from repro.analysis.strategy import PlacementKind, Plan, Strategy
from repro.analysis.synth import (
    kernel_batching_legal,
    level_schedule_counts,
    level_schedule_stats,
    plan_refusal,
    synthesize_kernel,
)
from repro.core import access
from repro.core.distarray import DistArray
from repro.errors import ExecutionError
from repro.runtime import partition as parts
from repro.runtime import schedule as sched
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import KernelContext, normalize_index
from repro.runtime.options import BACKENDS, LoopOptions
from repro.runtime.pserver import PrefetchManager, index_nbytes
from repro.sanitizer import (
    AccessRecord,
    RecordingBroker,
    SanitizerError,
    check_epoch,
    indices_overlap,
)

__all__ = [
    "EpochResult",
    "OrionExecutor",
    "TaskRecord",
    "indices_overlap",
    "kernel_batching_legal",
]


# --------------------------------------------------------------------- #
# The per-task record and the broker that fills it                      #
# --------------------------------------------------------------------- #

@dataclass
class TaskRecord:
    """What executing one block produced — the one per-task record.

    Built by :meth:`OrionExecutor.run_blocks` in whichever process ran
    the block (a multiprocess worker pickles it back to the master), one
    per block even when a whole schedule step went through one kernel
    call, so virtual-clock cost, serializability validation, the
    sanitizer cross-check and span emission are post-epoch passes over
    the same type on either clock.
    """

    task: sched.Task
    entries: int = 0
    server_reads: int = 0
    server_read_bytes: float = 0.0
    flush_bytes: float = 0.0
    #: Kernel calls charged to this block: 1 for the first block of each
    #: dispatch unit that ran through the kernel, 0 otherwise.
    kernel_calls: int = 0
    #: Validation mode: ``(array, normalized index, is_write)`` per access.
    accesses: List[Tuple[str, Tuple[Any, ...], bool]] = field(default_factory=list)
    #: Sanitize mode: per-iteration shadow-access records.
    shadow: List[AccessRecord] = field(default_factory=list)
    #: Buffered writes taken for the master to apply (buffer name ->
    #: pending updates) when the block's runner does not own the flush.
    pending: Dict[str, Dict[Tuple[Any, ...], Any]] = field(default_factory=dict)
    #: Real-clock execution window and rotation-token wait
    #: (``perf_counter`` seconds; multiprocess workers only).
    t_start: float = 0.0
    t_end: float = 0.0
    token_wait: float = 0.0


class _AccountingBroker(access.AccessBroker):
    """Counts server-array traffic into a :class:`TaskRecord` and, in
    validation mode, records every touched index for the post-epoch
    serializability check.

    One instance is created per dispatch unit.  A multiprocess worker
    passes an empty ``server_ids``: the master owns the virtual
    timeline, so the worker moves data and counts nothing.
    """

    def __init__(
        self, server_ids: AbstractSet[int], validate: bool, stats: TaskRecord
    ) -> None:
        self.server_ids = server_ids
        self.validate = validate
        self.stats = stats
        #: The loop key whose body is running (set by the block runner;
        #: the sanitizer's recording wrapper is what reads it).
        self.iteration: Any = None

    def read(self, array: DistArray, index: Any) -> Any:
        if id(array) in self.server_ids:
            self.stats.server_reads += 1
            self.stats.server_read_bytes += index_nbytes(array, index)
        if self.validate:
            self.stats.accesses.append(
                (array.name, normalize_index(index), False)
            )
        return array.direct_get(index)

    def write(self, array: DistArray, index: Any, value: Any) -> None:
        if self.validate:
            self.stats.accesses.append(
                (array.name, normalize_index(index), True)
            )
        array.direct_set(index, value)

    def buffer_write(self, buffer: Any, index: Any, value: Any) -> None:
        buffer.direct_buffer_write(index, value)

    def bulk_buffer_write(self, buffer: Any, indices: Any, values: Any) -> None:
        buffer.direct_buffer_write_many(indices, values)


# --------------------------------------------------------------------- #
# Executor                                                               #
# --------------------------------------------------------------------- #

@dataclass
class EpochResult:
    """Outcome of one executed data pass."""

    epoch_time_s: float
    bytes_sent: float
    #: Traffic events with epoch-relative (t_start, t_end, nbytes, kind).
    events: List[Tuple[float, float, float, str]] = field(default_factory=list)
    #: Number of blocks executed.
    num_tasks: int = 0
    #: Fraction of worker-seconds spent doing block work (1.0 = no worker
    #: ever waits on rotation, barriers or the parameter server).
    utilization: float = 0.0
    #: Whether blocks ran through the batched-kernel fast path.
    kernel_path: bool = False
    #: Epoch-relative barrier intervals the schedule charged — the points
    #: at which a crashed worker becomes detectable.
    barriers: List[Tuple[float, float]] = field(default_factory=list)
    #: Injected-crash record when this pass was aborted (``None`` for a
    #: clean pass): kind/victim/at_s/detected_s/epoch.  An aborted pass's
    #: ``epoch_time_s`` covers start → detection (+ detection timeout);
    #: the driver loop restores a checkpoint and replays.
    fault: Optional[Dict[str, Any]] = None
    #: Which timeline ``epoch_time_s`` lives on: ``"virtual"`` for the
    #: simulated cost model, ``"real"`` for measured wall-clock seconds
    #: (the multiprocess backend).  Real results accumulate on
    #: ``OrionContext.real_now``, never on the virtual clock.
    clock: str = "virtual"


#: block key -> (prefetch, compute, flush, overhead) seconds: the phase
#: breakdown behind each block span (only filled when tracing).
Phases = Dict[Tuple[int, int], Tuple[float, float, float, float]]


def _resolve_pipeline_depth(value: Any) -> int:
    """Check ``LoopOptions.pipeline_depth`` is an int and floor it at 1."""
    if not isinstance(value, (int, np.integer)):
        raise ExecutionError(
            f"pipeline_depth must be an int (default 2); got {value!r}"
        )
    return max(1, int(value))


class OrionExecutor:
    """Runs one compiled parallel for-loop on the simulated cluster.

    Args:
        body: the loop-body function.
        info: static analysis of the body.
        plan: the chosen parallelization.
        cluster: simulated cluster spec.
        options: the :class:`~repro.runtime.options.LoopOptions` carrying
            every knob, each documented there (defaults when omitted).
    """

    def __init__(
        self,
        body: Callable[..., Any],
        info: LoopInfo,
        plan: Plan,
        cluster: ClusterSpec,
        options: Optional[LoopOptions] = None,
    ) -> None:
        opts = options if options is not None else LoopOptions()
        if opts.prefetch not in ("auto", "none"):
            raise ExecutionError(f"unknown prefetch mode {opts.prefetch!r}")
        if opts.backend not in BACKENDS:
            raise ExecutionError(f"unknown backend {opts.backend!r}")
        self.options = opts
        self.body = body
        self.info = info
        self.plan = plan
        self.cluster = cluster
        #: Clamped per plan in :meth:`_setup`; ``options`` keeps the
        #: requested value and ``run_summary()`` reports both sides.
        self.pipeline_depth = _resolve_pipeline_depth(opts.pipeline_depth)
        self.balance = opts.balance
        self.validate = opts.validate
        self.prefetch_mode = opts.prefetch
        self.cache_prefetch = opts.cache_prefetch
        #: Synthesis outcome when ``kernel="auto"`` resolved the kernel
        #: (``None`` for callable kernels / kernel-less loops).
        self.synth = None
        self.kernel = self._resolve_kernel(opts.kernel)
        self.sanitize = opts.sanitize
        self._sanitize_values: Optional[Dict[Any, Any]] = None
        resolved = opts.resolve_obs()
        self.obs = resolved
        self.tracer = resolved.tracer
        self.metrics = resolved.metrics
        self.trace_process = opts.trace_process
        self.faults = opts.faults
        #: Per-dispatch-unit caches handed to kernels (index arrays, level
        #: schedules, memoized accounting), keyed by the unit's block keys
        #: — persist across epochs.
        self._kernel_caches: Dict[
            Tuple[Tuple[int, int], ...], Dict[Any, Any]
        ] = {}
        self._ready = False
        self.partitions: Optional[parts.IterationPartitions] = None
        self.steps: List[List[sched.Task]] = []
        self.num_workers = 0
        self.num_time = 1
        self.epochs_run = 0
        self._setup()
        if self.synth is not None and self.synth.engaged:
            self.info.diagnostics.extend(plan_refusal(self.info, self.plan))

    def _resolve_kernel(self, kernel: Any) -> Optional[Callable[..., Any]]:
        """Resolve ``LoopOptions.kernel`` to a callable (or ``None``).

        ``"auto"`` synthesizes a kernel from the analyzed body (appending
        any W50x fallback diagnostics to the loop's diagnostics), ``"off"``
        disables batching, and a callable passes through unchanged.
        """
        if kernel is None or callable(kernel):
            return kernel
        if not isinstance(kernel, str):
            raise ExecutionError(
                f"kernel must be a callable, 'auto', 'off', or None; "
                f"got {kernel!r}"
            )
        mode = kernel.lower()
        if mode == "off":
            return None
        if mode != "auto":
            raise ExecutionError(f"unknown kernel mode {kernel!r}")
        self.synth = synthesize_kernel(self.body, self.info)
        self.info.diagnostics.extend(self.synth.diagnostics)
        return self.synth.kernel

    # ---------------- setup: partition + schedule ---------------------- #

    def _setup(self) -> None:
        info, plan = self.info, self.plan
        entries = parts.Block(*info.iteration_space.columns())
        if not len(entries):
            raise ExecutionError("iteration space is empty")
        shape = info.iteration_space.shape
        requested = self.cluster.num_workers

        if plan.strategy in (Strategy.ONE_D, Strategy.DATA_PARALLEL):
            dim = plan.space_dim
            workers = min(requested, shape[dim])
            self.partitions = parts.partition_1d(
                entries, dim, shape[dim], workers, balance=self.balance
            )
            self.steps = sched.one_d_schedule(workers)
            self.num_workers, self.num_time = workers, 1
        elif plan.strategy is Strategy.TWO_D:
            space_dim, time_dim = plan.space_dim, plan.time_dim
            workers = min(requested, shape[space_dim])
            if plan.ordered:
                num_time = min(
                    shape[time_dim], workers * self.pipeline_depth
                )
                self.steps = sched.ordered_2d_schedule(workers, num_time)
            else:
                workers = min(workers, shape[time_dim])
                depth = max(
                    1, min(self.pipeline_depth, shape[time_dim] // workers)
                )
                # Write the clamp back so run_summary()["resolved"] and
                # the run-store signature report the depth actually used.
                self.pipeline_depth = depth
                num_time = depth * workers
                self.steps = sched.unordered_2d_schedule(workers, num_time)
            self.partitions = parts.partition_2d(
                entries,
                space_dim,
                time_dim,
                shape[space_dim],
                shape[time_dim],
                workers,
                num_time,
                balance=self.balance,
                # Unordered: the canonical in-block order makes a worker's
                # per-epoch entry sequence identical at every pipeline
                # depth (changing depth moves the clock, never the model)
                # and is what the kernels' level schedule is built on.
                canonical_order=not plan.ordered,
            )
            self.num_workers, self.num_time = workers, num_time
        elif plan.strategy is Strategy.TWO_D_UNIMODULAR:
            workers = requested
            num_time = max(workers, 2)
            self.partitions = parts.partition_transformed(
                entries, plan.transform, workers, num_time
            )
            self.steps = sched.sequential_outer_schedule(workers, num_time)
            self.num_workers, self.num_time = workers, num_time
        else:  # pragma: no cover - enum is exhaustive
            raise ExecutionError(f"unknown strategy {plan.strategy}")

        # Placement-derived communication quantities.
        self._server_arrays: Dict[str, DistArray] = {}
        self._rotated_bytes = 0.0
        self._replicated_bytes = 0.0
        for name, placement in plan.placements.items():
            if name.startswith("<target:"):
                continue
            array = info.arrays[name]
            if placement.kind is PlacementKind.SERVER:
                self._server_arrays[name] = array
            elif placement.kind is PlacementKind.ROTATED:
                self._rotated_bytes += array.nbytes
            elif placement.kind is PlacementKind.REPLICATED:
                self._replicated_bytes += array.nbytes

        prefetch_fn = None
        if self.prefetch_mode == "auto" and self._server_arrays:
            prefetch_fn = synthesize_prefetch(
                self.body, info, list(self._server_arrays)
            )
        self.prefetch = PrefetchManager(
            self.cluster,
            self._server_arrays,
            prefetch_fn,
            cache_indices=self.cache_prefetch,
            metrics=self.metrics,
        )
        self._server_ids = {id(array) for array in self._server_arrays.values()}
        self._kernel_supported = kernel_batching_legal(info, plan)[0]
        if self.sanitize:
            # The sanitizer attributes accesses to iterations, which only
            # the interpreted per-entry path can do.
            self._kernel_supported = False
        self._ready = True

    # ---------------- epoch execution ---------------------------------- #

    @property
    def rotated_block_bytes(self) -> float:
        """Bytes of one rotated-array time partition."""
        if self.num_time == 0:
            return 0.0
        return self._rotated_bytes / self.num_time

    @property
    def kernel_tier(self) -> str:
        """Which update path blocks take, as a stable label.

        ``"scalar"`` (no kernel, or the plan refuses batching),
        ``"hand"`` (a callable passed as ``LoopOptions.kernel`` — LDA's
        registered kernel), or ``"synth:<tier>"``
        (a synthesized kernel: ``synth:vector`` / ``synth:segmented`` /
        ``synth:block-loop``).
        Recorded in run-store records so cross-run comparisons can tell a
        genuine regression from a path change.
        """
        if self.kernel is None or not self._kernel_supported:
            return "scalar"
        if self.synth is not None and self.synth.engaged:
            return f"synth:{self.synth.tier}"
        return "hand"

    def run_summary(self) -> Dict[str, Any]:
        """Plan/schedule facts for one run-store record (JSON-safe).

        The emission hook behind ``LoopOptions.run_store`` — pure
        introspection, no effect on execution."""
        plan = self.plan
        return {
            "strategy": plan.strategy.name,
            "ordered": bool(self.info.ordered),
            "space_dim": plan.space_dim,
            "time_dim": plan.time_dim,
            "transformed": plan.transform is not None,
            "num_workers": self.num_workers,
            "num_time": self.num_time,
            "num_steps": len(self.steps),
            "kernel_tier": self.kernel_tier,
            "level_schedule": level_schedule_stats(
                self.level_schedule_counts()
            ),
            "uses_buffers": bool(self.info.buffers),
            # Requested vs. resolved knob values: the per-plan depth
            # clamp and a missing prefetch function make them differ.
            "requested": {
                "pipeline_depth": self.options.pipeline_depth,
                "prefetch": self.options.prefetch,
                "cache_prefetch": bool(self.options.cache_prefetch),
            },
            "resolved": {
                "pipeline_depth": int(self.pipeline_depth),
                "prefetch": (
                    self.prefetch_mode
                    if self.prefetch.prefetch_fn is not None
                    or self.prefetch_mode == "none"
                    else "none (no prefetch function)"
                ),
                "cache_prefetch": bool(self.cache_prefetch),
            },
        }

    def level_schedule_counts(self) -> Tuple[int, int, int]:
        """Entries, groups and single-entry groups of the vector kernel's
        level schedules over the dispatch units *this process* has
        executed — whole schedule steps on the simulated backend (a
        multiprocess worker's one-block units are counted in the worker
        and reach the master through ``runner_meta()``)."""
        return level_schedule_counts(self._kernel_caches.values())

    @property
    def kernel_path(self) -> bool:
        """Whether blocks execute through the batched-kernel fast path."""
        return self.kernel is not None and self._kernel_supported

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        """Execute one full pass over the iteration space.

        Args:
            t0: absolute virtual time at which this epoch starts — used to
                place trace spans on the global timeline and to resolve
                time-pinned fault events (epoch timing itself is
                epoch-relative).
            epoch: logical 1-based epoch number, used to match
                epoch-pinned fault events (crashes/stragglers).  ``None``
                (direct executor use) leaves epoch-pinned events dormant.

        With a fault plan attached, a crash inside this pass truncates it:
        state mutations of the full pass have already happened (the
        simulation executes numerics up front), but the result reports
        only the work finished before the crash was detected at the next
        barrier, sets :attr:`EpochResult.fault`, and charges start →
        detection + detection timeout.  The driver loop
        (:class:`~repro.api.ParallelLoop`) then restores a checkpoint and
        replays — see :mod:`repro.faults.recovery`.
        """
        if not self._ready:
            raise ExecutionError("executor not set up")
        faults = self.faults
        task_records = [
            record
            for step_tasks in self.steps
            for record in self.run_blocks(step_tasks, self._server_ids)
        ]
        work_s, flush_bytes, prefetch_bytes, phases = self._charge(task_records)
        self.check_records(task_records)

        straggled = self._apply_stragglers(work_s, phases, epoch, t0)
        timing = self._timing(work_s)
        crash = (
            faults.claim_crash(epoch, t0, t0 + timing.makespan)
            if faults is not None
            else None
        )

        makespan = timing.makespan
        cutoff = None
        if crash is not None:
            # The crash becomes visible at the next barrier; recovery is
            # decided after the detection timeout.  Only work finished
            # before detection counts — the rest is lost and replayed.
            crash_rel = crash.at_s - t0
            detect_rel = timing.makespan
            for b_start, b_end in timing.barriers:
                if b_end >= crash_rel:
                    detect_rel = b_end
                    break
            detect_rel = max(detect_rel, crash_rel)
            makespan = detect_rel + faults.costs.detection_timeout_s
            cutoff = crash_rel
        events = self._traffic_events(
            timing, work_s, flush_bytes, prefetch_bytes, t0=t0, cutoff=cutoff
        )
        total_bytes = sum(event[2] for event in events)
        if crash is None:
            busy = float(work_s.sum())
            num_tasks = len(task_records)
            barriers = list(timing.barriers)
            fault_info = None
        else:
            done = [
                float(work_s[key])
                for _task, key, _start, finish in self._placed(timing, work_s)
                if finish <= detect_rel
            ]
            busy, num_tasks = sum(done, 0.0), len(done)
            barriers = [b for b in timing.barriers if b[1] <= detect_rel]
            fault_info = {
                "kind": (
                    "machine_crash"
                    if crash.crash.machine is not None
                    else "worker_crash"
                ),
                "victim": crash.describe(),
                "worker": crash.crash.worker,
                "machine": crash.crash.machine,
                "at_s": crash.at_s,
                "detected_s": t0 + detect_rel,
                "epoch": epoch,
            }

        capacity = self.num_workers * makespan
        self.epochs_run += 1
        result = EpochResult(
            epoch_time_s=makespan,
            bytes_sent=total_bytes,
            events=events,
            num_tasks=num_tasks,
            utilization=busy / capacity if capacity > 0 else 0.0,
            kernel_path=self.kernel_path,
            barriers=barriers,
            fault=fault_info,
        )
        if self.tracer.enabled:
            self._emit_spans(t0, timing, work_s, phases, result, cutoff=cutoff)
            self._emit_fault_spans(t0, result, straggled)
        if crash is None:
            self._record_metrics(result, work_s, task_records)
        elif self.metrics.enabled:
            self.metrics.counter("worker_crashes_total").inc()
            self.metrics.counter("fault_lost_seconds_total").inc(makespan)
        if straggled and self.metrics.enabled:
            self.metrics.counter("straggler_epochs_total").inc()
        return result

    def _apply_stragglers(
        self,
        work_s: np.ndarray,
        phases: Phases,
        epoch: Optional[int],
        t0: float,
    ) -> Dict[int, float]:
        """Scale straggling workers' block times in place.

        Time-windowed stragglers need the epoch's extent to compute their
        overlap, so a baseline timing pass estimates it first (only when
        the plan actually has stragglers — the no-fault path never pays
        for it).  ``space_idx == worker`` in every schedule, so scaling
        row ``worker`` of ``work_s`` slows exactly that worker's blocks;
        each phase breakdown is scaled by the same factor so phase spans
        keep partitioning their block.
        """
        if self.faults is None or not self.faults.stragglers:
            return {}
        baseline = self._timing(work_s).makespan
        factors = self.faults.straggle_factors(epoch, t0, t0 + baseline)
        applied: Dict[int, float] = {}
        for worker in sorted(factors):
            if not 0 <= worker < self.num_workers:
                continue
            factor = factors[worker]
            work_s[worker, :] *= factor
            applied[worker] = factor
            for key in [key for key in phases if key[0] == worker]:
                phases[key] = tuple(v * factor for v in phases[key])
        return applied

    def _emit_fault_spans(
        self, t0: float, result: EpochResult, straggled: Dict[int, float]
    ) -> None:
        """Fault-injection spans on the ``faults`` track (tracing only)."""
        tracer, process = self.tracer, self.trace_process
        end = t0 + result.epoch_time_s
        for worker, factor in straggled.items():
            tracer.add_span(
                f"straggler worker{worker} x{factor:.2f}",
                "straggler",
                t0,
                end,
                track="faults",
                process=process,
                args={"worker": worker, "slowdown": factor},
            )
        if result.fault is not None:
            tracer.add_span(
                f"crash {result.fault['victim']}",
                "fault",
                result.fault["at_s"],
                end,
                track="faults",
                process=process,
                args=dict(result.fault),
            )

    def _record_metrics(
        self,
        result: EpochResult,
        work_s: np.ndarray,
        records: List[TaskRecord],
    ) -> None:
        metrics = self.metrics
        if not metrics.enabled:
            return
        metrics.counter("epochs_total").inc()
        metrics.counter("blocks_total").inc(result.num_tasks)
        entries = self.partitions.total_entries
        metrics.counter("entries_total").inc(entries)
        path = "kernel_blocks_total" if result.kernel_path \
            else "scalar_blocks_total"
        metrics.counter(path).inc(result.num_tasks)
        metrics.counter("kernel_calls_total").inc(
            sum(record.kernel_calls for record in records)
        )
        metrics.gauge("utilization").set(result.utilization)
        if result.epoch_time_s > 0:
            metrics.gauge("entries_per_virtual_s").set(
                entries / result.epoch_time_s
            )
        block_seconds = metrics.histogram("block_seconds")
        for value in work_s.flat:
            if value > 0.0:
                block_seconds.observe(float(value))

    def _emit_spans(
        self,
        t0: float,
        timing: sched.ScheduleTiming,
        work_s: np.ndarray,
        phases: Phases,
        result: EpochResult,
        cutoff: Optional[float] = None,
    ) -> None:
        """Place this epoch's execution on the virtual timeline.

        Taxonomy (see ``docs/observability.md``): one ``epoch`` span on the
        ``epochs`` track with ``barrier`` children; per worker track, one
        ``block`` span per executed block whose duration is exactly that
        block's charged work, with nested phase spans (``prefetch`` /
        ``compute`` / ``flush`` / ``overhead``) partitioning it.  Traffic
        spans are emitted by :meth:`_traffic_events`.

        ``cutoff`` (epoch-relative) truncates an aborted pass at the crash
        point: blocks starting after it are not shown, a block in flight
        is clipped and marked aborted.
        """
        tracer, process = self.tracer, self.trace_process
        aborted = result.fault is not None
        epoch_name = f"epoch {self.epochs_run}"
        if aborted:
            epoch_name += " (aborted)"
        tracer.add_span(
            epoch_name,
            "epoch",
            t0,
            t0 + result.epoch_time_s,
            track="epochs",
            process=process,
            args={
                "utilization": result.utilization,
                "bytes_sent": result.bytes_sent,
                "num_tasks": result.num_tasks,
                "kernel_path": result.kernel_path,
                "strategy": self.plan.strategy.name,
            },
        )
        for t_start, t_end in result.barriers:
            tracer.add_span(
                "barrier",
                "barrier",
                t0 + t_start,
                t0 + t_end,
                track="epochs",
                process=process,
                depth=1,
            )
        phase_names = ("prefetch", "compute", "flush", "overhead")
        for task, key, start, finish in self._placed(timing, work_s):
            if cutoff is not None and start >= cutoff:
                continue
            clipped = cutoff is not None and finish > cutoff
            end = min(finish, cutoff) if clipped else finish
            track = f"worker{task.worker}"
            breakdown = phases.get(key)
            args = {"step": task.step, "space": key[0], "time": key[1]}
            if clipped:
                args["aborted"] = True
            if breakdown is not None:
                args.update(zip(phase_names, breakdown))
            tracer.add_span(
                f"block[{key[0]},{key[1]}]",
                "block",
                t0 + start,
                t0 + end,
                track=track,
                process=process,
                args=args,
            )
            if breakdown is None or clipped:
                continue
            cursor = start
            for phase_name, phase_s in zip(phase_names, breakdown):
                if phase_s <= 0.0:
                    continue
                tracer.add_span(
                    phase_name,
                    phase_name,
                    t0 + cursor,
                    t0 + cursor + phase_s,
                    track=track,
                    process=process,
                    depth=1,
                )
                cursor += phase_s

    def apply_flushes(self, records: List[TaskRecord]) -> None:
        """Parameter-server write path: apply, through the buffers' UDFs
        and in the order given, the buffered writes that blocks run with
        ``flush_local=False`` handed over in ``record.pending``."""
        for record in records:
            for name, pending in record.pending.items():
                self.info.buffers[name].apply_pending(
                    record.task.worker, pending
                )

    def close(self) -> None:
        """Nothing to release: the executor holds no threads, processes
        or shared memory.  Callers may close every executor they build."""

    def run_blocks(
        self,
        tasks: List[sched.Task],
        server_ids: AbstractSet[int],
        flush_local: bool = True,
    ) -> List[TaskRecord]:
        """Execute the blocks one process runs in one schedule step and
        return one record per block — the one place that knows how:
        kernel when the plan batches, else the scalar body per entry;
        under an accounting broker (wrapped by the sanitizer's recorder
        in sanitize mode) and the task's ``worker_scope``.

        The block is the scheduling unit; the *dispatch* unit — what one
        kernel call executes — is the whole step when the kernel carries
        no per-worker state (``SynthResult.fusable``): the blocks are
        concatenated in task order, which is the order they would have
        run in, so the kernel's level schedule keeps every conflicting
        pair of entries in that order and the result is bit-identical,
        with levels as wide as the step.  Every other path dispatches one
        block at a time.

        The caller chooses what the broker counts (``server_ids``) and
        who owns buffer synchronization.  With ``flush_local`` (this
        process owns the apply UDFs) buffers honour ``max_delay`` per
        entry and flush at the block boundary — a worker synchronizes at
        most once per partition (paper Sec. 4.3).  Without it (a forked
        worker: the master is the parameter server) the block's pending
        writes are taken off the buffers into ``record.pending``.
        """
        use_kernel = self.kernel_path
        keys = [task.block_key for task in tasks]
        blocks = [self.partitions.block(*key) for key in keys]
        records = [
            TaskRecord(task, entries=len(block))
            for task, block in zip(tasks, blocks)
        ]
        fuse = use_kernel and self.synth is not None and self.synth.fusable
        cuts = [0, len(tasks)] if fuse else range(len(tasks) + 1)
        buffers = self.info.buffers
        for lo, hi in zip(cuts, cuts[1:]):
            record, worker = records[lo], tasks[lo].worker
            broker: Any = _AccountingBroker(server_ids, self.validate, record)
            if self.sanitize:
                broker = RecordingBroker(broker, record.shadow)
            with access.worker_scope(worker), access.install_broker(broker):
                if use_kernel:
                    unit = blocks[lo:hi]
                    kctx = KernelContext(
                        broker,
                        worker,
                        self._kernel_caches.setdefault(tuple(keys[lo:hi]), {}),
                        records[lo:hi],
                        [0, *itertools.accumulate(map(len, unit))],
                    )
                    self.kernel(
                        unit[0] if hi - lo == 1 else parts.Block.concat(unit),
                        kctx,
                    )
                    record.kernel_calls = 1
                else:
                    body = self.body
                    ticking = list(buffers.values()) if flush_local else ()
                    for key, value in blocks[lo]:
                        broker.iteration = key
                        body(key, value)
                        for buffer in ticking:
                            if buffer.tick(worker):
                                record.flush_bytes += buffer.pending_bytes(worker)
                                buffer.flush_worker(worker)
            for name, buffer in buffers.items():
                record.flush_bytes += buffer.pending_bytes(worker)
                if flush_local:
                    buffer.flush_worker(worker)
                else:
                    taken = buffer.take_pending(worker)
                    if taken:
                        record.pending[name] = taken
        return records

    # ---------------- timing + traffic --------------------------------- #

    def _charge(
        self, records: List[TaskRecord]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Phases]:
        """Virtual-clock cost of one epoch's executed blocks.

        A pass over the task records after execution: per block, the
        seconds charged (``work_s[space, time]``), the bytes it flushed
        and prefetched, and — when tracing — the ``(prefetch, compute,
        flush, overhead)`` phase breakdown behind its span.
        """
        shape = (self.num_workers, self.num_time)
        work_s = np.zeros(shape)
        flush_bytes = np.zeros(shape)
        prefetch_bytes = np.zeros(shape)
        phases: Phases = {}
        tracing = self.tracer.enabled
        cost_model, prefetch = self.cluster.cost, self.prefetch
        network = self.cluster.network
        # Serializing the outgoing rotated partition is CPU work on the
        # worker — pipelining cannot hide it (paper Sec. 6.4).
        marshalling = 0.0
        if self.plan.strategy is Strategy.TWO_D:
            marshalling = (
                cost_model.marshalling_s_per_byte * self.rotated_block_bytes
            )
        for stats in records:
            block_key = stats.task.block_key
            compute = cost_model.compute_time(stats.entries)
            if prefetch.prefetch_fn is not None:
                cost = prefetch.block_read_cost(
                    block_key, self.partitions.block(*block_key)
                )
            else:
                cost = prefetch.random_access_cost_from_counts(
                    stats.server_reads, stats.server_read_bytes
                )
            flush_transfer = 0.0
            flush_messages = 0
            if stats.flush_bytes:
                flush_transfer = network.transfer_time(stats.flush_bytes)
                flush_messages = 1
            # Per-message CPU (request setup, locking): one prefetch
            # request plus one flush message per block, when present.
            message_cpu = cost_model.per_message_cpu_s * (
                cost.num_requests + flush_messages
            )
            work_s[block_key] = (
                compute + cost.seconds + flush_transfer + marshalling
                + message_cpu
            )
            flush_bytes[block_key] = stats.flush_bytes
            prefetch_bytes[block_key] = cost.nbytes
            if tracing:
                phases[block_key] = (
                    cost.seconds,
                    compute,
                    flush_transfer,
                    marshalling + message_cpu,
                )
        return work_s, flush_bytes, prefetch_bytes, phases

    def _timing(self, work_s: np.ndarray) -> sched.ScheduleTiming:
        plan = self.plan
        if plan.strategy in (Strategy.ONE_D, Strategy.DATA_PARALLEL):
            return sched.time_one_d(work_s, self.cluster)
        if plan.strategy is Strategy.TWO_D:
            if plan.ordered:
                return sched.time_ordered_2d(
                    work_s, self.cluster, self.rotated_block_bytes
                )
            return sched.time_unordered_2d(
                work_s, self.cluster, self.rotated_block_bytes
            )
        return sched.time_sequential_outer(work_s, self.cluster)

    def _traffic_events(
        self,
        timing: sched.ScheduleTiming,
        work_s: np.ndarray,
        flush_bytes: np.ndarray,
        prefetch_bytes: np.ndarray,
        t0: float = 0.0,
        cutoff: Optional[float] = None,
    ) -> List[Tuple[float, float, float, str]]:
        """Epoch-relative traffic events; when tracing, the same transfers
        are also emitted as spans on per-kind network tracks (offset by
        ``t0`` onto the global timeline, with worker/hop attribution).
        ``cutoff`` (epoch-relative) suppresses messages an aborted pass
        never sent.
        """
        tracer, process = self.tracer, self.trace_process
        tracing = tracer.enabled
        metrics = self.metrics
        network = self.cluster.network

        events: List[Tuple[float, float, float, str]] = []

        def emit(t_start, t_end, nbytes, kind, worker=None, hop=None):
            if cutoff is not None and t_start >= cutoff:
                return
            events.append((t_start, t_end, nbytes, kind))
            metrics.counter(f"traffic_bytes_{kind}").inc(nbytes)
            if tracing:
                args: Dict[str, Any] = {"nbytes": nbytes}
                if worker is not None:
                    args["worker"] = worker
                if hop is not None:
                    args["hop"] = hop
                tracer.add_span(
                    kind,
                    kind,
                    t0 + t_start,
                    t0 + t_end,
                    track=f"net:{kind}",
                    process=process,
                    args=args,
                )

        if self._replicated_bytes:
            emit(
                0.0, network.transfer_time(self._replicated_bytes),
                self._replicated_bytes * self.cluster.num_machines,
                "broadcast",
            )
        rotated = self.rotated_block_bytes
        rotating = rotated and self.plan.strategy is Strategy.TWO_D
        rotation_s = network.transfer_time(rotated)
        num_workers = self.num_workers
        for task, block_key, start, finish in self._placed(timing, work_s):
            if rotating:
                # The finished rotated partition moves to the worker's
                # predecessor in rotation order.
                hop = f"{task.worker}->{(task.worker - 1) % num_workers}"
                emit(finish, finish + rotation_s, rotated, "rotation",
                     worker=task.worker, hop=hop)
            fb = float(flush_bytes[block_key])
            if fb:
                emit(finish, finish + network.transfer_time(fb), fb,
                     "flush", worker=task.worker)
            pb = float(prefetch_bytes[block_key])
            if pb:
                emit(start, start + network.transfer_time(pb), pb,
                     "prefetch", worker=task.worker)
        return events

    def _placed(self, timing: sched.ScheduleTiming, work_s: np.ndarray):
        """Every task ``timing`` placed, in schedule order, with its block
        key and epoch-relative ``(start, finish)``."""
        for step_tasks in self.steps:
            for task in step_tasks:
                finish = timing.finish.get((task.worker, task.step))
                if finish is not None:
                    key = task.block_key
                    yield task, key, finish - float(work_s[key]), finish

    # ---------------- post-epoch checks over the task records ---------- #

    def check_records(self, records: List[TaskRecord]) -> None:
        """The opt-in correctness passes over one epoch's task records —
        the same two on every backend (the multiprocess master runs them
        over the records its workers shipped): ``validate`` checks that
        same-step blocks touched disjoint elements, ``sanitize``
        cross-checks the shadow-access records against the plan."""
        if self.validate:
            self._check_serializability(records)
            self.metrics.counter("serializability_validations_total").inc()
        if self.sanitize:
            self._sanitize_check(records)

    def _check_serializability(self, records: List[TaskRecord]) -> None:
        """Verify blocks claimed concurrent touch disjoint elements.

        Two same-step blocks conflict when they access an overlapping index
        of the same non-server array and at least one access is a write.
        Server-array accesses are exempt — they are the loop's explicitly
        relaxed dependences (buffered writes / parameter-server reads).
        """
        server_names = set(self._server_arrays)
        by_step: Dict[int, List[TaskRecord]] = {}
        for record in records:
            by_step.setdefault(record.task.step, []).append(record)
        for step_records in by_step.values():
            for left, stats_a in enumerate(step_records):
                for stats_b in step_records[left + 1:]:
                    self._check_pair(stats_a, stats_b, server_names)

    @staticmethod
    def _check_pair(stats_a, stats_b, server_names):
        task_a, task_b = stats_a.task, stats_b.task
        for writer, other in ((stats_a, stats_b), (stats_b, stats_a)):
            touched: Dict[str, List[Tuple[Any, ...]]] = {}
            for name, idx, _w in other.accesses:
                if name not in server_names:
                    touched.setdefault(name, []).append(idx)
            for name, idx, is_write in writer.accesses:
                if not is_write or name in server_names:
                    continue
                for other_idx in touched.get(name, ()):  # write vs anything
                    if indices_overlap(idx, other_idx):
                        raise ExecutionError(
                            f"serializability violation at step "
                            f"{task_a.step}: workers {task_a.worker} and "
                            f"{task_b.worker} both touch {name}{idx} "
                            "(write involved)"
                        )

    def _sanitize_check(self, task_records: List[TaskRecord]) -> None:
        """Cross-check the epoch's shadow-access records against the plan.

        Runs :func:`repro.sanitizer.check_epoch` over every task's
        records, bumps the sanitize counters, and raises
        :class:`~repro.sanitizer.SanitizerError` (fail-stop) on any
        violation — a sanitized run that completes is a certificate that
        the analyzer's claims held for every executed iteration.
        """
        records = [
            shadow for record in task_records for shadow in record.shadow
        ]
        server_names = frozenset(
            array.name for array in self._server_arrays.values()
        )
        prefetch_fn = self.prefetch.prefetch_fn
        values = None
        if prefetch_fn is not None and server_names:
            if self._sanitize_values is None:
                self._sanitize_values = dict(
                    self.info.iteration_space.entries()
                )
            values = self._sanitize_values
        diagnostics = check_epoch(
            self.info,
            self.plan,
            records,
            server_names=server_names,
            prefetch_fn=prefetch_fn,
            values=values,
        )
        self.metrics.counter("sanitize_epochs_total").inc()
        self.metrics.counter("sanitize_records_total").inc(len(records))
        if diagnostics:
            self.metrics.counter("sanitize_violations_total").inc(
                len(diagnostics)
            )
            raise SanitizerError(diagnostics)
