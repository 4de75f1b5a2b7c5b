"""LoopOptions: the consolidated configuration of one parallel for-loop.

Every knob of ``OrionContext.parallel_for`` lives on this dataclass; the
call itself — and every app builder — takes only ``options=``::

    loop = ctx.parallel_for(data, options=LoopOptions(ordered=True))(body)

See ``docs/api.md`` for the option table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, Union

from repro.obs.observability import Observability

if TYPE_CHECKING:  # annotation-only: repro.faults imports repro.runtime
    from repro.faults.plan import FaultPlan
    from repro.runtime.checkpoint import CheckpointConfig

__all__ = ["BACKENDS", "LoopOptions"]

#: Valid ``LoopOptions.backend`` values, in oracle-to-real order.
BACKENDS: Tuple[str, ...] = ("simulated", "multiprocess")


@dataclass
class LoopOptions:
    """Every knob of one parallel for-loop, in one place.

    Scheduling / execution:

    Attributes:
        ordered: enforce lexicographic iteration order.
        force_dims: override the partitioning-dimension heuristic.
        pipeline_depth: time partitions per worker for unordered 2D
            (default 2, the paper's Fig. 8 depth).  Each plan clamps it
            to the time extent; the executor's
            ``run_summary()["resolved"]`` reports the value actually
            used.  Changing it moves the clock, never the model (see
            "Pipeline depth" in ``docs/runtime.md``).
        balance: histogram-balanced partition bounds (vs. equal width).
        validate: record accesses and verify every epoch that same-step
            blocks touch disjoint elements (serializability check; slow,
            for tests).  Honoured on every backend: multiprocess workers
            ship their access records to the master, which runs the same
            check.
        prefetch: ``"auto"`` synthesizes and uses a bulk-prefetch function
            for server arrays, ``"none"`` models per-access round trips.
        cache_prefetch: cache each block's prefetch indices across epochs
            (on by default — the paper's 9.2 s → 6.3 s step; ``False``
            models re-running the synthesized function every pass).
        backend: which runtime executes the compiled plan, one of
            :data:`BACKENDS`.  ``"simulated"`` (default) is the
            deterministic virtual-clock linearization — scheduled-concurrent
            blocks run one after another; ``"multiprocess"`` runs the plan
            on forked OS processes over shared-memory partitions
            (:class:`~repro.runtime.distributed.MultiprocessRunner`) and
            reports *real* wall-clock epoch times.
        kernel: batched block kernel selection — ``"auto"`` (default:
            synthesize one from the loop body via
            :mod:`repro.analysis.synth`, falling back to the scalar
            interpreter with a W50x diagnostic when the body is not
            batchable), ``"off"``/``None`` for the scalar path, or a
            callable following the contract in ``runtime/kernels.py``.
            A kernel runs only where the plan proves block-batched
            execution legal; the scalar body runs otherwise.
        equivalence_check: execute the first kernel-eligible block through
            *both* paths and raise ``ExecutionError`` unless they produce
            identical array/buffer state and accounting.  The block runs
            twice, so the program must be replayable: no RNG draws in the
            body and no buffer apply UDF that mutates state outside the
            DistArrays (the rewind restores only array and buffer
            contents).  Refused on ``backend="multiprocess"``, where
            rewinding shared-memory state under concurrently running
            workers is unsound.
        sanitize: run the shadow-access race detector
            (:mod:`repro.sanitizer`): record every actual DistArray
            element access per iteration and fail the epoch if the
            analyzer's dependence claims, buffered-write exemptions or
            prefetch footprint are contradicted.  Forces scalar
            (non-kernel) execution.
        obs: bundled :class:`~repro.obs.observability.Observability`
            (tracer + metrics); ``None`` takes the context's.
        trace_process: Perfetto process label for this loop's spans,
            letting several engines share one trace file side by side.

    Fault tolerance:

    Attributes:
        faults: a :class:`~repro.faults.plan.FaultPlan` of injected
            crashes/stragglers, or ``None`` for a fault-free cluster
            (bit-identical to pre-fault-subsystem runs).
        checkpoint: a :class:`~repro.runtime.checkpoint.CheckpointConfig`
            making the loop checkpoint its mutated arrays every N epochs
            and recover from the latest complete tag after a crash.

    Run persistence (see :mod:`repro.obs.runstore`):

    Attributes:
        run_store: where to persist one structured record per
            :meth:`~repro.api.ParallelLoop.run` call — a
            :class:`~repro.obs.runstore.RunStore`, a directory path, or
            ``True`` for the default ``.repro_runs/``.  ``None``
            (default) records nothing and leaves run results
            bit-identical to unrecorded runs (the record is pure
            introspection written after the pass completes).
        run_label: label stored in the run records (defaults to
            ``trace_process``).
    """

    ordered: bool = False
    force_dims: Optional[Tuple[int, ...]] = None
    pipeline_depth: int = 2
    balance: bool = True
    validate: bool = False
    prefetch: str = "auto"
    cache_prefetch: bool = True
    backend: str = "simulated"
    kernel: Optional[Union[Callable[..., Any], str]] = "auto"
    equivalence_check: bool = False
    sanitize: bool = False
    obs: Optional[Observability] = None
    trace_process: str = "orion"
    faults: Optional[FaultPlan] = None
    checkpoint: Optional[CheckpointConfig] = None
    run_store: Optional[Any] = None
    run_label: Optional[str] = None

    def merged_with(self, **overrides: Any) -> "LoopOptions":
        """A copy with the overrides applied."""
        return replace(self, **overrides) if overrides else self

    def resolve_obs(
        self, default: Optional[Observability] = None
    ) -> Observability:
        """The effective observability pair for this loop: ``obs``,
        else ``default`` (the context's pair), else disabled."""
        return Observability.resolve(obs=self.obs, default=default)
