"""Crash recovery for parallel loops: restore, replay, charge the clock.

One :class:`RecoveryManager` is attached to a :class:`~repro.api.ParallelLoop`
when its options carry a fault plan or a checkpoint config.  It

* drives a :class:`~repro.runtime.checkpoint.CheckpointPolicy` after each
  completed epoch (wiring Sec. 4.3's "checkpoint every N passes" into the
  epoch loop), charging the virtual clock for the write;
* snapshots accumulator slots alongside each checkpoint (and the initial
  state before epoch 1), so restored runs resume with consistent
  accumulator values, not post-crash garbage;
* on a detected crash, restores the latest *complete* checkpoint (or the
  initial snapshot when none exists yet), charges restart + restore time,
  and tells the loop which epoch to replay from.

The numeric restore is exact — array contents come back bit-identical —
so a recovered run converges to the same state as a fault-free run
resumed from the same checkpoint; the crash costs only virtual time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FaultError
from repro.faults.plan import RecoveryCosts
from repro.runtime.checkpoint import (
    CheckpointConfig,
    CheckpointPolicy,
    latest_complete_tag,
    manifest_meta,
)

__all__ = ["RecoveryManager"]


def _copy_value(value: Any) -> Any:
    return value.copy() if isinstance(value, np.ndarray) else value


class RecoveryManager:
    """Checkpoint/restore driver for one parallel loop.

    Args:
        arrays: the DistArrays to protect (the loop's mutated arrays and
            buffer flush targets, or the checkpoint config's explicit
            list).
        accumulators: name -> Accumulator referenced by the loop body.
        checkpoint: optional on-disk checkpoint config; without it,
            recovery restarts from an in-memory snapshot of the initial
            state (epoch 0).
        costs: virtual-time prices for detection/restart/restore.
        tracer / metrics: observability sinks (``checkpoint`` and
            ``recovery`` spans on the ``faults`` track).
        trace_process: Perfetto process label for emitted spans.
    """

    def __init__(
        self,
        arrays: List[Any],
        accumulators: Dict[str, Any],
        checkpoint: Optional[CheckpointConfig],
        costs: Optional[RecoveryCosts],
        tracer,
        metrics,
        trace_process: str = "orion",
    ) -> None:
        self.arrays = list(arrays)
        self.accumulators = dict(accumulators)
        self.costs = costs if costs is not None else RecoveryCosts()
        self.tracer = tracer
        self.metrics = metrics
        self.trace_process = trace_process
        self.policy: Optional[CheckpointPolicy] = None
        if checkpoint is not None:
            self.policy = CheckpointPolicy(
                self.arrays,
                checkpoint.directory,
                every_n_epochs=checkpoint.every_n_epochs,
                keep=checkpoint.keep,
            )
        #: Epoch of the newest checkpoint (0 = only the initial snapshot).
        self.checkpoint_epoch = 0
        #: Epoch-0 contents — what a crash before the first checkpoint
        #: restores.
        self._initial = [
            (array, array.snapshot())
            for array in self.arrays
            if array.is_materialized
        ]
        self._acc_snapshot = self._snapshot_accumulators()

    # ---------------- snapshots ---------------------------------------- #

    def _snapshot_accumulators(self) -> Dict[str, Dict[int, Any]]:
        return {
            name: {
                worker: _copy_value(value)
                for worker, value in acc._slots.items()
            }
            for name, acc in self.accumulators.items()
        }

    def _restore_accumulators(self) -> None:
        for name, slots in self._acc_snapshot.items():
            acc = self.accumulators[name]
            acc._slots.clear()
            acc._slots.update(
                (worker, _copy_value(value)) for worker, value in slots.items()
            )

    @property
    def nbytes(self) -> float:
        """Checkpointed payload, for restore-time accounting."""
        return float(sum(array.nbytes for array in self.arrays))

    # ---------------- checkpoint cadence -------------------------------- #

    def after_epoch(self, epoch: int, now: float) -> float:
        """Step the checkpoint policy after a completed epoch.

        Returns the virtual seconds to charge for the checkpoint write (0
        when none was due).  Replayed epochs at or before the restored
        checkpoint are skipped — re-writing an existing tag would only
        duplicate work the first execution already did.
        """
        if self.policy is None or epoch <= self.checkpoint_epoch:
            return 0.0
        if not self.policy.step(epoch):
            return 0.0
        self.checkpoint_epoch = epoch
        self._acc_snapshot = self._snapshot_accumulators()
        seconds = self.nbytes / self.costs.restore_bandwidth_bytes_per_s
        if self.tracer.enabled:
            self.tracer.add_span(
                f"checkpoint epoch{epoch}",
                "checkpoint",
                now,
                now + seconds,
                track="faults",
                process=self.trace_process,
                args={"epoch": epoch, "nbytes": self.nbytes},
            )
        if self.metrics.enabled:
            self.metrics.counter("checkpoints_total").inc()
            self.metrics.counter("checkpoint_seconds_total").inc(seconds)
        return seconds

    # ---------------- recovery ----------------------------------------- #

    def recover(self, now: float) -> Tuple[float, int, float]:
        """Restore state after a detected crash.

        Returns ``(seconds, replay_from, restored_nbytes)``: the virtual
        time the restore costs (restart + checkpoint read), the epoch the
        restored state corresponds to (replay resumes at ``replay_from +
        1``), and the bytes read back (0 for the in-memory snapshot).
        """
        restored_nbytes = 0.0
        replay_from = 0
        if self.policy is not None and latest_complete_tag(
            self.policy.directory
        ) is not None:
            tag = self.policy.restore_latest()
            meta = manifest_meta(self.policy.directory, tag)
            epoch = meta.get("epoch")
            if not isinstance(epoch, int):
                raise FaultError(
                    f"checkpoint tag {tag!r} has no epoch in its manifest; "
                    "cannot decide where to resume"
                )
            replay_from = epoch
            restored_nbytes = self.nbytes
        else:
            for array, saved in self._initial:
                array.restore(saved)
        self._restore_accumulators()
        seconds = self.costs.restart_s + (
            restored_nbytes / self.costs.restore_bandwidth_bytes_per_s
        )
        if self.tracer.enabled:
            self.tracer.add_span(
                f"recovery (replay from epoch {replay_from})",
                "recovery",
                now,
                now + seconds,
                track="faults",
                process=self.trace_process,
                args={
                    "replay_from": replay_from,
                    "restored_nbytes": restored_nbytes,
                },
            )
        if self.metrics.enabled:
            self.metrics.counter("recoveries_total").inc()
            self.metrics.counter("recovery_seconds_total").inc(seconds)
        return seconds, replay_from, restored_nbytes
