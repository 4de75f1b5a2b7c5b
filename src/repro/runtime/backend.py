"""Pluggable execution backends for compiled parallel loops.

One compiled plan — analysis, placements, partitions, schedule — can run
on either of two backends, selected with ``LoopOptions(backend=...)`` or
``--backend`` on the CLI (the executor/provider split Parsl popularized,
applied to Orion's plans):

``simulated``
    The deterministic virtual-clock linearization
    (:class:`~repro.runtime.executor.OrionExecutor`).  The oracle: the
    real backend's dependence-preserving runs are compared bitwise
    against it.
``multiprocess``
    Forked OS processes over shared-memory partitions
    (:class:`~repro.runtime.distributed.MultiprocessRunner`): real
    wall-clock epoch times (``EpochResult.clock == "real"``), worker-side
    kernels, direct token-based rotation.

Each backend exposes the same few methods (:class:`Backend`), so
:class:`~repro.api.ParallelLoop` drives them interchangeably.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.analysis.synth import level_schedule_stats
from repro.runtime.executor import EpochResult

if TYPE_CHECKING:
    from repro.api import ParallelLoop

__all__ = [
    "Backend",
    "SimulatedBackend",
    "MultiprocessBackend",
    "create_backend",
]


class Backend:
    """What a loop needs from its execution engine: epochs and shutdown."""

    name = "backend"

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        """Execute one full data pass."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (processes, shared memory)."""

    def level_schedule(self) -> Optional[Dict[str, float]]:
        """Width of the vector kernel's level-scheduled groups (see
        :func:`repro.analysis.synth.level_schedule_stats`), read from
        wherever this backend's per-block kernel caches live; ``None``
        before the first epoch."""
        raise NotImplementedError


class SimulatedBackend(Backend):
    """The virtual-clock executor — a thin adapter, zero overhead."""

    name = "simulated"

    def __init__(self, loop: "ParallelLoop") -> None:
        self._executor = loop.executor

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        return self._executor.run_epoch(t0=t0, epoch=epoch)

    def level_schedule(self) -> Optional[Dict[str, float]]:
        return level_schedule_stats(self._executor.level_schedule_counts())


class MultiprocessBackend(Backend):
    """Real forked processes; the runner is created on first epoch."""

    name = "multiprocess"

    def __init__(self, loop: "ParallelLoop") -> None:
        self._loop = loop
        self._runner = None

    @property
    def runner(self):
        """The underlying (lazily created) MultiprocessRunner."""
        if self._runner is None:
            from repro.runtime.distributed import MultiprocessRunner

            self._runner = MultiprocessRunner(self._loop)
        return self._runner

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        # t0 is a virtual-clock anchor; real results carry their own clock.
        return self.runner.run_epoch_result(epoch=epoch)

    def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def level_schedule(self) -> Optional[Dict[str, float]]:
        """The workers hold the caches; their counts reach the runner
        with the first epoch's payload."""
        if self._runner is None:
            return None
        return self._runner.runner_meta()["level_schedule"]


def create_backend(loop: "ParallelLoop") -> Backend:
    """Instantiate the backend the loop's options selected (the executor
    already rejected any name outside
    :data:`~repro.runtime.options.BACKENDS`)."""
    if loop.options.backend == "multiprocess":
        return MultiprocessBackend(loop)
    return SimulatedBackend(loop)
