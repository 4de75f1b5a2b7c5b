"""Pluggable execution backends for compiled parallel loops.

One compiled plan — analysis, placements, partitions, schedule — can run
on any of three backends, selected with ``parallel_for(...,
backend=...)`` or ``--backend`` on the CLI (the executor/provider split
Parsl popularized, applied to Orion's plans):

``simulated``
    The deterministic virtual-clock linearization
    (:class:`~repro.runtime.executor.OrionExecutor`).  The oracle: every
    other backend's dependence-preserving runs are compared bitwise
    against it.
``threaded``
    The same executor with each schedule step's blocks on a thread pool
    — real in-process concurrency, still on the virtual clock.
``multiprocess``
    Forked OS processes over shared-memory partitions
    (:class:`~repro.runtime.distributed.MultiprocessRunner`): real
    wall-clock epoch times (``EpochResult.clock == "real"``), worker-side
    kernels, direct token-based rotation.

Each backend exposes the same few methods (:class:`Backend`), so
:class:`~repro.api.ParallelLoop` drives them interchangeably.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.analysis.synth import level_schedule_stats
from repro.errors import ExecutionError
from repro.runtime.executor import EpochResult

if TYPE_CHECKING:
    from repro.api import ParallelLoop

__all__ = [
    "BACKENDS",
    "Backend",
    "SimulatedBackend",
    "MultiprocessBackend",
    "create_backend",
]

#: Valid ``LoopOptions.backend`` values, in oracle-to-real order.
BACKENDS: Tuple[str, ...] = ("simulated", "threaded", "multiprocess")


class Backend:
    """What a loop needs from its execution engine: epochs and shutdown."""

    name = "backend"

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        """Execute one full data pass."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (processes, pools, shared memory)."""

    def level_schedule(self) -> Optional[Dict[str, float]]:
        """Width of the vector kernel's level-scheduled groups (see
        :func:`repro.analysis.synth.level_schedule_stats`), read from
        wherever this backend's per-block kernel caches live; ``None``
        before the first epoch."""
        raise NotImplementedError


class SimulatedBackend(Backend):
    """The virtual-clock executor — a thin adapter, zero overhead.

    Serves ``backend="simulated"`` and ``"threaded"`` alike: the executor
    reads the option itself to decide whether a step's blocks go to its
    thread pool, so the adapter only reports which one was asked for."""

    def __init__(self, loop: "ParallelLoop") -> None:
        self._executor = loop.executor
        self.name = loop.options.backend

    def run_epoch(
        self, t0: float = 0.0, epoch: Optional[int] = None
    ) -> EpochResult:
        return self._executor.run_epoch(t0=t0, epoch=epoch)

    def close(self) -> None:
        self._executor.close()

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
        self._loop.executor.close()

    def level_schedule(self) -> Optional[Dict[str, float]]:
        """The workers hold the caches; their counts reach the runner
        with the first epoch's payload."""
        if self._runner is None:
            return None
        return self._runner.runner_meta()["level_schedule"]


def create_backend(loop: "ParallelLoop") -> Backend:
    """Instantiate the backend the loop's options selected."""
    backend = loop.options.backend
    if backend in ("simulated", "threaded"):
        return SimulatedBackend(loop)
    if backend == "multiprocess":
        return MultiprocessBackend(loop)
    raise ExecutionError(f"unknown backend {backend!r}")
