"""Shared application plumbing: Orion programs and the serial-app protocol.

Every paper application is provided in two equivalent forms:

* an **Orion program** — the real thing: DistArrays + ``parallel_for``
  loop bodies that go through static analysis, strategy selection and the
  distributed executor (this is what the paper's Table 2 describes);
* a **serial app** — plain numpy state plus an ``apply_entry`` update,
  which the baseline engines (serial, Bösen data parallelism, managed
  communication, TensorFlow-style mini-batching) drive with their own
  staleness and synchronization semantics.

Both forms share hyperparameters and loss functions, so convergence
comparisons across engines measure parallelization strategy and nothing
else.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import OrionContext, ParallelLoop
from repro.runtime.executor import EpochResult
from repro.runtime.history import RunHistory

__all__ = [
    "OrionProgram",
    "SerialApp",
]

Entry = Tuple[Tuple[int, ...], Any]


@dataclass
class OrionProgram:
    """A runnable Orion training program.

    Attributes:
        label: name used in histories and printed tables.
        ctx: the driver context (owns the virtual clock and traffic log).
        epoch_fn: runs one data pass (usually one ``ParallelLoop.run()``;
            GBT runs a whole boosting round of several loops) and returns
            the epoch's :class:`EpochResult` list.
        loss_fn: measures the objective from the current DistArray state.
        train_loop: the main loop, when there is a single one (for plan
            inspection in tests and Table 2).
        arrays: the program's named DistArrays.
    """

    label: str
    ctx: OrionContext
    epoch_fn: Callable[[], List[EpochResult]]
    loss_fn: Callable[[], float]
    train_loop: Optional[ParallelLoop] = None
    arrays: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def plan(self):
        """The main loop's parallelization plan (None for multi-loop apps)."""
        return self.train_loop.plan if self.train_loop is not None else None

    def close(self) -> None:
        """Release backend resources of every loop in the program (worker
        processes, shared memory) via :meth:`OrionContext.close`."""
        self.ctx.close()

    def __enter__(self) -> "OrionProgram":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, epochs: int) -> RunHistory:
        """Train for ``epochs`` data passes, measuring loss after each.

        The history surfaces the executor's observability output: each
        record carries the pass's worker utilization, and ``meta`` gains
        ``kernel_path`` (whether the batched-kernel fast path ran) plus the
        live ``tracer``/``metrics`` objects when tracing is enabled, so
        benchmarks opt in with one flag and export afterwards.
        """
        history = RunHistory(label=self.label, traffic=self.ctx.traffic)
        history.meta["initial_loss"] = self.loss_fn()
        history.meta.update(self.meta)
        executor = (
            self.train_loop.executor if self.train_loop is not None else None
        )
        if executor is not None:
            history.meta["kernel_path"] = executor.kernel_path
            history.meta["kernel_tier"] = executor.kernel_tier
            # Kernel-synthesis fallback diagnostics (W501-W503): recorded
            # so a run's report can explain why the scalar path ran
            # without a separate `repro lint` invocation.
            kernel_diags = [
                diag.describe()
                for diag in self.train_loop.diagnostics()
                if diag.code.startswith("W5")
            ]
            if kernel_diags:
                history.meta["kernel_diagnostics"] = kernel_diags
            if executor.tracer.enabled:
                history.meta["tracer"] = executor.tracer
            if executor.metrics.enabled:
                history.meta["metrics"] = executor.metrics
        # Crash-protected loops charge recovery/checkpoint time directly on
        # the context clock (outside any EpochResult), so the pass time is
        # the clock delta; unprotected loops keep the historical sum (the
        # two only differ by float association, and bit-identity matters).
        protected = (
            self.train_loop is not None
            and self.train_loop._recovery is not None
        )
        recoveries = 0
        for _ in range(epochs):
            t_before = self.ctx.now
            results = self.epoch_fn()
            epoch_time = sum(result.epoch_time_s for result in results)
            if protected:
                epoch_time = self.ctx.now - t_before
            recoveries += sum(
                1 for result in results if result.fault is not None
            )
            nbytes = sum(result.bytes_sent for result in results)
            # Utilization of the pass: busy worker-seconds over capacity,
            # i.e. the makespan-weighted mean of per-loop utilizations.
            busy = sum(
                result.utilization * result.epoch_time_s for result in results
            )
            utilization = busy / epoch_time if epoch_time > 0 else 0.0
            history.append(
                self.loss_fn(), epoch_time, nbytes, utilization=utilization
            )
        if recoveries:
            history.meta["recoveries"] = recoveries
        return history


class SerialApp(abc.ABC):
    """The numpy form of an application, driven by baseline engines.

    Engines own staleness: they hand ``apply_entry`` a *replica* of the
    state and synchronize replicas according to their semantics.  State is
    a flat dict of numpy arrays so engines can snapshot, diff and merge it
    generically.
    """

    #: Application name used in labels.
    name: str = "app"
    #: Relative compute cost per processed entry (1.0 = plain SGD MF step).
    entry_cost_factor: float = 1.0

    @abc.abstractmethod
    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        """Fresh model state (one numpy array per parameter tensor)."""

    @abc.abstractmethod
    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        """Process one data entry, updating ``state`` in place."""

    @abc.abstractmethod
    def loss(self, state: Dict[str, np.ndarray]) -> float:
        """Objective value of ``state`` on the training set."""

    @abc.abstractmethod
    def entries(self) -> List[Entry]:
        """The training entries (the iteration space)."""

    def model_nbytes(self, state: Dict[str, np.ndarray]) -> int:
        """Total model payload, for communication accounting."""
        return int(sum(array.nbytes for array in state.values()))

    def clone_state(self, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Deep copy of the state dict (one worker replica)."""
        return {name: array.copy() for name, array in state.items()}
