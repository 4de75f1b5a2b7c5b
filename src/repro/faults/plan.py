"""Fault plans: *what* fails, *when*, deterministically.

A :class:`FaultPlan` is a declarative schedule of injected failures —
worker/machine crashes and straggler slowdowns — pinned to virtual time
(or logical epochs) rather than wall time, so a plan replays identically
on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import FaultError

__all__ = [
    "WorkerCrash",
    "Straggler",
    "RecoveryCosts",
    "FiredCrash",
    "FaultPlan",
]


@dataclass(frozen=True)
class WorkerCrash:
    """One crash event: a worker (or a whole machine) dies.

    Give either an absolute virtual time (``at_s``) or a logical epoch
    plus a position within it (``epoch``/``frac``).  ``machine`` crashes
    every worker on that machine; otherwise ``worker`` names the victim.
    """

    worker: int = 0
    machine: Optional[int] = None
    at_s: Optional[float] = None
    epoch: Optional[int] = None
    frac: float = 0.5

    def __post_init__(self) -> None:
        if (self.at_s is None) == (self.epoch is None):
            raise FaultError(
                "WorkerCrash needs exactly one of at_s= or epoch="
            )
        if self.epoch is not None and self.epoch < 1:
            raise FaultError("crash epoch is 1-based and must be >= 1")
        if not 0.0 <= self.frac <= 1.0:
            raise FaultError("crash frac must be in [0, 1]")


@dataclass(frozen=True)
class Straggler:
    """A transient slowdown: one worker's blocks take ``slowdown``× longer.

    Scope it to a logical ``epoch`` or to an absolute virtual time window
    ``[t_start, t_end)`` (a window overlapping an epoch scales that
    epoch's work by the overlap fraction).
    """

    worker: int
    slowdown: float = 2.0
    epoch: Optional[int] = None
    t_start: Optional[float] = None
    t_end: Optional[float] = None

    def __post_init__(self) -> None:
        window = self.t_start is not None and self.t_end is not None
        if (self.epoch is None) == (not window):
            raise FaultError(
                "Straggler needs epoch= or both t_start=/t_end="
            )
        if self.slowdown < 1.0:
            raise FaultError("slowdown must be >= 1.0")


@dataclass(frozen=True)
class RecoveryCosts:
    """Virtual-time prices of detecting and repairing a crash.

    Attributes:
        detection_timeout_s: heartbeat timeout between the barrier at
            which the crash becomes visible and the recovery decision.
        restart_s: spawning a replacement worker process.
        restore_bandwidth_bytes_per_s: disk/NFS bandwidth for writing and
            reading checkpoints (charged per checkpointed byte).
    """

    detection_timeout_s: float = 5e-3
    restart_s: float = 2e-2
    restore_bandwidth_bytes_per_s: float = 1e9


@dataclass(frozen=True)
class FiredCrash:
    """A crash event resolved onto the timeline of one epoch."""

    crash: WorkerCrash
    at_s: float

    def describe(self) -> str:
        if self.crash.machine is not None:
            return f"machine {self.crash.machine}"
        return f"worker {self.crash.worker}"


class FaultPlan:
    """A deterministic schedule of injected failures.

    Attributes:
        crashes: :class:`WorkerCrash` events; each fires at most once.
        stragglers: :class:`Straggler` slowdowns.
        costs: recovery cost model.

    The plan carries one piece of mutable state: which crashes have
    already fired.  Call :meth:`reset` (or build a fresh plan) before
    replaying a run from scratch.
    """

    def __init__(
        self,
        crashes: Iterable[WorkerCrash] = (),
        stragglers: Iterable[Straggler] = (),
        costs: Optional[RecoveryCosts] = None,
    ) -> None:
        self.crashes: Tuple[WorkerCrash, ...] = tuple(crashes)
        self.stragglers: Tuple[Straggler, ...] = tuple(stragglers)
        self.costs = costs if costs is not None else RecoveryCosts()
        self._fired: set = set()

    def __repr__(self) -> str:
        return (
            f"FaultPlan(crashes={len(self.crashes)}, "
            f"stragglers={len(self.stragglers)})"
        )

    def reset(self) -> None:
        """Forget which crashes have fired (for replaying from scratch)."""
        self._fired.clear()

    # ---------------- crash resolution --------------------------------- #

    def claim_crash(
        self, epoch: Optional[int], t0: float, t1: float
    ) -> Optional[FiredCrash]:
        """The first unfired crash landing in ``[t0, t1)``, marked fired.

        Epoch-pinned crashes fire when ``epoch`` matches, at
        ``t0 + frac * (t1 - t0)``.  Time-pinned crashes fire in the first
        epoch whose window reaches their ``at_s`` — including overdue
        events whose time passed while the clock was paused for recovery
        (clamped to ``t0``), so a crash scheduled during a restore still
        happens instead of silently vanishing.
        """
        for index, crash in enumerate(self.crashes):
            if index in self._fired:
                continue
            at: Optional[float] = None
            if crash.epoch is not None:
                if epoch is not None and crash.epoch == epoch:
                    at = t0 + crash.frac * max(t1 - t0, 0.0)
            elif crash.at_s is not None and crash.at_s < t1:
                at = min(max(crash.at_s, t0), t1)
            if at is not None:
                self._fired.add(index)
                return FiredCrash(crash=crash, at_s=at)
        return None

    # ---------------- stragglers --------------------------------------- #

    def straggle_factors(
        self, epoch: Optional[int], t0: float, t1: float
    ) -> Dict[int, float]:
        """Per-worker slowdown factors applying to the epoch ``[t0, t1)``.

        A time-windowed straggler overlapping part of the epoch scales by
        the overlap fraction (the worker ran slow for that share of the
        pass); overlapping stragglers take the max factor per worker.
        """
        factors: Dict[int, float] = {}
        for straggler in self.stragglers:
            factor = 1.0
            if straggler.epoch is not None:
                if epoch is not None and straggler.epoch == epoch:
                    factor = straggler.slowdown
            elif t1 > t0:
                lo = max(t0, straggler.t_start)
                hi = min(t1, straggler.t_end)
                if hi > lo:
                    overlap = (hi - lo) / (t1 - t0)
                    factor = 1.0 + (straggler.slowdown - 1.0) * overlap
            if factor > 1.0:
                current = factors.get(straggler.worker, 1.0)
                factors[straggler.worker] = max(current, factor)
        return factors

    # ---------------- constructors ------------------------------------- #

    @classmethod
    def random(
        cls,
        seed: int,
        epochs: int,
        num_workers: int,
        crashes: int = 1,
        stragglers: int = 0,
        straggler_slowdown: float = 3.0,
        costs: Optional[RecoveryCosts] = None,
    ) -> "FaultPlan":
        """A seeded random plan over ``epochs`` passes of ``num_workers``.

        Crash/straggler victims, epochs and in-epoch positions are drawn
        from ``numpy.random.default_rng(seed)``; the same arguments always
        produce the same plan.
        """
        if epochs < 1 or num_workers < 1:
            raise FaultError("random plan needs epochs >= 1, num_workers >= 1")
        rng = np.random.default_rng(seed)
        crash_events: List[WorkerCrash] = [
            WorkerCrash(
                worker=int(rng.integers(num_workers)),
                epoch=int(rng.integers(1, epochs + 1)),
                frac=float(rng.uniform(0.1, 0.9)),
            )
            for _ in range(crashes)
        ]
        straggler_events: List[Straggler] = [
            Straggler(
                worker=int(rng.integers(num_workers)),
                epoch=int(rng.integers(1, epochs + 1)),
                slowdown=float(rng.uniform(1.5, max(1.5, straggler_slowdown))),
            )
            for _ in range(stragglers)
        ]
        return cls(
            crashes=crash_events, stragglers=straggler_events, costs=costs
        )

    @classmethod
    def from_spec(
        cls, spec: str, epochs: int, num_workers: int
    ) -> "FaultPlan":
        """Parse a CLI spec like ``"seed=7,crashes=1,stragglers=1"``.

        Keys: ``seed`` (int, default 0), ``crashes`` (int, default 1),
        ``stragglers`` (int, default 0), ``slowdown`` (float).  Events are
        drawn via :meth:`random`.
        """
        values: Dict[str, str] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise FaultError(f"bad --faults item {item!r} (expected key=value)")
            key, _, value = item.partition("=")
            values[key.strip()] = value.strip()
        known = {"seed", "crashes", "stragglers", "slowdown"}
        unknown = set(values) - known
        if unknown:
            raise FaultError(
                f"unknown --faults key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        try:
            return cls.random(
                seed=int(values.get("seed", 0)),
                epochs=epochs,
                num_workers=num_workers,
                crashes=int(values.get("crashes", 1)),
                stragglers=int(values.get("stragglers", 0)),
                straggler_slowdown=float(values.get("slowdown", 3.0)),
            )
        except ValueError as exc:
            raise FaultError(f"bad value in {spec!r}: {exc}")
