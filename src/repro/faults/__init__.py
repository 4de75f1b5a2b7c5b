"""Deterministic fault injection and recovery for the simulated cluster.

The paper's fault-tolerance story (Sec. 4.3) is checkpoint/restore of the
parameter DistArrays; this package makes it *exercisable*: a
:class:`FaultPlan` injects worker/machine crashes and straggler slowdowns
at virtual times, and the executor detects a crash at the next barrier
and replays from the latest complete checkpoint.  Everything is keyed off
seeds and virtual time, so a given plan produces the same failures — and
the same recovered state — on every run.

Quick use::

    from repro import FaultPlan, LoopOptions

    plan = FaultPlan.random(seed=7, epochs=10, num_workers=4, crashes=1)
    loop = ctx.parallel_for(data, options=LoopOptions(faults=plan))(body)
    loop.run(10)      # crashes, recovers, and charges the virtual clock

With no plan attached nothing changes: every run is bit-identical to an
uninstrumented one.
"""

from repro.faults.plan import (
    FaultPlan,
    FiredCrash,
    RecoveryCosts,
    Straggler,
    WorkerCrash,
)
from repro.faults.recovery import RecoveryManager

__all__ = [
    "FaultPlan",
    "WorkerCrash",
    "Straggler",
    "RecoveryCosts",
    "FiredCrash",
    "RecoveryManager",
]
