"""Computation schedules and their virtual-time models (paper Fig. 7/8).

Three schedules, matching the paper's Fig. 7d/e/f:

* **1D** — every worker executes its partition once; one barrier.
* **Ordered 2D (wavefront)** — global time steps ``ts``; worker ``j``
  executes block ``(space=j, time=ts-j)`` when valid; a barrier separates
  steps so the lexicographic order of dependent blocks is preserved.
* **Unordered 2D (rotation)** — workers start at different time indices
  and rotate: at step ``s``, worker ``j`` executes time index
  ``(j·d + s) mod T`` where ``T = d·W`` and ``d`` is the pipeline depth
  (multiple time indices per worker, paper Fig. 8).  A worker waits only
  for its successor's block from ``d`` steps earlier, not for a global
  barrier — the pipelining that hides rotation latency.

The timing functions take a ``work_s[space, time]`` matrix of virtual
seconds per block (compute + prefetch + flush, built by the executor) and
return the schedule's makespan together with per-task finish times, which
the executor uses to place traffic events on the virtual timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.runtime.cluster import ClusterSpec

#: Pluggable transfer cost: ``fn(nbytes, intra_machine=..., key=...)`` —
#: the ``key`` tuple names the message so an unreliable link (fault
#: injection) can resolve per-message drops deterministically.
TransferFn = Callable[..., float]


def _default_transfer(cluster: ClusterSpec) -> TransferFn:
    """The loss-free cost: the cluster's network model, key ignored."""

    def transfer(nbytes: float, intra_machine: bool = False, key=()) -> float:
        return cluster.network.transfer_time(nbytes, intra_machine)

    return transfer


__all__ = [
    "Task",
    "ScheduleTiming",
    "one_d_schedule",
    "ordered_2d_schedule",
    "unordered_2d_schedule",
    "sequential_outer_schedule",
    "time_one_d",
    "time_ordered_2d",
    "time_unordered_2d",
    "time_sequential_outer",
]


@dataclass(frozen=True)
class Task:
    """One unit of scheduled work: a worker executing one block at a step."""

    worker: int
    step: int
    space_idx: int
    time_idx: Optional[int]

    @property
    def block_key(self) -> Tuple[int, int]:
        """``(space, time)`` index of the block this task executes."""
        return (self.space_idx, self.time_idx or 0)


@dataclass
class ScheduleTiming:
    """Virtual-time outcome of one scheduled epoch."""

    makespan: float
    #: Finish time of each task, keyed by ``(worker, step)``.
    finish: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: Global synchronization intervals ``(t_start, t_end)`` — the barrier
    #: waits the schedule charges, for tracing (``barrier`` spans).
    barriers: List[Tuple[float, float]] = field(default_factory=list)


def one_d_schedule(num_workers: int) -> List[List[Task]]:
    """Paper Fig. 7d: one parallel step, worker ``j`` runs partition ``j``."""
    return [[Task(worker=j, step=0, space_idx=j, time_idx=0)
             for j in range(num_workers)]]


def ordered_2d_schedule(num_workers: int, num_time: int) -> List[List[Task]]:
    """Paper Fig. 7e: wavefront over ``num_time + num_workers - 1`` steps."""
    steps: List[List[Task]] = []
    for global_step in range(num_time + num_workers - 1):
        tasks = []
        for worker in range(num_workers):
            time_idx = global_step - worker
            if 0 <= time_idx < num_time:
                tasks.append(
                    Task(
                        worker=worker,
                        step=global_step,
                        space_idx=worker,
                        time_idx=time_idx,
                    )
                )
        steps.append(tasks)
    return steps


def unordered_2d_schedule(num_workers: int, num_time: int) -> List[List[Task]]:
    """Paper Fig. 7f/Fig. 8: rotation with staggered start indices.

    Requires ``num_time`` to be a multiple of ``num_workers`` (the multiple
    is the pipeline depth).  Every worker touches every time index exactly
    once over ``num_time`` steps, and within a step all workers hold
    distinct time indices.
    """
    if num_time % num_workers != 0:
        raise ExecutionError(
            f"unordered 2D needs num_time ({num_time}) divisible by "
            f"num_workers ({num_workers})"
        )
    depth = num_time // num_workers
    steps = []
    for step in range(num_time):
        steps.append(
            [
                Task(
                    worker=worker,
                    step=step,
                    space_idx=worker,
                    time_idx=(worker * depth + step) % num_time,
                )
                for worker in range(num_workers)
            ]
        )
    return steps


def sequential_outer_schedule(
    num_workers: int, num_time: int
) -> List[List[Task]]:
    """Unimodular plans: the transformed outer level carries every
    dependence, so its blocks run strictly one after another while the
    inner (space) blocks of each outer index run in parallel."""
    steps = []
    for time_idx in range(num_time):
        steps.append(
            [
                Task(worker=j, step=time_idx, space_idx=j, time_idx=time_idx)
                for j in range(num_workers)
            ]
        )
    return steps


def time_one_d(work_s: np.ndarray, cluster: ClusterSpec) -> ScheduleTiming:
    """Makespan of the 1D schedule: slowest worker plus one barrier."""
    finish: Dict[Tuple[int, int], float] = {}
    for worker in range(work_s.shape[0]):
        finish[(worker, 0)] = float(work_s[worker].sum())
    slowest = max(finish.values())
    makespan = slowest + cluster.cost.sync_overhead_s
    return ScheduleTiming(
        makespan=makespan, finish=finish, barriers=[(slowest, makespan)]
    )


def time_ordered_2d(
    work_s: np.ndarray,
    cluster: ClusterSpec,
    rotated_block_bytes: float,
    transfer_time: Optional[TransferFn] = None,
) -> ScheduleTiming:
    """Makespan of the wavefront schedule (global barrier per step).

    Each step costs the slowest active block, plus the rotated-partition
    transfer to the next worker, plus the barrier.  ``transfer_time``
    optionally replaces the cluster's loss-free cost (fault injection:
    a dropped rotation message delays the whole step's barrier).
    """
    num_workers, num_time = work_s.shape
    if transfer_time is None:
        transfer_time = _default_transfer(cluster)
    clock = 0.0
    finish: Dict[Tuple[int, int], float] = {}
    barriers: List[Tuple[float, float]] = []
    for tasks in ordered_2d_schedule(num_workers, num_time):
        if not tasks:
            continue
        step_work = 0.0
        step = tasks[0].step
        for task in tasks:
            duration = float(work_s[task.space_idx, task.time_idx])
            finish[(task.worker, task.step)] = clock + duration
            step_work = max(step_work, duration)
        transfer = transfer_time(
            rotated_block_bytes, key=("rotation", step)
        )
        barrier_start = clock + step_work + transfer
        clock += step_work + transfer + cluster.cost.sync_overhead_s
        barriers.append((min(barrier_start, clock), clock))
    return ScheduleTiming(makespan=clock, finish=finish, barriers=barriers)


def time_unordered_2d(
    work_s: np.ndarray,
    cluster: ClusterSpec,
    rotated_block_bytes: float,
    depth: Optional[int] = None,
    transfer_time: Optional[TransferFn] = None,
) -> ScheduleTiming:
    """Makespan of the pipelined rotation schedule (paper Fig. 8).

    ``finish[j][s] = max(finish[j][s-1], arrival[j][s]) + work``, where the
    block executed by worker ``j`` at step ``s >= depth`` arrives from the
    successor worker ``j+1`` which finished with it at step ``s - depth``,
    plus one transfer.  With depth > 1 the transfer overlaps the worker's
    other locally available block — the paper's idle-time elimination.
    ``transfer_time`` optionally replaces the loss-free network cost; its
    ``key`` names the message (sender, send step) so fault injection can
    drop individual rotation hops deterministically.
    """
    num_workers, num_time = work_s.shape
    if depth is None:
        if num_time % num_workers != 0:
            raise ExecutionError("num_time must be a multiple of num_workers")
        depth = num_time // num_workers
    if transfer_time is None:
        transfer_time = _default_transfer(cluster)
    finish_matrix = np.zeros((num_workers, num_time))
    finish: Dict[Tuple[int, int], float] = {}
    for step in range(num_time):
        for worker in range(num_workers):
            time_idx = (worker * depth + step) % num_time
            ready = finish_matrix[worker, step - 1] if step > 0 else 0.0
            if step >= depth:
                successor = (worker + 1) % num_workers
                transfer = transfer_time(
                    rotated_block_bytes,
                    intra_machine=cluster.same_machine(worker, successor),
                    key=("rotation", successor, step - depth),
                )
                arrival = finish_matrix[successor, step - depth] + transfer
                ready = max(ready, arrival)
            finish_matrix[worker, step] = ready + float(work_s[worker, time_idx])
            finish[(worker, step)] = float(finish_matrix[worker, step])
    slowest = float(finish_matrix[:, num_time - 1].max())
    makespan = slowest + cluster.cost.sync_overhead_s
    return ScheduleTiming(
        makespan=makespan, finish=finish, barriers=[(slowest, makespan)]
    )


def time_sequential_outer(
    work_s: np.ndarray, cluster: ClusterSpec
) -> ScheduleTiming:
    """Makespan of the sequential-outer schedule (unimodular plans):
    sum over outer indices of the slowest inner block, barrier each."""
    num_workers, num_time = work_s.shape
    clock = 0.0
    finish: Dict[Tuple[int, int], float] = {}
    barriers: List[Tuple[float, float]] = []
    for time_idx in range(num_time):
        step_work = 0.0
        for worker in range(num_workers):
            duration = float(work_s[worker, time_idx])
            finish[(worker, time_idx)] = clock + duration
            step_work = max(step_work, duration)
        barrier_start = clock + step_work
        clock += step_work + cluster.cost.sync_overhead_s
        barriers.append((min(barrier_start, clock), clock))
    return ScheduleTiming(makespan=clock, finish=finish, barriers=barriers)
