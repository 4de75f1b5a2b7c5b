"""Bösen-style data parallelism (paper Sec. 5/6; ref. [45]).

Bösen is a parameter server: the training set is randomly sharded across
workers, every worker processes its shard against a locally cached copy of
the model, and workers synchronize with the servers after processing the
entire local partition (once per data pass, in the paper's configuration).
Concurrent workers therefore compute against parameter values that are one
synchronization period stale — the conflicting accesses whose convergence
penalty motivates dependence-aware parallelization.

The engine executes that semantics literally: per sync period each worker
updates its own replica in place (its *own* updates are visible to it, as
in Bösen's client cache), and replica deltas are summed into the master at
the barrier.

Fault injection mirrors the Orion executor's model
(:mod:`repro.faults`): a :class:`~repro.faults.plan.FaultPlan` can slow
workers down and crash a worker mid-pass — detected at the next sync
barrier, recovered by restoring an in-memory model checkpoint
(``ckpt_every`` passes) and replaying the lost passes.  Without a plan,
runs are bit-identical to the fault-free engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.base import Entry, SerialApp
from repro.faults.plan import FaultPlan, RecoveryCosts
from repro.obs.observability import Observability
from repro.runtime.cluster import ClusterSpec
from repro.runtime.history import RunHistory

__all__ = ["run_bosen", "shard_entries"]


def shard_entries(
    entries: List[Entry], num_workers: int, seed: int
) -> List[List[Entry]]:
    """Random (data-parallel) sharding of the training set across workers."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entries))
    shards: List[List[Entry]] = [[] for _ in range(num_workers)]
    for position, entry_index in enumerate(order):
        shards[position % num_workers].append(entries[int(entry_index)])
    return shards


def _merge_deltas(
    master: Dict[str, np.ndarray],
    base: Dict[str, np.ndarray],
    replicas: List[Dict[str, np.ndarray]],
) -> None:
    """Additive aggregation: master = base + Σ_k (replica_k - base)."""
    for name in master:
        delta = np.zeros_like(master[name])
        for replica in replicas:
            delta += replica[name] - base[name]
        master[name] = base[name] + delta


class _SyncMark:
    """Precomputed virtual-time layout of one sync period."""

    __slots__ = ("sync_start", "works", "slowest", "barrier_end")

    def __init__(self, sync_start, works, slowest, barrier_end):
        self.sync_start = sync_start
        self.works = works
        self.slowest = slowest
        self.barrier_end = barrier_end


def run_bosen(
    app: SerialApp,
    cluster: ClusterSpec,
    epochs: int,
    seed: int = 0,
    syncs_per_epoch: int = 1,
    label: Optional[str] = None,
    trace_process: str = "bosen",
    faults: Optional[FaultPlan] = None,
    ckpt_every: Optional[int] = None,
    obs: Optional[Observability] = None,
) -> RunHistory:
    """Train ``app`` with Bösen data parallelism on ``cluster``.

    Args:
        syncs_per_epoch: synchronization barriers per data pass (Bösen's
            default configuration in the paper synchronizes after the whole
            local partition, i.e. 1).
        trace_process: Perfetto process label for this run's spans.
        faults: optional fault plan (crashes/stragglers), resolved
            against the same virtual clock as the Orion executor's.
        ckpt_every: checkpoint the model in memory every N completed
            passes; crashes replay from the latest checkpoint (without it,
            from the initial state).  The checkpoint write and restore are
            charged at the plan's restore bandwidth.
        obs: observability (tracer + metrics); per-worker shard spans
            and sync transfers are placed on the virtual timeline under
            the ``trace_process`` process, comparable side by side with
            Orion traces in one Perfetto file.
    """
    resolved = Observability.resolve(obs=obs)
    tracer, metrics = resolved.tracer, resolved.metrics
    workers = cluster.num_workers
    state = app.init_state(seed)
    shards = shard_entries(list(app.entries()), workers, seed)
    # The cost model is app-calibrated (e.g. mf_cost_model); engines use it
    # as-is so all engines charge identical per-entry compute.
    entry_cost = cluster.cost.entry_cost_s * cluster.cost.overhead_factor
    model_nbytes = app.model_nbytes(state)
    history = RunHistory(label=label or f"Bosen {app.name}")
    history.meta["initial_loss"] = app.loss(state)
    clock = 0.0

    costs = faults.costs if faults is not None else RecoveryCosts()
    protecting = faults is not None or bool(ckpt_every)
    ckpt_state = app.clone_state(state) if protecting else None
    ckpt_epoch = 0
    recoveries = 0
    #: Virtual seconds spent on crashes/recovery/checkpoints since the
    #: last completed pass — folded into the next history record so the
    #: per-pass times sum to the clock.
    pending_extra = 0.0

    per_machine_bytes = 2.0 * model_nbytes
    # Per machine and sync: push aggregated deltas, pull fresh values.
    sync_bytes = per_machine_bytes * cluster.num_machines
    sync_transfer = cluster.network.transfer_time(per_machine_bytes)

    def shard_bounds(worker: int, sync: int) -> Tuple[int, int]:
        shard = shards[worker]
        lo = len(shard) * sync // syncs_per_epoch
        hi = len(shard) * (sync + 1) // syncs_per_epoch
        return lo, hi

    def pass_marks(t0: float, factors: Dict[int, float]) -> List[_SyncMark]:
        """Absolute-time layout of one pass, matching the historical
        clock arithmetic expression for expression (bit-identity)."""
        c = t0
        marks: List[_SyncMark] = []
        for sync in range(syncs_per_epoch):
            sync_start = c
            works = []
            slowest = 0.0
            for worker in range(workers):
                lo, hi = shard_bounds(worker, sync)
                work = (hi - lo) * entry_cost
                factor = factors.get(worker)
                if factor is not None:
                    work = work * factor
                works.append(work)
                slowest = max(slowest, work)
            c += slowest
            barrier_end = c + (sync_transfer + cluster.cost.sync_overhead_s)
            marks.append(_SyncMark(sync_start, works, slowest, barrier_end))
            c = barrier_end
        return marks

    def run_pass(epoch: int):
        """One physical data pass; returns ``None`` on completion, or the
        fired crash after charging detection time (state untouched — the
        aborted pass's numerics would be discarded by the restore)."""
        nonlocal clock, pending_extra
        t0 = clock
        factors: Dict[int, float] = {}
        if faults is not None and faults.stragglers:
            baseline = pass_marks(t0, {})[-1].barrier_end - t0
            factors = {
                worker: factor
                for worker, factor in faults.straggle_factors(
                    epoch, t0, t0 + baseline
                ).items()
                if 0 <= worker < workers
            }
        marks = pass_marks(t0, factors)
        makespan = marks[-1].barrier_end - t0
        crash = (
            faults.claim_crash(epoch, t0, t0 + makespan)
            if faults is not None
            else None
        )
        if tracer.enabled:
            for worker, factor in sorted(factors.items()):
                tracer.add_span(
                    f"straggler worker{worker} x{factor:.2f}",
                    "straggler",
                    t0,
                    t0 + makespan,
                    track="faults",
                    process=trace_process,
                    args={"worker": worker, "factor": factor},
                )

        if crash is not None:
            crash_rel = crash.at_s - t0
            detect_rel = makespan
            completed_syncs = 0
            for mark in marks:
                if mark.barrier_end - t0 >= crash_rel:
                    detect_rel = max(mark.barrier_end - t0, crash_rel)
                    break
                completed_syncs += 1
            epoch_time = detect_rel + costs.detection_timeout_s
            for mark in marks[:completed_syncs]:
                sync_end = mark.sync_start + mark.slowest
                history.traffic.record(
                    sync_end, sync_end + sync_transfer, sync_bytes, "sync"
                )
                metrics.counter("traffic_bytes_sync").inc(sync_bytes)
            if tracer.enabled:
                tracer.add_span(
                    crash.describe(),
                    "fault",
                    t0 + crash_rel,
                    t0 + epoch_time,
                    track="faults",
                    process=trace_process,
                    args={
                        "worker": crash.crash.worker,
                        "epoch": epoch,
                        "detected_s": t0 + detect_rel,
                    },
                )
            metrics.counter("worker_crashes_total").inc()
            metrics.counter("fault_lost_seconds_total").inc(epoch_time)
            clock = t0 + epoch_time
            pending_extra += epoch_time
            return crash

        epoch_bytes = 0.0
        epoch_busy = 0.0
        for sync, mark in enumerate(marks):
            base = app.clone_state(state)
            replicas = []
            sync_entries = 0
            for worker in range(workers):
                lo, hi = shard_bounds(worker, sync)
                replica = app.clone_state(base)
                for key, value in shards[worker][lo:hi]:
                    app.apply_entry(replica, key, value)
                replicas.append(replica)
                epoch_busy += mark.works[worker]
                sync_entries += hi - lo
                tracer.add_span(
                    f"shard[{worker}] sync {sync}",
                    "block",
                    mark.sync_start,
                    mark.sync_start + mark.works[worker],
                    track=f"worker{worker}",
                    process=trace_process,
                    args={"entries": hi - lo},
                )
            metrics.counter("entries_total").inc(sync_entries)
            _merge_deltas(state, base, replicas)
            sync_end = mark.sync_start + mark.slowest
            history.traffic.record(
                sync_end, sync_end + sync_transfer, sync_bytes, "sync"
            )
            tracer.add_span(
                "sync",
                "sync",
                sync_end,
                sync_end + sync_transfer,
                track="net:sync",
                process=trace_process,
                args={"nbytes": sync_bytes},
            )
            metrics.counter("traffic_bytes_sync").inc(sync_bytes)
            tracer.add_span(
                "barrier",
                "barrier",
                mark.barrier_end - cluster.cost.sync_overhead_s,
                mark.barrier_end,
                track="epochs",
                process=trace_process,
                depth=1,
            )
            epoch_bytes += sync_bytes
        clock = marks[-1].barrier_end
        epoch_time = clock - t0
        if pending_extra:
            epoch_time = epoch_time + pending_extra
            pending_extra = 0.0
        capacity = workers * epoch_time
        utilization = epoch_busy / capacity if capacity > 0 else 0.0
        tracer.add_span(
            f"epoch {epoch}",
            "epoch",
            t0,
            clock,
            track="epochs",
            process=trace_process,
            args={"utilization": utilization, "bytes_sent": epoch_bytes},
        )
        metrics.counter("epochs_total").inc()
        history.append(
            app.loss(state), epoch_time, epoch_bytes, utilization=utilization
        )
        return None

    def maybe_checkpoint(epoch: int) -> None:
        nonlocal ckpt_state, ckpt_epoch, clock, pending_extra
        if not ckpt_every or epoch % ckpt_every != 0 or epoch <= ckpt_epoch:
            return
        ckpt_state = app.clone_state(state)
        ckpt_epoch = epoch
        seconds = model_nbytes / costs.restore_bandwidth_bytes_per_s
        if tracer.enabled:
            tracer.add_span(
                f"checkpoint epoch{epoch}",
                "checkpoint",
                clock,
                clock + seconds,
                track="faults",
                process=trace_process,
                args={"epoch": epoch, "nbytes": model_nbytes},
            )
        metrics.counter("checkpoints_total").inc()
        metrics.counter("checkpoint_seconds_total").inc(seconds)
        clock += seconds
        pending_extra += seconds

    def run_protected(epoch: int) -> None:
        """Run one logical pass; on a crash, restore and replay.  Depth is
        bounded by the plan's crash count (each crash fires once)."""
        nonlocal state, clock, recoveries, pending_extra
        crash = run_pass(epoch)
        if crash is None:
            maybe_checkpoint(epoch)
            return
        recoveries += 1
        state = app.clone_state(ckpt_state)
        restored_nbytes = float(model_nbytes) if ckpt_epoch > 0 else 0.0
        seconds = costs.restart_s + (
            restored_nbytes / costs.restore_bandwidth_bytes_per_s
        )
        if restored_nbytes:
            history.traffic.record(
                clock, clock + seconds, restored_nbytes, "restore"
            )
        if tracer.enabled:
            tracer.add_span(
                f"recovery (replay from epoch {ckpt_epoch})",
                "recovery",
                clock,
                clock + seconds,
                track="faults",
                process=trace_process,
                args={
                    "replay_from": ckpt_epoch,
                    "restored_nbytes": restored_nbytes,
                },
            )
        metrics.counter("recoveries_total").inc()
        metrics.counter("recovery_seconds_total").inc(seconds)
        clock += seconds
        pending_extra += seconds
        for replay in range(ckpt_epoch + 1, epoch + 1):
            run_protected(replay)

    if protecting:
        for epoch in range(1, epochs + 1):
            run_protected(epoch)
        if recoveries:
            history.meta["recoveries"] = recoveries
    else:
        for epoch in range(1, epochs + 1):
            run_pass(epoch)
    history.meta["state"] = state
    return history
