"""A real multiprocess distributed runtime for compiled parallel loops.

The simulated executor (:mod:`repro.runtime.executor`) charges virtual time
while executing a linearization in-process.  This module runs the *same
compiled plan* on real OS processes as a performance backend:

* **Shared-memory partitions.**  Every dense DistArray the loop touches is
  rebacked onto a ``multiprocessing.shared_memory`` segment *before* the
  workers fork (:class:`SharedArrayPool`), so a partition write made by one
  process is immediately visible to every other — workers read and write
  parameters in place instead of holding forked full-object copies and
  shipping slices through the master.
* **One block runner.**  A worker executes each block by calling the
  forked executor's :meth:`~repro.runtime.executor.OrionExecutor.run_blocks`
  (a worker has one block per step) — the same code the simulated
  backend runs (kernel when the plan batches, scalar body otherwise,
  sanitizer recording when asked)
  against the shared arrays, with an empty server-array set (the master
  owns the virtual timeline) and buffered writes handed to the master
  instead of flushed locally.  The per-block computation is therefore
  the simulated executor's by construction, and dependence-preserving
  plans produce *bitwise identical* final parameters.
* **Direct worker→worker rotation.**  Because a rotated time-slice already
  lives in shared memory, handing it to the next worker needs no payload
  at all — only a happens-before edge.  Per-edge token queues carry bare
  generation counters (seqlock-style): a worker publishes "I finished
  step ``s``" and its neighbour consumes that token before touching the
  slice.  With pipeline depth > 1 a worker always holds another locally
  ready block, so the handoff overlaps its neighbour's compute — the
  paper's rotation-latency hiding, physically.
* **Free-running vs. stepped epochs.**  Plans with no write-back buffers
  and no server-placed arrays (e.g. 2D SGD MF) *free-run*: the master
  sends one message per epoch and the workers pipeline the entire pass
  among themselves, synchronized only by rotation tokens.  Plans with
  buffers or server arrays run *stepped*: the master barriers each
  schedule step, workers compute against the shared step-start parameter
  state, and buffered writes come back as flush messages applied through
  their UDFs between steps (real data-parallel staleness: same-step
  blocks genuinely do not see each other's updates).  Unimodular-
  transformed plans run stepped — their written arrays are server-placed
  and same-step blocks are dependence-free, so the sequential-outer
  barriers reproduce the simulated linearization bitwise.

Epoch timings are real ``time.perf_counter()`` seconds (one monotonic
clock domain shared by parent and forked children), reported as
:class:`~repro.runtime.executor.EpochResult` objects with
``clock="real"`` and traced — when the loop's tracer is enabled — as
spans under the ``<trace_process>@wall`` process, so ``--report`` covers
real runs next to the virtual-clock model.

Remaining semantic bounds (shared with the previous fidelity-proof
implementation): buffered writes synchronize once per block (the paper's
once-per-partition bound — ``max_delay`` sub-block flushes would need
mid-block server round trips), accumulators fold per epoch, and bodies
drawing from a shared RNG (LDA's Gibbs sampler) diverge from the serial
draw sequence because each forked worker advances its own copy.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.strategy import PlacementKind, Strategy
from repro.analysis.synth import level_schedule_stats
from repro.core import access
from repro.errors import ExecutionError
from repro.runtime.executor import EpochResult, TaskRecord

if TYPE_CHECKING:  # import cycle: repro.api imports the backend registry
    from repro.api import ParallelLoop

__all__ = ["MultiprocessRunner", "SharedArrayPool"]


# --------------------------------------------------------------------- #
# Shared-memory array pool                                              #
# --------------------------------------------------------------------- #

class _Adopted:
    """One dense array rebacked onto a shared segment."""

    __slots__ = ("shm", "array", "original", "view")

    def __init__(self, shm, array, original, view) -> None:
        self.shm = shm
        self.array = array
        self.original = original
        self.view = view


class SharedArrayPool:
    """Rebacks dense DistArrays onto ``multiprocessing.shared_memory``.

    :meth:`adopt` swaps an array's dense storage for a NumPy view over a
    freshly created shared segment (copying the current contents in).
    Done *before* forking, the children inherit the mapping, so every
    process reads and writes the same physical pages — in-place partition
    access with zero serialization.  :meth:`release` copies the final
    contents back into ordinary memory, restores the original backing and
    unlinks the segments, so the arrays outlive the runner unchanged.
    """

    #: Arrays currently rebacked by a live pool, keyed by ``id(array)``.
    #: Workers inherit the segment mapping at fork time, so two live pools
    #: over one array would split the processes across two segments (stale
    #: reads) and leave the second pool's ``original`` pointing into the
    #: first pool's unlinked segment (a crash at release).
    _live: Dict[int, "SharedArrayPool"] = {}

    def __init__(self) -> None:
        self._adopted: List[_Adopted] = []
        self._ids: set = set()

    def adopt(self, array: Any) -> None:
        """Reback one dense materialized array (idempotent per array)."""
        if id(array) in self._ids:
            return
        if array.sparse or not array.is_materialized:
            return
        dense = array.values
        if id(array) in SharedArrayPool._live:
            raise ExecutionError(
                f"array {array.name!r} is already shared with a live "
                "multiprocess runner; close that loop before starting "
                "another one over the same arrays (programs that "
                "interleave several loops over shared state, e.g. GBT, "
                "cannot run them concurrently on backend='multiprocess')"
            )
        shm = shared_memory.SharedMemory(create=True, size=max(1, dense.nbytes))
        view: np.ndarray = np.ndarray(dense.shape, dtype=dense.dtype,
                                      buffer=shm.buf)
        view[...] = dense
        array.set_dense(view)
        self._adopted.append(_Adopted(shm, array, dense, view))
        self._ids.add(id(array))
        SharedArrayPool._live[id(array)] = self

    @property
    def nbytes(self) -> int:
        """Total bytes placed in shared segments."""
        return sum(record.original.nbytes for record in self._adopted)

    def release(self) -> None:
        """Restore ordinary backing and unlink every segment (idempotent)."""
        for record in self._adopted:
            if record.array.values is record.view:
                # Nobody rebound the storage meanwhile: preserve the final
                # shared contents past the segment's lifetime.
                record.original[...] = record.view
                record.array.set_dense(record.original)
            record.view = None
            try:
                record.shm.close()
            except BufferError:  # a caller still holds the old view
                pass
            try:
                record.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            if SharedArrayPool._live.get(id(record.array)) is self:
                del SharedArrayPool._live[id(record.array)]
        self._adopted = []
        self._ids = set()


# --------------------------------------------------------------------- #
# Worker process                                                        #
# --------------------------------------------------------------------- #

class _WorkerProcess:
    """Code that runs inside one forked worker (no self-use in the parent).

    Message protocol (master → worker):

    * ``("epoch",)`` — free-running mode: execute every one of this
      worker's scheduled blocks for one pass, synchronizing with
      neighbours purely through rotation tokens; reply ``("epoch_done",
      payload)``.
    * ``("step", s)`` — stepped mode: execute this worker's blocks of
      schedule step ``s``; reply ``("step_done", records)`` — their
      :class:`~repro.runtime.executor.TaskRecord` s, buffered writes
      riding in ``record.pending`` for the master to apply.
    * ``("finish_epoch",)`` — stepped mode epilogue; reply
      ``("epoch_done", payload)``.
    * ``("stop",)`` — reply ``("bye",)`` and exit.

    Any exception is reported as ``("error", traceback_text)`` and the
    worker exits.
    """

    def __init__(
        self,
        worker_id: int,
        loop: "ParallelLoop",
        conn: Any,
        token_in: Any,
        token_out: Any,
        token_kind: Optional[str],
        depth: int,
    ) -> None:
        self.worker_id = worker_id
        self.loop = loop
        self.executor = loop.executor
        self.conn = conn
        self.token_in = token_in
        self.token_out = token_out
        self.token_kind = token_kind
        self.depth = depth
        #: This worker's tasks over a whole epoch, in step order.
        self.tasks = [
            task
            for step_tasks in self.executor.steps
            for task in step_tasks
            if task.worker == worker_id
        ]
        #: Records of the blocks run since the last message that shipped
        #: them (``step_done`` when stepped, ``epoch_done`` free-running).
        self.records: List[TaskRecord] = []
        self.tokens_consumed = 0
        self._epochs_run = 0
        #: Level-schedule counts ride on the first epoch's payload only:
        #: that epoch schedules every one of this worker's blocks, and
        #: the block caches never change after.
        self._level_counts_sent = False

    # ---------------- serve loop --------------------------------------- #

    def serve(self) -> None:
        try:
            while True:
                message = self.conn.recv()
                kind = message[0]
                if kind == "stop":
                    self.conn.send(("bye",))
                    return
                if kind == "epoch":
                    self._run_epoch_free()
                elif kind == "step":
                    self._run_step(message[1])
                elif kind == "finish_epoch":
                    self.conn.send(("epoch_done", self._epoch_payload()))
                else:  # pragma: no cover - protocol error
                    self.conn.send(("error", f"unknown message {kind!r}"))
                    return
        except (EOFError, KeyboardInterrupt):  # pragma: no cover - shutdown
            return
        except BaseException:
            try:
                self.conn.send(("error", traceback.format_exc()))
            except Exception:  # pragma: no cover - master already gone
                pass
            return

    # ---------------- block execution ---------------------------------- #

    def _timed_task(self, task: Any, wait: float) -> None:
        """Run one block through the shared block runner: nothing to
        count (the master owns the virtual timeline), buffered writes
        taken for the master's parameter server — it owns the apply UDFs
        and their ordering."""
        t_start = time.perf_counter()
        (record,) = self.executor.run_blocks(
            [task], frozenset(), flush_local=False
        )
        record.t_start, record.t_end = t_start, time.perf_counter()
        record.token_wait = wait
        self.records.append(record)

    # ---------------- free-running epochs ------------------------------ #

    def _run_epoch_free(self) -> None:
        """One whole pass, paced only by rotation tokens.

        Unordered 2D: at step ``s`` worker ``j`` executes time index
        ``(j·d + s) mod T``, which worker ``j+1`` finished at step
        ``s − d`` — so ``j`` consumes one token (value ``s − d``) from its
        successor before each step ``s ≥ d`` and publishes its own step
        number to its predecessor afterwards.  Steps ``0..d−1`` touch
        slices nobody else holds, giving the induction base; depth > 1
        keeps a locally ready block in hand while the neighbour works.

        Ordered 2D (wavefront): worker ``j`` runs time ``t`` one step
        after worker ``j−1`` did, so it consumes token ``t`` from its
        predecessor; worker 0 never waits.

        The ``epoch_done`` barrier orders epochs, so cross-epoch reuse of
        a slice is always safe; the ``d`` tokens left unconsumed at an
        epoch boundary are popped on entry to the next epoch (each queue
        has a single producer and pipes are FIFO, so the stale tokens are
        always at the front — a blind drain would race the new epoch's
        producers).
        """
        kind = self.token_kind
        depth = self.depth
        if kind == "unordered" and self._epochs_run > 0:
            num_time = self.executor.num_time
            for offset in range(depth):
                token = self.token_in.get()
                self.tokens_consumed += 1
                stale = num_time - depth + offset
                if token != stale:
                    raise ExecutionError(
                        f"worker {self.worker_id}: stale rotation token "
                        f"{token} != expected {stale}"
                    )
        for task in self.tasks:
            wait = 0.0
            expected: Optional[int] = None
            if kind == "unordered" and task.step >= depth:
                expected = task.step - depth
            elif kind == "ordered" and self.token_in is not None:
                expected = task.time_idx
            if expected is not None:
                t0 = time.perf_counter()
                token = self.token_in.get()
                wait = time.perf_counter() - t0
                self.tokens_consumed += 1
                if token != expected:
                    raise ExecutionError(
                        f"worker {self.worker_id}: rotation token "
                        f"{token} != expected {expected} (step {task.step})"
                    )
            self._timed_task(task, wait)
            if kind == "unordered":
                self.token_out.put(task.step)
            elif kind == "ordered" and self.token_out is not None:
                self.token_out.put(task.time_idx)
        self._epochs_run += 1
        self.conn.send(("epoch_done", self._epoch_payload()))

    # ---------------- stepped epochs ----------------------------------- #

    def _run_step(self, step_index: int) -> None:
        for task in self.executor.steps[step_index]:
            if task.worker == self.worker_id:
                self._timed_task(task, 0.0)
        records, self.records = self.records, []
        self.conn.send(("step_done", records))

    # ---------------- epoch epilogue ----------------------------------- #

    def _epoch_payload(self) -> Dict[str, Any]:
        accumulators: Dict[str, Any] = {}
        for name, acc in self.loop.info.accumulator_refs.items():
            if self.worker_id in acc._slots:
                accumulators[name] = acc._slots.pop(self.worker_id)
        payload = {
            "records": self.records,
            "accumulators": accumulators,
            "sparse": self._sparse_payload(),
            "tokens": self.tokens_consumed,
        }
        if not self._level_counts_sent:
            payload["level_counts"] = self.executor.level_schedule_counts()
            self._level_counts_sent = True
        self.records = []
        self.tokens_consumed = 0
        return payload

    def _sparse_payload(self) -> Dict[str, Dict[Tuple[Any, ...], Any]]:
        """Written sparse LOCAL partitions (dense arrays are shared, but a
        sparse array's entries live in this process's forked dict)."""
        out: Dict[str, Dict[Tuple[Any, ...], Any]] = {}
        bounds = self.executor.partitions.space_bounds
        if bounds is None or self.worker_id >= len(bounds):
            return out
        lo, hi = bounds[self.worker_id]
        written = self.loop.info.written_arrays()
        for name, placement in self.loop.plan.placements.items():
            if placement.kind is not PlacementKind.LOCAL:
                continue
            if name.startswith("<target:") or name not in written:
                continue
            array = self.loop.info.arrays.get(name)
            if array is None or not array.sparse:
                continue
            dim = placement.array_dim
            out[name] = {
                key: value
                for key, value in array.entries()
                if lo <= key[dim] < hi
            }
        return out


def _worker_entry(
    worker_id: int,
    loop: "ParallelLoop",
    conn: Any,
    token_in: Any,
    token_out: Any,
    token_kind: Optional[str],
    depth: int,
) -> None:
    _WorkerProcess(
        worker_id, loop, conn, token_in, token_out, token_kind, depth
    ).serve()


# --------------------------------------------------------------------- #
# Master / runner                                                       #
# --------------------------------------------------------------------- #

class MultiprocessRunner:
    """Run a compiled :class:`~repro.api.ParallelLoop` on real processes.

    Usage::

        loop = ctx.parallel_for(ratings)(body)
        with MultiprocessRunner(loop) as runner:
            runner.run_epoch()

    Or select it declaratively — ``parallel_for(..., backend=
    "multiprocess")`` makes ``loop.run()`` construct and drive one of
    these under the hood.

    While the runner is open, the loop's dense arrays live in shared
    memory; the master sees worker updates immediately (driver-side loss
    evaluation works between epochs exactly as with the simulated
    executor) and :meth:`close` copies the final state back into ordinary
    memory.  ``close`` escalates ``join(timeout)`` → ``terminate()`` →
    ``kill()``, so a wedged or crashed worker cannot leak past it.
    """

    def __init__(
        self, loop: "ParallelLoop", shutdown_timeout: float = 5.0
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "the multiprocess backend requires the fork start method "
                "(POSIX); use backend='threaded' here"
            )
        self.loop = loop
        self.executor = loop.executor
        self.partitions = self.executor.partitions
        self.shutdown_timeout = shutdown_timeout
        self._context = multiprocessing.get_context("fork")
        self.pool = SharedArrayPool()
        self._connections: List[Any] = []
        self._processes: List[Any] = []
        self._token_queues: List[Any] = []
        self._started = False
        self._wall0 = 0.0
        self._epoch_counter = 0
        #: Workers' level-schedule counts, summed (see ``runner_meta``).
        self._level_counts: Tuple[int, ...] = (0, 0, 0)
        for name, placement in loop.plan.placements.items():
            if name.startswith("<target:"):
                continue
            array = loop.info.arrays.get(name)
            if array is None or not array.sparse:
                continue
            if placement.kind in (PlacementKind.ROTATED, PlacementKind.SERVER):
                raise ExecutionError(
                    f"the multiprocess backend cannot place sparse array "
                    f"{name!r} as {placement.kind.name}: rotation and "
                    "parameter service operate on shared dense storage"
                )
        #: Free-running epochs need no master mediation at all; any buffer
        #: or server-placed array makes the master a parameter server and
        #: the epoch stepped.
        self.free_running = (
            not loop.info.buffers and not self.executor._server_arrays
        )
        #: Unimodular legality says every dependence is carried by the
        #: *transformed* outer level, but the executor may lump several
        #: transformed time values into one time partition — a dependence
        #: of distance < partition width then connects two same-step
        #: blocks.  The simulator is safe because it linearizes; here the
        #: master falls back to dispatching those steps one task at a
        #: time, in the simulator's task order (width-1 partitions keep
        #: full intra-step parallelism).
        self._sequential_steps = False
        if loop.plan.transform is not None:
            time_bounds = self.partitions.time_bounds
            self._sequential_steps = time_bounds is None or any(
                hi - lo > 1 for lo, hi in time_bounds
            )
        self._token_kind: Optional[str] = None
        if (
            self.free_running
            and loop.plan.strategy is Strategy.TWO_D
            and self.executor.num_workers > 1
        ):
            self._token_kind = (
                "ordered" if self.executor.options.ordered else "unordered"
            )
        depth = 1
        if self._token_kind == "unordered":
            depth = self.executor.num_time // self.executor.num_workers
        self._depth = depth

    # ---------------- lifecycle ---------------------------------------- #

    def _start(self) -> None:
        if self._started:
            return
        for array in self.loop.info.arrays.values():
            self.pool.adopt(array)
        for buffer in self.loop.info.buffers.values():
            self.pool.adopt(buffer.target)
        num_workers = self.executor.num_workers
        if self._token_kind is not None:
            self._token_queues = [
                self._context.SimpleQueue() for _ in range(num_workers)
            ]
        for worker in range(num_workers):
            token_in = token_out = None
            if self._token_kind == "unordered":
                token_in = self._token_queues[worker]
                token_out = self._token_queues[(worker - 1) % num_workers]
            elif self._token_kind == "ordered":
                if worker > 0:
                    token_in = self._token_queues[worker]
                if worker + 1 < num_workers:
                    token_out = self._token_queues[worker + 1]
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_entry,
                args=(worker, self.loop, child_conn, token_in, token_out,
                      self._token_kind, self._depth),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._connections.append(parent_conn)
            self._processes.append(process)
        self._wall0 = time.perf_counter()
        self._started = True

    def close(self) -> None:
        """Stop every worker process; escalate if one is wedged."""
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for conn in self._connections:
            try:
                if conn.poll(0.5):
                    conn.recv()
            except (OSError, EOFError):
                pass
        deadline = time.monotonic() + self.shutdown_timeout
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                process.kill()
                process.join(timeout=1.0)
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - racy shutdown
                pass
        self._connections = []
        self._processes = []
        self._token_queues = []
        self.pool.release()
        self._started = False

    def __enter__(self) -> "MultiprocessRunner":
        self._start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if self._started:
                self.close()
        except Exception:
            pass

    # ---------------- messaging ----------------------------------------- #

    def _send(self, worker: int, message: Any) -> None:
        try:
            self._connections[worker].send(message)
        except (OSError, BrokenPipeError) as exc:
            raise ExecutionError(
                f"worker {worker} died (send failed: {exc}); restore from a "
                "checkpoint and restart the runner"
            ) from exc

    def _recv(self, worker: int, expected: str) -> Any:
        try:
            reply = self._connections[worker].recv()
        except (EOFError, OSError) as exc:
            raise ExecutionError(
                f"worker {worker} died (connection closed); restore from a "
                "checkpoint and restart the runner"
            ) from exc
        if reply[0] == "error":
            raise ExecutionError(
                f"worker {worker} failed:\n{reply[1]}"
            )
        if reply[0] != expected:  # pragma: no cover - protocol error
            raise ExecutionError(f"worker protocol error: {reply[0]!r}")
        return reply

    # ---------------- parameter service --------------------------------- #

    def _fold_accumulators(self, worker: int, values: Dict[str, Any]) -> None:
        for name, value in values.items():
            acc = self.loop.info.accumulator_refs[name]
            with access.worker_scope(worker):
                acc.add(value)

    def _apply_sparse(
        self, payload: Dict[str, Dict[Tuple[Any, ...], Any]]
    ) -> None:
        for name, entries in payload.items():
            array = self.loop.info.arrays[name]
            for key, value in entries.items():
                array.direct_set(key, value)

    # ---------------- execution ----------------------------------------- #

    def run_epoch(self) -> int:
        """Execute one full pass; returns the number of blocks executed."""
        return self.run_epoch_result().num_tasks

    def run_epoch_result(self, epoch: Optional[int] = None) -> EpochResult:
        """Execute one full pass and report real wall-clock timing.

        Free-running plans get one command per worker per epoch; stepped
        plans are barriered per schedule step with flushes applied in task
        order between steps.  The returned
        :class:`~repro.runtime.executor.EpochResult` carries measured
        ``perf_counter`` seconds (``clock="real"``), worker utilization
        over the real epoch, and the flush byte volume.
        """
        self._start()
        self._epoch_counter += 1
        if epoch is None:
            epoch = self._epoch_counter
        num_workers = self.executor.num_workers
        records: List[TaskRecord] = []
        t0 = time.perf_counter()
        if self.free_running:
            for worker in range(num_workers):
                self._send(worker, ("epoch",))
        else:
            for step_index, step_tasks in enumerate(self.executor.steps):
                if self._sequential_steps:
                    # Intra-step dependences possible (see __init__):
                    # linearize the step exactly as the simulator does.
                    for task in step_tasks:
                        self._send(task.worker, ("step", step_index))
                        done = self._recv(task.worker, "step_done")[1]
                        self.executor.apply_flushes(done)
                        records += done
                    continue
                for worker in range(num_workers):
                    self._send(worker, ("step", step_index))
                replies = [
                    self._recv(worker, "step_done")[1]
                    for worker in range(num_workers)
                ]
                # Apply flushes in task order — the same order the
                # simulated linearization applies them.  Targets are
                # shared, so the write-through is visible to every
                # worker, but only between steps: the step-start
                # staleness the stepped protocol promises.
                for task in step_tasks:
                    self.executor.apply_flushes(replies[task.worker])
                    records += replies[task.worker]
            for worker in range(num_workers):
                self._send(worker, ("finish_epoch",))
        payloads = [
            self._recv(worker, "epoch_done")[1]
            for worker in range(num_workers)
        ]
        t_end = time.perf_counter()
        for worker, payload in enumerate(payloads):
            records += payload["records"]
            self._fold_accumulators(worker, payload["accumulators"])
            self._apply_sparse(payload["sparse"])
        if "level_counts" in payloads[0]:  # the workers' first epoch
            self._level_counts = tuple(
                sum(counts)
                for counts in zip(*(p["level_counts"] for p in payloads))
            )
        # The same post-epoch passes the simulated backend runs, over the
        # records the workers shipped (raise on any violation).
        self.executor.check_records(records)
        epoch_s = t_end - t0
        busy = sum(record.t_end - record.t_start for record in records)
        flush_bytes = sum(record.flush_bytes for record in records)
        tokens = sum(payload["tokens"] for payload in payloads)
        self._record_obs(epoch, t0, t_end, records, flush_bytes, tokens)
        return EpochResult(
            epoch_time_s=epoch_s,
            bytes_sent=flush_bytes,
            num_tasks=len(records),
            utilization=min(busy / (num_workers * epoch_s), 1.0)
            if epoch_s > 0 else 0.0,
            kernel_path=self.executor.kernel_path,
            clock="real",
        )

    # ---------------- observability -------------------------------------- #

    def runner_meta(self) -> Dict[str, Any]:
        """Topology facts for one run-store record (JSON-safe).

        The multiprocess half of the ``LoopOptions.run_store`` emission
        hook — pure introspection, safe before :meth:`_start`."""
        return {
            "free_running": self.free_running,
            "token_kind": self._token_kind,
            "token_depth": self._depth,
            "sequential_steps": self._sequential_steps,
            "num_workers": self.executor.num_workers,
            "shared_nbytes": self.pool.nbytes,
            "level_schedule": level_schedule_stats(self._level_counts),
        }

    def _record_obs(
        self,
        epoch: int,
        t0: float,
        t_end: float,
        records: List[TaskRecord],
        flush_bytes: float,
        tokens: int,
    ) -> None:
        """Real-time spans on the ``@wall`` clock domain + counters."""
        metrics = self.executor.metrics
        if metrics.enabled:
            metrics.counter("real_epochs_total").inc()
            if flush_bytes:
                metrics.counter("real_flush_bytes_total").inc(flush_bytes)
            if tokens:
                metrics.counter("rotation_tokens_total").inc(tokens)
            waits = sum(record.token_wait for record in records)
            if waits > 0:
                metrics.counter("token_wait_seconds_total").inc(waits)
        tracer = self.executor.tracer
        if not tracer.enabled:
            return
        from repro.obs.tracer import wall_process

        process = wall_process(self.executor.trace_process)
        base = self._wall0
        tracer.add_span(
            name=f"epoch {epoch}",
            cat="epoch",
            t_start=t0 - base,
            t_end=t_end - base,
            track="epochs",
            process=process,
            args={"epoch": epoch},
        )
        for record in records:
            task = record.task
            tracer.add_span(
                name=f"block[{task.space_idx},{task.time_idx or 0}]",
                cat="block",
                t_start=record.t_start - base,
                t_end=record.t_end - base,
                track=f"worker{task.worker}",
                process=process,
                args={"step": task.step, "token_wait_s": record.token_wait},
            )
