"""One fresh process of the layered benchmark: cold start, then a phase.

The harness (``run.py``) starts this file once per cold start and once
per traced pass, pipes it a pickled job on stdin and reads one JSON
object from the last line of stdout.  Nothing here is imported by the
harness, and nothing from ``repro`` is imported before the cold-start
clock runs: ``import repro`` is the first term of ``setup_s``.

Job modes:

``cold``    import -> build -> first ``train_loop.run(1)`` -> close.
``timed``   cold start, then ``train_loop.run(epochs_per_call)`` calls for
            ``seconds`` (tracing off, ``obs`` unset), one yardstick block
            between calls, then the serial reference.
``traced``  cold start and calls with ``Observability.enabled()`` plus the
            harness's own spans around every public entry point it calls,
            alternating with calls of a second, untraced program (the
            tracing overhead is the ratio within each pair), then the
            per-layer probes and the serial reference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import pickle
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, Iterator, List, Optional

import yardstick
from workloads import (
    INIT_SEED,
    MIN_CALLS,
    SERIAL_EPOCHS,
    WORKLOADS,
    Workload,
    build_program,
    serial_app,
)

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        # Fields after the parenthesised command name start at field 3;
        # utime and stime are fields 14 and 15.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
    return total_kib / 1024.0


def process_ids() -> List[int]:
    """This process, then every live ``multiprocessing`` child."""
    return [os.getpid()] + [
        child.pid for child in multiprocessing.active_children()
    ]


class Span:
    """One harness span: name, start, end and the span that caused it."""

    def __init__(self, span_id: int, name: str, parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span list with implicit parent links (a stack).

    Disabled (the timed phase), ``span()`` still times its body — callers
    read ``.duration`` — but records nothing.
    """

    def __init__(self, trace: str, enabled: bool) -> None:
        self.trace = trace
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        current = Span(len(self.spans), name, parent)
        if self.enabled:
            self.spans.append(current)
            self._stack.append(current)
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {
                "trace": self.trace,
                "id": span.id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
            }
            for span in self.spans
        ]


def _epoch_record(result: Any) -> Dict[str, Any]:
    return {
        "epoch_time_s": result.epoch_time_s,
        "clock": result.clock,
        "num_tasks": result.num_tasks,
        "bytes_sent": result.bytes_sent,
        "utilization": result.utilization,
        "barrier_s": sum(end - start for start, end in result.barriers),
    }


def one_call(loop: Any, epochs: int, pids: List[int], spans: Spans,
             name: str) -> Dict[str, Any]:
    """One ``loop.run(epochs)``: wall, CPU of ``pids``, epoch results."""
    cpu_before = [cpu_seconds(pid) for pid in pids]
    with spans.span(name) as call:
        results = loop.run(epochs)
    cpu = [
        cpu_seconds(pid) - before for pid, before in zip(pids, cpu_before)
    ]
    return {
        "wall_s": call.duration,
        "cpu_master_s": cpu[0],
        "cpu_workers_s": sum(cpu[1:]),
        "epochs": [_epoch_record(result) for result in results],
    }


def more_calls(done: int, elapsed: float, last: float, seconds: float) -> bool:
    """Whole calls nearest to ``seconds``, at least ``MIN_CALLS``: a call
    that would mostly run past the budget is not started."""
    return done < MIN_CALLS or elapsed + last / 2 < seconds


def run_calls(program: Any, epochs: int, spans: Spans, seconds: float,
              target: float) -> Dict[str, Any]:
    """The timed phase: calls for ``seconds`` of call wall time (and, for
    at most as long again, until the loss target is met).  Loss is
    evaluated between calls, off the clock.  A yardstick block is timed
    before each call and after the last; a call's yardstick is the mean
    of the two blocks around it."""
    pids = process_ids()
    calls: List[Dict[str, Any]] = []
    peak_rss = None
    elapsed = last = 0.0
    reached = False
    error = None
    before = yardstick.block()
    while more_calls(len(calls), elapsed, last, seconds) or (
        not reached and elapsed < 2 * seconds
    ):
        try:
            call = one_call(
                program.train_loop, epochs, pids, spans, "loop.run"
            )
        except Exception:  # a failed operation: report it, stop the phase
            error = traceback.format_exc()
            break
        after = yardstick.block()
        call["yardstick_s"] = (before + after) / 2
        before = after
        call["loss"] = float(program.loss_fn())
        reached = reached or call["loss"] <= target
        last = call["wall_s"]
        elapsed += last
        calls.append(call)
        if len(calls) == MIN_CALLS:
            # Read at a fixed epoch count, not at exit: the context's
            # traffic log grows with every epoch, and how many epochs fit
            # into ``seconds`` depends on the host.
            peak_rss = peak_rss_mb(pids)
    return {"calls": calls, "error": error, "peak_rss_mb": peak_rss}


def run_pairs(program: Any, reference: Any, epochs: int, spans: Spans,
              seconds: float, pids: List[int]) -> Dict[str, Any]:
    """The traced phase: pairs of one traced call (``program``) and one
    untraced call (``reference``, the same program built without ``obs``),
    the order alternating, for ``seconds`` of call wall time.  Host speed
    changes within seconds, so the tracing overhead is taken as the median
    ratio within a pair, not as the ratio of two passes' medians."""
    calls: List[Dict[str, Any]] = []
    reference_calls: List[Dict[str, Any]] = []
    elapsed = last = 0.0  # ``last``: wall of the last pair
    error = None
    loops = {"loop.run": program.train_loop,
             "reference.run": reference.train_loop}
    while more_calls(len(calls), elapsed, last, seconds):
        order = sorted(loops, reverse=len(calls) % 2 == 1)
        try:
            pair = {
                name: one_call(loops[name], epochs, pids, spans, name)
                for name in order
            }
        except Exception:
            error = traceback.format_exc()
            break
        calls.append(pair["loop.run"])
        reference_calls.append(pair["reference.run"])
        last = sum(call["wall_s"] for call in pair.values())
        elapsed += last
    return {"calls": calls, "reference_calls": reference_calls,
            "error": error}


def serial_reference(spec: Workload, dataset: Any) -> Dict[str, Any]:
    """The plain single-worker run of the same task (the independent loss
    the epoch-1 check compares against, and the baseline rate)."""
    from repro.baselines.serial import run_serial

    app = serial_app(spec, dataset)
    start = time.perf_counter()
    history = run_serial(app, SERIAL_EPOCHS, seed=INIT_SEED)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "epochs": SERIAL_EPOCHS,
        "initial_loss": float(history.meta["initial_loss"]),
        "losses": [float(loss) for loss in history.losses],
    }


def simulated_twin_epoch_s(spec: Workload, dataset: Any) -> float:
    """Virtual seconds of the first epoch of a real-clock workload's
    program on the simulated backend, same cluster.

    Not a metric of the workload — the result omits ``virtual_epoch_s``
    there.  The driver's line must carry every end-to-end metric as a
    non-zero number that repeats within its bound, and this is the only
    such reading of that name a real-clock workload has.
    """
    twin = dataclasses.replace(spec, backend="simulated")
    with build_program(twin, dataset) as program:
        return program.train_loop.run(1)[0].epoch_time_s


class Probes:
    """Per-layer probes: each re-invokes one public entry point.

    A probe that raises — its entry point moved, was renamed or changed
    signature — leaves its metrics ``None`` and its name under
    ``unresolved``; it never fails the run.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.values: Dict[str, Optional[float]] = {}
        self.unresolved: Dict[str, str] = {}

    def run(self, names: List[str], probe: Callable[[], Dict[str, Any]]) -> None:
        try:
            with self.spans.span("probe:" + names[0]):
                self.values.update(probe())
        except Exception as exc:
            for name in names:
                self.values[name] = None
                self.unresolved[name] = f"{type(exc).__name__}: {exc}"


def run_probes(spec: Workload, dataset: Any, program: Any, obs: Any,
               spans: Spans, epochs_traced: int) -> Probes:
    """Time the layers' public functions on the built loop's public
    ``body`` / ``info`` / ``plan`` / ``options``."""
    probes = Probes(spans)
    loop = program.train_loop
    fresh: Dict[str, Any] = {"info": loop.info, "plan": loop.plan}

    def analyze() -> Dict[str, Any]:
        from repro.analysis.loop_info import analyze_loop_body

        with spans.span("analysis.analyze_loop_body") as span:
            fresh["info"] = analyze_loop_body(
                loop.body, loop.info.iteration_space,
                ordered=loop.options.ordered,
            )
        return {"analysis.analyze_s": span.duration}

    def plan() -> Dict[str, Any]:
        from repro.analysis.strategy import choose_plan

        with spans.span("analysis.choose_plan") as span:
            fresh["plan"] = choose_plan(
                fresh["info"], force_dims=loop.options.force_dims
            )
        return {"analysis.plan_s": span.duration}

    def synth() -> Dict[str, Any]:
        from repro.analysis.synth import synthesize_kernel

        with spans.span("analysis.synthesize_kernel") as span:
            result = synthesize_kernel(loop.body, fresh["info"])
        return {
            "analysis.synth_s": span.duration,
            "analysis.synth_engaged": 1 if result.engaged else 0,
        }

    def prefetch() -> Dict[str, Any]:
        from repro.analysis.prefetch import synthesize_prefetch
        from repro.analysis.strategy import PlacementKind

        servers = [
            name for name, placement in loop.plan.placements.items()
            if placement.kind is PlacementKind.SERVER
            and not name.startswith("<target:")
        ]
        with spans.span("analysis.synthesize_prefetch") as span:
            synthesize_prefetch(loop.body, fresh["info"], servers)
        return {"analysis.prefetch_s": span.duration}

    def materialize() -> Dict[str, Any]:
        from repro.core.distarray import DistArray

        with spans.span("core.from_entries+materialize") as span:
            DistArray.from_entries(
                dataset.entries, name="probe", shape=dataset.shape
            ).materialize()
        return {"core.materialize_s": span.duration}

    def executor_setup() -> Dict[str, Any]:
        from repro.runtime.executor import OrionExecutor

        with spans.span("runtime.OrionExecutor") as span:
            executor = OrionExecutor(
                loop.body, fresh["info"], fresh["plan"],
                program.ctx.cluster, options=loop.options,
            )
        executor.close()
        return {"executor.setup_s": span.duration}

    def partition() -> Dict[str, Any]:
        per_space = loop.executor.partitions.size_matrix().sum(axis=1)
        return {
            "partition.imbalance": float(per_space.max() / per_space.mean())
        }

    def groups() -> Dict[str, Any]:
        from repro.runtime.kernels import conflict_free_groups

        sizes: List[int] = []
        with spans.span("kernels.conflict_free_groups") as span:
            for block in loop.executor.partitions.blocks.values():
                rows = [key[0] for key, _value in block]
                cols = [key[1] for key, _value in block]
                sizes.extend(
                    hi - lo for lo, hi in conflict_free_groups(rows, cols)
                )
        return {
            "kernels.group_prep_s": span.duration,
            "kernels.mean_group_size": statistics.fmean(sizes),
            "kernels.single_group_share": sizes.count(1) / len(sizes),
        }

    def export() -> Dict[str, Any]:
        from repro.obs.export import to_chrome_trace

        with spans.span("obs.to_chrome_trace") as span:
            to_chrome_trace(obs.tracer)
        return {
            "obs.export_s": span.duration,
            "obs.spans_per_epoch": len(obs.tracer.spans) / epochs_traced,
        }

    def attribute() -> Dict[str, Any]:
        from repro.obs.insight import attribute_epochs
        from repro.obs.tracer import wall_process

        process = loop.options.trace_process
        if spec.real_clock:
            process = wall_process(process)
        with spans.span("obs.attribute_epochs") as span:
            attributions = attribute_epochs(obs.tracer, process)
        if len(attributions) != epochs_traced:
            raise LookupError(
                f"{len(attributions)} attributed epochs, "
                f"{epochs_traced} traced"
            )
        return {"obs.attribute_s": span.duration}

    with spans.span("probes"):
        probes.run(["analysis.analyze_s"], analyze)
        probes.run(["analysis.plan_s"], plan)
        probes.run(["analysis.synth_s", "analysis.synth_engaged"], synth)
        probes.run(["analysis.prefetch_s"], prefetch)
        probes.run(["core.materialize_s"], materialize)
        probes.run(["executor.setup_s"], executor_setup)
        probes.run(["partition.imbalance"], partition)
        if spec.conflict_groups:
            probes.run(
                ["kernels.group_prep_s", "kernels.mean_group_size",
                 "kernels.single_group_share"],
                groups,
            )
        probes.run(["obs.export_s", "obs.spans_per_epoch"], export)
        probes.run(["obs.attribute_s"], attribute)
    return probes


def traced_layers(spans: Spans, obs: Any, calls: List[Dict[str, Any]],
                  reference_calls: List[Dict[str, Any]],
                  first_epoch: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Per-layer numbers read off the traced calls: harness spans around
    ``backend.run_epoch``, the ``EpochResult`` fields and obs counters."""
    epoch_spans = spans.named("backend.run_epoch")
    first_s, steady = epoch_spans[0].duration, epoch_spans[1:]
    epoch_s = statistics.median(span.duration for span in steady)
    epochs = [epoch for call in calls for epoch in call["epochs"]]
    # What the virtual clock fixes is read off a fixed set of epochs, so
    # that it repeats exactly however many calls fit into ``seconds``.
    fixed = epochs[:MIN_CALLS * len(calls[0]["epochs"])]
    blocks = first_epoch["num_tasks"]

    def mean(key: str, over: List[Dict[str, Any]]) -> float:
        return statistics.fmean(epoch[key] for epoch in over)

    counters = obs.metrics.snapshot()
    # The obs counters also saw the cold-start epoch.
    counted_epochs = len(epochs) + 1
    cpu_master = sum(call["cpu_master_s"] for call in calls)
    cpu_total = cpu_master + sum(call["cpu_workers_s"] for call in calls)
    return {
        "partition.blocks": blocks,
        "executor.epoch_s": epoch_s,
        "executor.per_block_us": epoch_s / blocks * 1e6,
        "executor.first_epoch_extra_s": first_s - epoch_s,
        "network.bytes_per_epoch": mean("bytes_sent", fixed),
        "schedule.utilization": mean("utilization", fixed),
        "schedule.barrier_s": mean("barrier_s", fixed),
        "distributed.start_s": first_s - epoch_s,
        "distributed.epoch_s": statistics.median(
            epoch["epoch_time_s"] for epoch in epochs
        ),
        "distributed.utilization": mean("utilization", epochs),
        "distributed.token_wait_s_per_epoch":
            counters.get("token_wait_seconds_total", 0.0) / counted_epochs,
        "distributed.tokens_per_epoch":
            counters.get("rotation_tokens_total", 0.0) / counted_epochs,
        "distributed.flush_bytes_per_epoch":
            counters.get("real_flush_bytes_total", 0.0) / counted_epochs,
        "distributed.master_cpu_share":
            cpu_master / cpu_total if cpu_total > 0 else None,
        "obs.trace_overhead_ratio": statistics.median(
            traced["wall_s"] / untraced["wall_s"]
            for traced, untraced in zip(calls, reference_calls)
        ),
    }


def main() -> int:
    raw = sys.stdin.buffer.read()

    # ---- cold start, term 1: imports ---------------------------------- #
    start = time.perf_counter()
    import repro.apps  # noqa: F401
    import repro.baselines.serial  # noqa: F401
    from repro.obs.observability import Observability

    import_s = time.perf_counter() - start
    # One yardstick block after each term of the cold start, off its
    # clocks (the harness times the block before the first term).
    cold_yardsticks = [yardstick.block()]

    job = pickle.loads(raw)
    spec = WORKLOADS[job["workload"]]
    dataset = pickle.loads(job["dataset"])
    mode = job["mode"]
    traced = mode == "traced"
    spans = Spans(trace=f"{spec.name}/{os.getpid()}", enabled=traced)
    obs = Observability.enabled() if traced else None
    out: Dict[str, Any] = {"import_s": import_s}

    with spans.span("workload"):
        # ---- term 2: build (materialize, analyze, plan, partition) ---- #
        with spans.span("apps.build_orion_program") as build:
            program = build_program(spec, dataset, obs=obs)
        loop = program.train_loop
        if traced:
            backend_run_epoch = loop.backend.run_epoch

            def run_epoch(*args: Any, **kwargs: Any) -> Any:
                with spans.span("backend.run_epoch"):
                    return backend_run_epoch(*args, **kwargs)

            loop.backend.run_epoch = run_epoch
        out["build_s"] = build.duration
        cold_yardsticks.append(yardstick.block())
        out["kernel_tier"] = loop.executor.kernel_tier
        out["entries"] = len(dataset.entries)
        if mode != "cold":
            out["initial_loss"] = float(program.loss_fn())

        # ---- term 3: first epoch (backend start, caches) -------------- #
        with spans.span("loop.run") as first:
            first_result = loop.run(1)[0]
        out["first_epoch_s"] = first.duration
        out["first_epoch"] = _epoch_record(first_result)
        cold_yardsticks.append(yardstick.block())
        out["cold_yardsticks_s"] = cold_yardsticks

        reference = None
        if mode == "timed":
            out["first_loss"] = float(program.loss_fn())
            out.update(run_calls(
                program, spec.epochs_per_call, spans, job["seconds"],
                job["target_ratio"] * out["initial_loss"],
            ))
        elif traced:
            pids = process_ids()
            with spans.span("reference program"):
                reference = build_program(spec, dataset)
                reference.train_loop.run(1)
            out.update(run_pairs(
                program, reference, spec.epochs_per_call, spans,
                job["seconds"], pids,
            ))
        shared_nbytes = 0
        if spec.real_clock:
            shared_nbytes = loop.backend.runner.runner_meta()["shared_nbytes"]
        with spans.span("program.close") as close:
            program.close()
        if reference is not None:
            reference.close()

        if mode != "cold":
            out["serial"] = serial_reference(spec, dataset)
        if mode == "timed" and spec.real_clock:
            out["simulated_twin_epoch_s"] = simulated_twin_epoch_s(
                spec, dataset
            )
        if traced:
            epochs_traced = 1 + spec.epochs_per_call * len(out["calls"])
            probes = run_probes(
                spec, dataset, program, obs, spans, epochs_traced
            )
            layers = traced_layers(
                spans, obs, out["calls"], out["reference_calls"],
                out["first_epoch"],
            )
            layers.update(probes.values)
            layers["core.shared_mb"] = shared_nbytes / 1e6
            layers["distributed.close_s"] = close.duration
            out["layers"] = {
                name: value for name, value in layers.items()
                if spec.measures(name)
            }
            out["unresolved_probes"] = probes.unresolved
    out["spans"] = spans.to_json()
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
