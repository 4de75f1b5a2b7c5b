"""Tests for the observability subsystem (repro.obs).

Covers the tracer (span recording, begin/end nesting, disabled no-op),
the metrics registry, the Chrome-trace/Perfetto exporter and its schema
validator, the straggler report, and the end-to-end acceptance criteria:
per-worker block spans account exactly for reported utilization, and a
tracing-disabled run is bit-identical to an instrumented one.
"""

import json

import numpy as np
import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    Tracer,
    add_traffic_spans,
    chrome_trace_events,
    straggler_report,
    to_chrome_trace,
    utilization_lines,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.runtime.history import EpochRecord, RunHistory
from repro.runtime.network import TrafficLog
from repro.runtime.options import LoopOptions


class TestTracer:
    def test_add_span_records(self):
        tracer = Tracer()
        tracer.add_span("b", "block", 1.0, 3.0, track="worker0",
                        process="orion", args={"step": 0})
        (span,) = tracer.spans
        assert span.name == "b"
        assert span.duration == 2.0
        assert span.args == {"step": 0}

    def test_inverted_span_clamped(self):
        tracer = Tracer()
        tracer.add_span("x", "block", 5.0, 4.0)
        assert tracer.spans[0].t_end == 5.0
        assert tracer.spans[0].duration == 0.0

    def test_begin_end_nesting_depth(self):
        tracer = Tracer()
        tracer.begin("outer", "epoch", 0.0, track="t")
        tracer.begin("inner", "block", 1.0, track="t")
        inner = tracer.end(2.0, track="t")
        outer = tracer.end(3.0, track="t")
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0
        assert inner.t_start == 1.0 and inner.t_end == 2.0

    def test_end_without_begin_raises(self):
        with pytest.raises(ValueError):
            Tracer().end(1.0)

    def test_stacks_are_per_process_track(self):
        tracer = Tracer()
        tracer.begin("a", "c", 0.0, track="t", process="p1")
        tracer.begin("b", "c", 0.0, track="t", process="p2")
        assert tracer.end(1.0, track="t", process="p1").name == "a"
        assert tracer.end(1.0, track="t", process="p2").name == "b"

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.add_span("x", "block", 0.0, 1.0)
        tracer.instant("i", 0.5)
        tracer.begin("y", "block", 0.0)
        tracer.end(1.0)  # must not raise despite no open span
        assert tracer.spans == []
        assert tracer.instants == []
        assert not tracer
        assert not NULL_TRACER.enabled

    def test_filter_and_queries(self):
        tracer = Tracer()
        tracer.add_span("b0", "block", 0.0, 1.0, track="worker0", process="a")
        tracer.add_span("b1", "block", 1.0, 3.0, track="worker0", process="a")
        tracer.add_span("b2", "block", 0.0, 4.0, track="worker1", process="a")
        tracer.add_span("r", "rotation", 0.0, 1.0, track="net", process="b")
        assert len(tracer.filter(cat="block")) == 3
        assert len(tracer.filter(process="b")) == 1
        assert tracer.processes() == ["a", "b"]
        assert tracer.tracks("a") == ["worker0", "worker1"]
        busy = tracer.busy_by_track(cat="block", process="a")
        assert busy == {"worker0": 3.0, "worker1": 4.0}
        assert tracer.time_bounds("a") == (0.0, 4.0)
        assert tracer.time_bounds("missing") is None

    def test_clear(self):
        tracer = Tracer()
        tracer.add_span("x", "block", 0.0, 1.0)
        tracer.begin("open", "block", 0.0)
        tracer.clear()
        assert tracer.spans == []
        with pytest.raises(ValueError):
            tracer.end(1.0)


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.counter("n").inc(2.5)
        assert registry.counter("n").value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(-2.0)
        assert registry.gauge("g").value == -2.0

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("h")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.summary() == {
            "count": 3.0, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_accessors_memoize(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("n").inc(10)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        assert registry.snapshot() == {}
        assert not registry
        # Disabled handles are shared singletons, not fresh allocations.
        assert registry.counter("a") is registry.counter("b")
        assert not NULL_METRICS.enabled

    def test_snapshot_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot)[:2] == ["a", "z"]
        json.dumps(snapshot)  # must not raise


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.add_span("epoch 1", "epoch", 0.0, 4.0, track="epochs",
                    process="orion")
    tracer.add_span("block[0,0]", "block", 0.0, 2.0, track="worker0",
                    process="orion", args={"step": 0})
    tracer.add_span("block[1,0]", "block", 0.0, 3.0, track="worker1",
                    process="orion")
    tracer.add_span("rotation", "rotation", 2.0, 2.5, track="net:rotation",
                    process="orion", args={"nbytes": 1000, "hop": "0->1"})
    tracer.instant("marker", 1.0, track="epochs", process="orion")
    return tracer


class TestExport:
    def test_trace_validates_and_has_metadata(self):
        trace = to_chrome_trace(_sample_tracer())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert {"epochs", "worker0", "worker1", "net:rotation"} <= names
        process_meta = [e for e in events if e["name"] == "process_name"]
        assert [e["args"]["name"] for e in process_meta] == ["orion"]

    def test_timestamps_in_microseconds(self):
        events = chrome_trace_events(_sample_tracer())
        block = next(e for e in events if e.get("name") == "block[0,0]")
        assert block["ph"] == "X"
        assert block["ts"] == 0.0 and block["dur"] == 2.0e6
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["ts"] == 1.0e6 and instant["s"] == "t"

    def test_distinct_pids_per_process(self):
        tracer = _sample_tracer()
        tracer.add_span("shard", "block", 0.0, 1.0, track="worker0",
                        process="bosen")
        events = chrome_trace_events(tracer)
        pids = {e["pid"] for e in events}
        assert len(pids) == 2

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(_sample_tracer(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) == ["trace must be a JSON object, "
                                             "got list"]
        assert validate_chrome_trace({}) == ["trace.traceEvents must be a list"]
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 0},
            {"name": "x", "ph": "X", "pid": 1, "tid": 0},
            {"name": 3, "ph": "i", "ts": 0, "s": "q", "pid": 1, "tid": 0},
            {"ph": "X", "ts": 0, "dur": 1},
            "not an object",
        ]}
        problems = validate_chrome_trace(bad)
        assert any("negative dur" in p for p in problems)
        assert any("missing numeric 'dur'" in p for p in problems)
        assert any("scope" in p for p in problems)
        assert any("missing integer" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_add_traffic_spans(self):
        traffic = TrafficLog()
        traffic.record(0.0, 1.0, 100, "sync")
        traffic.record(1.0, 2.0, 50, "broadcast")
        tracer = Tracer()
        assert add_traffic_spans(tracer, traffic, process="tf") == 2
        assert tracer.tracks("tf") == ["net:sync", "net:broadcast"]
        assert tracer.filter(cat="sync")[0].args == {"nbytes": 100}
        assert add_traffic_spans(NULL_TRACER, traffic) == 0


class TestReport:
    def test_utilization_lines(self):
        lines = utilization_lines(_sample_tracer(), "orion")
        body = "\n".join(lines)
        assert "worker0" in body and "worker1" in body
        # worker1: 3.0 busy over a 4.0 s horizon = 75%.
        assert "75.0%" in body

    def test_utilization_lines_empty(self):
        assert utilization_lines(Tracer(), "nope") == ["  (no spans recorded)"]

    def test_straggler_report_sections(self):
        registry = MetricsRegistry()
        registry.counter("entries_total").inc(42)
        report = straggler_report(_sample_tracer(), registry)
        assert "== orion:" in report
        assert "critical-path blocks" in report
        assert "block[1,0]" in report  # the longest block leads
        assert "slowest rotation hops" in report
        assert "hop 0->1" in report
        assert "== metrics ==" in report
        assert "entries_total: 42" in report

    def test_empty_trace(self):
        assert "(empty trace)" in straggler_report(Tracer())


class TestHistoryJson:
    def _history(self) -> RunHistory:
        history = RunHistory(label="demo")
        history.traffic.record(0.0, 1.0, 100, "rotation")
        history.append(10.0, 1.5, bytes_sent=100, utilization=0.8)
        history.append(8.0, 1.25, bytes_sent=50, utilization=0.9)
        history.meta["initial_loss"] = 12.0
        history.meta["kernel_path"] = True
        history.meta["state"] = {"W": np.zeros(3)}  # not JSON-serializable
        return history

    def test_round_trip(self):
        original = self._history()
        data = json.loads(json.dumps(original.to_json()))
        rebuilt = RunHistory.from_json(data)
        assert rebuilt.label == original.label
        assert rebuilt.records == original.records
        assert rebuilt.traffic.events == original.traffic.events
        assert rebuilt.meta["initial_loss"] == 12.0
        assert rebuilt.meta["kernel_path"] is True

    def test_non_serializable_meta_dropped(self):
        data = self._history().to_json()
        assert "state" not in data["meta"]

    def test_record_fields(self):
        record = self._history().records[0]
        assert isinstance(record, EpochRecord)
        assert record.utilization == 0.8
        assert record.time_s == 1.5


@pytest.fixture()
def traced_mf(mf_small):
    """A small traced Orion MF run: (history, tracer, metrics, cluster)."""
    from repro.apps import MFHyper, build_sgd_mf
    from repro.runtime.cluster import ClusterSpec

    cluster = ClusterSpec(num_machines=2, workers_per_machine=2)
    tracer = Tracer()
    metrics = MetricsRegistry()
    program = build_sgd_mf(
        mf_small, cluster=cluster, hyper=MFHyper(rank=4), seed=3,
        options=LoopOptions(obs=Observability(tracer=tracer, metrics=metrics)),
    )
    history = program.run(2)
    return history, tracer, metrics, cluster


class TestEndToEndTracing:
    def test_one_track_per_worker(self, traced_mf):
        _history, tracer, _metrics, cluster = traced_mf
        tracks = tracer.tracks("orion")
        for worker in range(cluster.num_workers):
            assert f"worker{worker}" in tracks
        assert "epochs" in tracks

    def test_block_spans_account_for_utilization(self, traced_mf):
        """Acceptance: per-worker block spans sum to the busy time implied
        by the reported utilization, within 1e-6 virtual seconds."""
        history, tracer, _metrics, cluster = traced_mf
        busy = tracer.busy_by_track(cat="block", process="orion")
        traced_busy = sum(
            seconds for track, seconds in busy.items()
            if track.startswith("worker")
        )
        reported_busy = cluster.num_workers * sum(
            record.utilization * record.epoch_time_s
            for record in history.records
        )
        assert abs(traced_busy - reported_busy) < 1e-6

    def test_phase_spans_partition_blocks(self, traced_mf):
        _history, tracer, _metrics, _cluster = traced_mf
        blocks = sum(span.duration
                     for span in tracer.filter(cat="block", process="orion"))
        phases = sum(
            span.duration
            for cat in ("prefetch", "compute", "flush", "overhead")
            for span in tracer.filter(cat=cat, process="orion")
            if span.track.startswith("worker")
        )
        assert phases == pytest.approx(blocks, abs=1e-9)

    def test_exported_trace_validates_and_accounts(self, traced_mf):
        history, tracer, _metrics, cluster = traced_mf
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []
        # The same busy-time invariant must hold in the exported JSON (µs).
        dur_us = sum(
            event["dur"] for event in trace["traceEvents"]
            if event.get("cat") == "block" and event["ph"] == "X"
        )
        reported_us = 1e6 * cluster.num_workers * sum(
            record.utilization * record.epoch_time_s
            for record in history.records
        )
        assert abs(dur_us - reported_us) < 1.0  # 1 µs == 1e-6 virtual s

    def test_epoch_spans_and_barriers(self, traced_mf):
        history, tracer, _metrics, _cluster = traced_mf
        epochs = tracer.filter(cat="epoch", process="orion")
        assert len(epochs) == len(history.records)
        assert epochs[0].args["strategy"] == "TWO_D"
        assert tracer.filter(cat="barrier", process="orion")

    def test_metrics_recorded(self, traced_mf):
        history, _tracer, metrics, _cluster = traced_mf
        snapshot = metrics.snapshot()
        assert snapshot["epochs_total"] == len(history.records)
        assert snapshot["blocks_total"] > 0
        total = (snapshot.get("kernel_blocks_total", 0)
                 + snapshot.get("scalar_blocks_total", 0))
        assert total == snapshot["blocks_total"]
        assert snapshot["traffic_bytes_rotation"] > 0
        assert 0.0 < snapshot["utilization"] <= 1.0
        assert snapshot["block_seconds"]["count"] == snapshot["blocks_total"]

    def test_history_surfaces_observability(self, traced_mf):
        history, tracer, metrics, _cluster = traced_mf
        assert history.meta["tracer"] is tracer
        assert history.meta["metrics"] is metrics
        assert isinstance(history.meta["kernel_path"], bool)
        assert all(0.0 < r.utilization <= 1.0 for r in history.records)

    def test_disabled_tracing_is_bit_identical(self, mf_small):
        """Acceptance: instrumenting a run must not perturb its results."""
        from repro.apps import MFHyper, build_sgd_mf
        from repro.runtime.cluster import ClusterSpec

        def run(obs=None):
            cluster = ClusterSpec(num_machines=2, workers_per_machine=2)
            program = build_sgd_mf(
                mf_small, cluster=cluster, hyper=MFHyper(rank=4), seed=3,
                options=LoopOptions(obs=obs),
            )
            return program.run(3)

        plain = run()
        traced = run(obs=Observability.enabled())
        assert [r.loss for r in plain.records] \
            == [r.loss for r in traced.records]
        assert [r.time_s for r in plain.records] \
            == [r.time_s for r in traced.records]
        assert plain.records == traced.records
        assert plain.traffic.total_bytes == traced.traffic.total_bytes

    def test_serial_baseline_traced(self, mf_small):
        from repro.apps.sgd_mf import MFHyper, SGDMFApp
        from repro.baselines import run_serial

        tracer = Tracer()
        history = run_serial(SGDMFApp(mf_small, MFHyper(rank=4)), 2,
                             obs=Observability(tracer=tracer))
        blocks = tracer.filter(cat="block", process="serial")
        assert len(blocks) == 2
        assert sum(b.duration for b in blocks) \
            == pytest.approx(history.total_time_s)
        assert all(r.utilization == 1.0 for r in history.records)

    def test_bosen_baseline_traced(self, mf_small):
        from repro.apps.sgd_mf import MFHyper, SGDMFApp
        from repro.baselines import run_bosen
        from repro.runtime.cluster import ClusterSpec

        tracer = Tracer()
        metrics = MetricsRegistry()
        cluster = ClusterSpec(num_machines=2, workers_per_machine=2)
        history = run_bosen(SGDMFApp(mf_small, MFHyper(rank=4)), cluster, 2,
                            obs=Observability(tracer=tracer, metrics=metrics))
        assert "bosen" in tracer.processes()
        busy = tracer.busy_by_track(cat="block", process="bosen")
        traced_busy = sum(v for k, v in busy.items() if k.startswith("worker"))
        reported_busy = cluster.num_workers * sum(
            r.utilization * r.epoch_time_s for r in history.records
        )
        assert abs(traced_busy - reported_busy) < 1e-6
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []


class TestWallClockTraceRoundTrip:
    """Chrome-trace export/validate round trip of real-clock (`@wall`)
    spans produced by the multiprocess backend (satellite of the insight
    layer: docs/observability.md, "Real-clock spans")."""

    @pytest.fixture(scope="class")
    def wall_tracer(self, mf_small):
        from repro.apps import MFHyper, build_sgd_mf
        from repro.runtime.cluster import ClusterSpec

        tracer = Tracer()
        metrics = MetricsRegistry()
        cluster = ClusterSpec(num_machines=1, workers_per_machine=2)
        program = build_sgd_mf(
            mf_small, cluster=cluster, hyper=MFHyper(rank=4), seed=3,
            options=LoopOptions(
                obs=Observability(tracer=tracer, metrics=metrics),
                backend="multiprocess",
            ),
        )
        try:
            program.run(2)
        finally:
            program.close()
        return tracer

    def test_wall_process_records_epochs_and_blocks(self, wall_tracer):
        from repro.obs import wall_process

        wall = wall_process("orion")
        assert wall in wall_tracer.processes()
        epochs = wall_tracer.filter(
            cat="epoch", track="epochs", process=wall
        )
        assert len(epochs) == 2
        blocks = wall_tracer.filter(cat="block", process=wall)
        assert blocks
        # Real-clock blocks carry their schedule step and token wait.
        for block in blocks:
            assert "step" in block.args
            assert block.args["token_wait_s"] >= 0.0

    def test_export_validate_reload_round_trip(self, wall_tracer, tmp_path):
        from repro.obs import wall_process

        path = tmp_path / "wall_trace.json"
        trace = write_chrome_trace(wall_tracer, str(path))
        assert validate_chrome_trace(trace) == []

        reloaded = json.loads(path.read_text())
        assert validate_chrome_trace(reloaded) == []
        assert len(reloaded["traceEvents"]) == len(trace["traceEvents"])

        # The @wall process survives the round trip as its own Perfetto
        # process, with every span's timing intact.
        names = {
            event["args"]["name"]
            for event in reloaded["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert wall_process("orion") in names
        durations = sorted(
            event["dur"] for event in reloaded["traceEvents"]
            if event["ph"] == "X" and event["cat"] == "epoch"
        )
        original = sorted(
            span.duration * 1e6
            for span in wall_tracer.filter(cat="epoch")
        )
        assert durations == pytest.approx(original)


class TestLazyPackage:
    """``repro.obs`` resolves its re-exports on first use: a program that
    never asks for the exporters, the insight layer or the run store never
    imports them (``api._persist_run`` imports ``runstore`` only when a
    run is stored)."""

    HEAVY = ("insight", "runstore", "export", "report")

    def test_import_repro_apps_leaves_the_heavy_modules_out(self):
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import sys, repro.apps\n"
            "heavy = [m for m in %r if 'repro.obs.' + m in sys.modules]\n"
            "assert not heavy, heavy\n"
            "from repro.obs import RunStore, attribute_epochs\n"
            "assert RunStore.__module__ == 'repro.obs.runstore'\n"
            "assert attribute_epochs.__module__ == 'repro.obs.insight'\n"
            "assert 'repro.obs.export' not in sys.modules\n"
        ) % (self.HEAVY,)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_every_export_resolves(self):
        import importlib

        import repro.obs as obs

        # The package's public names, as listed before they went lazy.
        assert sorted(obs.__all__) == [
            "Counter", "EpochAttribution", "Gauge", "Histogram",
            "MetricsRegistry", "NULL_METRICS", "NULL_TRACER", "Observability",
            "RunRecord", "RunStore", "Segment", "Span", "Tracer", "Verdict",
            "WorkerAttribution", "add_traffic_spans", "attribute_epochs",
            "check_store", "chrome_trace_events", "compare_records",
            "insight_report", "loop_signature", "paired_prediction",
            "prediction_error", "record_run", "straggler_report",
            "to_chrome_trace", "utilization_lines", "validate_chrome_trace",
            "wall_process", "write_chrome_trace",
        ]
        for name in obs.__all__:
            home = importlib.import_module(f"repro.obs.{obs._HOME[name]}")
            assert getattr(obs, name) is getattr(home, name)
        with pytest.raises(AttributeError):
            obs.no_such_name
