"""Exporters: Chrome trace-event / Perfetto JSON from a :class:`Tracer`.

The produced file loads directly in `ui.perfetto.dev` (or Chrome's
``about:tracing``): one Perfetto *process* per traced engine, one *thread
track* per simulated worker (plus network and epoch tracks), timestamps in
virtual microseconds.  Span ``args`` survive as event args, so clicking a
block in the viewer shows its compute/prefetch/flush breakdown.

Also provides :func:`validate_chrome_trace` — a schema check used by the
test suite (on a traced quickstart run, among others) — and :func:`add_traffic_spans`, which
lifts a :class:`~repro.runtime.network.TrafficLog` onto a tracer so
engines that only record traffic still get network tracks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "add_traffic_spans",
]

#: Virtual seconds -> trace microseconds (the trace-event ``ts`` unit).
_US = 1e6


def _ids(tracer: Tracer) -> Dict[str, Any]:
    """Stable pid/tid assignment: processes and tracks in first-seen order."""
    pids: Dict[str, int] = {}
    tids: Dict[str, Dict[str, int]] = {}
    for process in tracer.processes():
        pids[process] = len(pids) + 1
        tids[process] = {
            track: index for index, track in enumerate(tracer.tracks(process))
        }
    return {"pids": pids, "tids": tids}


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list: metadata + complete ("X") + instant events."""
    ids = _ids(tracer)
    pids, tids = ids["pids"], ids["tids"]
    events: List[Dict[str, Any]] = []
    for process, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process},
            }
        )
        for track, tid in tids[process].items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
    for span in tracer.spans:
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": span.t_start * _US,
            "dur": span.duration * _US,
            "pid": pids[span.process],
            "tid": tids[span.process][span.track],
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    for span in tracer.instants:
        event = {
            "name": span.name,
            "cat": span.cat,
            "ph": "i",
            "s": "t",
            "ts": span.t_start * _US,
            "pid": pids[span.process],
            "tid": tids[span.process][span.track],
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    return events


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The full JSON-object trace (``{"traceEvents": [...], ...}``)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual",
            "time_unit": "microseconds of simulated time",
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    """Serialize the trace to ``path``; returns the written object."""
    trace = to_chrome_trace(tracer)
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return trace


def validate_chrome_trace(trace: Any) -> List[str]:
    """Check ``trace`` against the Chrome trace-event JSON-object format.

    Returns a list of problems (empty when the trace is valid).  Checks the
    envelope, the per-event required fields, and the "X"-event invariants
    (numeric non-negative ``dur``, numeric ``ts``) that Perfetto's importer
    relies on.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace.traceEvents must be a list"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where} is not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where} missing phase 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where} missing string 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where} missing integer {key!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where} args must be an object")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where} missing numeric 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                problems.append(f"{where} X event missing numeric 'dur'")
            elif dur < 0:
                problems.append(f"{where} X event has negative dur {dur}")
        elif phase == "i" and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where} instant scope must be t/p/g")
    return problems


def add_traffic_spans(
    tracer: Tracer,
    traffic: Any,
    process: str = "run",
    t_offset: float = 0.0,
) -> int:
    """Lift a :class:`~repro.runtime.network.TrafficLog` onto ``tracer``.

    One span per recorded transfer, on a ``net:<kind>`` track of
    ``process``.  Used for engines that account traffic without native
    tracing; returns the number of spans added.
    """
    if not tracer.enabled:
        return 0
    count = 0
    for event in traffic.events:
        tracer.add_span(
            event.kind,
            event.kind,
            t_offset + event.t_start,
            t_offset + event.t_end,
            track=f"net:{event.kind}",
            process=process,
            args={"nbytes": event.nbytes},
        )
        count += 1
    return count
