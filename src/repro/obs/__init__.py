"""Observability for the simulated runtime: tracing, metrics, exporters.

Everything in this package is aligned to the *virtual* clock the runtime
simulates — spans are placed where the timing model put the work, not
where the host CPU happened to run it.  See ``docs/observability.md`` for
the span taxonomy, metric names, and how to open a trace in Perfetto.

Quick use::

    from repro.obs import MetricsRegistry, Tracer, write_chrome_trace

    from repro.obs.observability import Observability

    obs = Observability.enabled()
    tracer, metrics = obs.tracer, obs.metrics
    ctx = OrionContext(cluster=cluster, obs=obs)
    ...  # build and run parallel loops
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev
    print(straggler_report(tracer, metrics))
"""

import importlib
from typing import Any

#: Where each re-export lives.  Resolved on first use (module
#: ``__getattr__``): ``import repro`` reaches this package through
#: ``repro.obs.metrics`` / ``.observability``, and a run with observability
#: off must not pay for importing the exporters, the insight layer and the
#: run store.
_EXPORTS = {
    "export": (
        "add_traffic_spans", "chrome_trace_events", "to_chrome_trace",
        "validate_chrome_trace", "write_chrome_trace",
    ),
    "insight": (
        "EpochAttribution", "Segment", "WorkerAttribution",
        "attribute_epochs", "insight_report", "paired_prediction",
        "prediction_error",
    ),
    "metrics": (
        "NULL_METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ),
    "observability": ("Observability",),
    "report": ("straggler_report", "utilization_lines"),
    "runstore": (
        "RunRecord", "RunStore", "Verdict", "check_store",
        "compare_records", "loop_signature", "record_run",
    ),
    "tracer": ("NULL_TRACER", "Span", "Tracer", "wall_process"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
