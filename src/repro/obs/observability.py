"""One handle on the observability pair: tracer + metrics.

Every instrumented surface in this package takes one ``obs=``:
:class:`Observability` bundles the pair so contexts, loops, baselines and
the CLI thread a single object around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["Observability"]


@dataclass
class Observability:
    """A tracer and a metrics registry, threaded together.

    ``Observability.disabled()`` (the default everywhere) shares the
    zero-overhead NULL singletons; ``Observability.enabled()`` makes a
    fresh live pair for one run.
    """

    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared no-op pair (zero per-call overhead)."""
        return cls(tracer=NULL_TRACER, metrics=NULL_METRICS)

    @classmethod
    def enabled(cls) -> "Observability":
        """A fresh live tracer + metrics registry."""
        return cls(tracer=Tracer(), metrics=MetricsRegistry())

    @property
    def enabled_any(self) -> bool:
        """Whether either component actually records."""
        return bool(self.tracer.enabled or self.metrics.enabled)

    @classmethod
    def resolve(
        cls,
        obs: Optional["Observability"] = None,
        default: Optional["Observability"] = None,
    ) -> "Observability":
        """``obs``, else ``default`` (e.g. a context's observability),
        else the disabled singletons."""
        if obs is not None:
            return obs
        return default if default is not None else cls.disabled()
