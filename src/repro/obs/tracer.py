"""Structured tracing on the simulated virtual clock.

A :class:`Tracer` collects :class:`Span` records — named intervals of
virtual time placed on a (process, track) pair — from which the runtime's
execution can be inspected after the fact: per-worker busy time, rotation
and flush traffic, schedule barriers, whole epochs.  Because the runtime
operates on a *virtual* clock, spans carry explicit start/end times rather
than sampling a wall clock; the executor and baseline engines place each
span exactly where the timing model put the work.

Design goals:

* **Near-zero overhead when disabled.**  Every recording method checks
  ``self.enabled`` first and returns; a disabled tracer allocates nothing
  per call.  The module-level :data:`NULL_TRACER` singleton is what
  un-instrumented runs share.
* **Virtual-time native.**  ``add_span`` takes explicit ``t_start`` /
  ``t_end`` in virtual seconds.  For code with a natural enter/exit shape
  there is also a ``begin``/``end`` stack per track that records nesting
  depth, so exports can show parent/child structure.
* **Multi-process traces.**  Spans carry a ``process`` label (one per
  engine: ``orion``, ``bosen``, ``strads``, ...) so one trace file can
  hold several engines' runs side by side for comparison.

The span taxonomy used by the runtime is documented in
``docs/observability.md``: ``epoch`` → ``block`` → phase spans
(``prefetch`` / ``compute`` / ``flush`` / ``overhead``) on worker tracks,
plus traffic spans (``rotation`` / ``flush`` / ``prefetch`` /
``broadcast`` / ``sync``) on network tracks and ``barrier`` spans on the
epoch track.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["Span", "Tracer", "NULL_TRACER", "wall_process"]


def wall_process(process: str) -> str:
    """Trace-process label for *real* wall-clock spans of one engine.

    Spans recorded by a real execution backend (the multiprocess runtime)
    measure ``time.perf_counter()`` seconds, not the virtual cost model,
    so they must never share a process section with virtual spans —
    otherwise utilization and horizon math would mix clock domains.  The
    convention: real-time spans for engine ``"orion"`` live under process
    ``"orion@wall"``, which reports and exporters treat as just another
    process (its own section in :func:`~repro.obs.report.straggler_report`,
    its own Perfetto process lane)."""
    return f"{process}@wall"


@dataclass(frozen=True)
class Span:
    """One named interval of virtual time on a (process, track) pair.

    Attributes:
        name: human-readable label (``"block[2,5]"``, ``"rotation"``).
        cat: category for filtering (``"block"``, ``"compute"``,
            ``"rotation"``, ``"epoch"``, ``"barrier"``, ...).
        t_start: virtual start time in seconds.
        t_end: virtual end time in seconds (``>= t_start``).
        track: lane within the process (``"worker0"``, ``"net:rotation"``,
            ``"epochs"``); becomes a Perfetto thread track.
        process: engine/run label; becomes a Perfetto process.
        depth: nesting depth when recorded via ``begin``/``end`` (0 for
            top-level spans).
        args: optional extra payload shown in the trace viewer.
    """

    name: str
    cat: str
    t_start: float
    t_end: float
    track: str = "main"
    process: str = "run"
    depth: int = 0
    args: Optional[Mapping[str, Any]] = None

    @property
    def duration(self) -> float:
        """Span length in virtual seconds."""
        return self.t_end - self.t_start


@dataclass
class _OpenSpan:
    name: str
    cat: str
    t_start: float
    args: Optional[Mapping[str, Any]]


class Tracer:
    """Collects virtual-time spans; cheap no-op when disabled.

    Args:
        enabled: when ``False`` every method returns immediately without
            recording (the state shared by :data:`NULL_TRACER`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self._stacks: Dict[Tuple[str, str], List[_OpenSpan]] = {}

    def __bool__(self) -> bool:
        return self.enabled

    # ---------------- recording ---------------------------------------- #

    def add_span(
        self,
        name: str,
        cat: str,
        t_start: float,
        t_end: float,
        track: str = "main",
        process: str = "run",
        args: Optional[Mapping[str, Any]] = None,
        depth: int = 0,
    ) -> None:
        """Record one complete span with explicit virtual times."""
        if not self.enabled:
            return
        if t_end < t_start:
            t_end = t_start
        self.spans.append(
            Span(name, cat, float(t_start), float(t_end), track, process,
                 depth, args)
        )

    def instant(
        self,
        name: str,
        t: float,
        track: str = "main",
        process: str = "run",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a zero-duration marker."""
        if not self.enabled:
            return
        self.instants.append(
            Span(name, "instant", float(t), float(t), track, process, 0, args)
        )

    def begin(
        self,
        name: str,
        cat: str,
        t: float,
        track: str = "main",
        process: str = "run",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Open a nested span on ``(process, track)``; close with ``end``."""
        if not self.enabled:
            return
        self._stacks.setdefault((process, track), []).append(
            _OpenSpan(name, cat, float(t), args)
        )

    def end(self, t: float, track: str = "main", process: str = "run") -> Span:
        """Close the innermost open span on ``(process, track)``.

        The recorded span's ``depth`` is its nesting level (0 for the
        outermost).  Raises ``ValueError`` when no span is open.
        """
        if not self.enabled:
            return Span("", "", 0.0, 0.0)
        stack = self._stacks.get((process, track))
        if not stack:
            raise ValueError(
                f"Tracer.end with no open span on {(process, track)!r}"
            )
        open_span = stack.pop()
        span = Span(
            open_span.name,
            open_span.cat,
            open_span.t_start,
            max(float(t), open_span.t_start),
            track,
            process,
            depth=len(stack),
            args=open_span.args,
        )
        self.spans.append(span)
        return span

    # ---------------- queries ------------------------------------------ #

    def filter(
        self,
        cat: Optional[str] = None,
        track: Optional[str] = None,
        process: Optional[str] = None,
    ) -> List[Span]:
        """Spans matching every given criterion."""
        out = []
        for span in self.spans:
            if cat is not None and span.cat != cat:
                continue
            if track is not None and span.track != track:
                continue
            if process is not None and span.process != process:
                continue
            out.append(span)
        return out

    def processes(self) -> List[str]:
        """Process labels in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.process)
        for span in self.instants:
            seen.setdefault(span.process)
        return list(seen)

    def tracks(self, process: str) -> List[str]:
        """Track labels of one process in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if span.process == process:
                seen.setdefault(span.track)
        for span in self.instants:
            if span.process == process:
                seen.setdefault(span.track)
        return list(seen)

    def epoch_spans(self, process: str) -> List[Span]:
        """One process's ``epoch`` spans, in timeline order.

        The entry point for trace consumers (:mod:`repro.obs.insight`):
        epochs anchor attribution, and their count/durations are the
        per-epoch timing series of a run."""
        return sorted(
            self.filter(cat="epoch", track="epochs", process=process),
            key=lambda span: span.t_start,
        )

    def busy_by_track(
        self, cat: str = "block", process: Optional[str] = None
    ) -> Dict[str, float]:
        """Total ``cat``-span seconds per track (busy-time accounting)."""
        busy: Dict[str, float] = {}
        for span in self.spans:
            if span.cat != cat:
                continue
            if process is not None and span.process != process:
                continue
            busy[span.track] = busy.get(span.track, 0.0) + span.duration
        return busy

    def time_bounds(
        self, process: Optional[str] = None
    ) -> Optional[Tuple[float, float]]:
        """(earliest start, latest end) over spans, or ``None`` if empty."""
        lo: Optional[float] = None
        hi: Optional[float] = None
        for span in self.spans:
            if process is not None and span.process != process:
                continue
            lo = span.t_start if lo is None else min(lo, span.t_start)
            hi = span.t_end if hi is None else max(hi, span.t_end)
        if lo is None or hi is None:
            return None
        return lo, hi

    def clear(self) -> None:
        """Drop every recorded span (open begin/end stacks included)."""
        self.spans.clear()
        self.instants.clear()
        self._stacks.clear()


#: Shared disabled tracer: what un-instrumented code paths receive.
NULL_TRACER = Tracer(enabled=False)
