"""Trace consumption: time attribution, bottlenecks, prediction error.

The tracer (:mod:`repro.obs.tracer`) records *where* the runtime put every
piece of work; this module answers *why a run took as long as it did*:

* :func:`attribute_epochs` re-tiles each traced epoch into an exact
  per-worker partition of ``[epoch start, epoch end]`` — ``compute`` /
  ``prefetch`` / ``flush`` / ``overhead`` busy segments from the block
  phase spans, plus ``barrier`` and ``wait`` idle segments for the gaps.
  The tiling is *bit-exact*: consecutive segments share their boundary
  float, so the attributed time provably sums to the epoch makespan
  (:meth:`EpochAttribution.verify_exact` checks the invariant).
* :meth:`EpochAttribution.what_if` produces bottleneck estimates: the
  epoch time with stragglers balanced away, with communication free, and
  with perfect prefetch overlap.
* :func:`paired_prediction` lines up a virtual-clock process with its
  ``@wall`` twin (the multiprocess backend) and reports the cost model's
  per-epoch prediction error.
* :func:`insight_report` renders all of the above as the plain-text
  report behind the CLI's ``--report`` flag.

Everything here is a pure consumer: it never mutates the tracer and adds
zero cost to runs that do not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span, Tracer, wall_process

__all__ = [
    "BUSY_CATEGORIES",
    "IDLE_CATEGORIES",
    "Segment",
    "WorkerAttribution",
    "EpochAttribution",
    "attribute_epochs",
    "prediction_error",
    "paired_prediction",
    "insight_report",
]

#: Segment categories charged as busy worker time (the executor's block
#: phase taxonomy, in the order phases run inside a block).
BUSY_CATEGORIES: Tuple[str, ...] = ("prefetch", "compute", "flush", "overhead")

#: Idle categories tiling the rest of the epoch: ``barrier`` while the
#: schedule holds every worker, ``wait`` for rotation/flush/dispatch gaps.
IDLE_CATEGORIES: Tuple[str, ...] = ("barrier", "wait")

_PHASE_CATS = frozenset(BUSY_CATEGORIES)


@dataclass(frozen=True)
class Segment:
    """One attributed interval of a worker's epoch timeline."""

    t_start: float
    t_end: float
    category: str
    #: Owning block span name for busy segments (``None`` for idle time).
    block: Optional[str] = None
    #: Schedule step of the owning block, when the span recorded one.
    step: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _span_terms(segments: Sequence[Segment]) -> List[float]:
    """``t_end``/``-t_start`` terms whose exact sum telescopes.

    Feeding these to :func:`math.fsum` yields the *correctly rounded*
    value of the exact real sum; when the segments tile an interval the
    exact sum telescopes to ``t_end - t_start`` of the whole interval, so
    the fsum equals the float subtraction bit for bit.
    """
    terms: List[float] = []
    for segment in segments:
        terms.append(segment.t_end)
        terms.append(-segment.t_start)
    return terms


@dataclass
class WorkerAttribution:
    """One worker's exact segment tiling of an epoch."""

    track: str
    segments: List[Segment] = field(default_factory=list)
    #: The worker's block spans inside the epoch (critical-path input).
    blocks: List[Span] = field(default_factory=list)

    def attributed_seconds(self) -> float:
        """Total attributed time — bit-equal to the epoch makespan when
        the segments tile it (see :func:`_span_terms`)."""
        return math.fsum(_span_terms(self.segments))

    def seconds_by_category(self) -> Dict[str, float]:
        """Correctly rounded seconds per category."""
        grouped: Dict[str, List[float]] = {}
        for segment in self.segments:
            terms = grouped.setdefault(segment.category, [])
            terms.append(segment.t_end)
            terms.append(-segment.t_start)
        return {cat: math.fsum(terms) for cat, terms in grouped.items()}

    def busy_seconds(self) -> float:
        return math.fsum(
            _span_terms(
                [s for s in self.segments if s.category in _PHASE_CATS]
            )
        )


@dataclass
class EpochAttribution:
    """Exact per-worker time attribution of one traced epoch."""

    process: str
    epoch: Span
    workers: Dict[str, WorkerAttribution] = field(default_factory=dict)
    #: ``"virtual"`` for cost-model spans, ``"real"`` for ``@wall`` spans.
    clock: str = "virtual"

    @property
    def t_start(self) -> float:
        return self.epoch.t_start

    @property
    def t_end(self) -> float:
        return self.epoch.t_end

    @property
    def makespan(self) -> float:
        return self.epoch.t_end - self.epoch.t_start

    def totals(self) -> Dict[str, float]:
        """Seconds per category summed over workers (known cats first)."""
        ordered = list(BUSY_CATEGORIES) + list(IDLE_CATEGORIES)
        terms: Dict[str, List[float]] = {}
        for worker in self.workers.values():
            for segment in worker.segments:
                bucket = terms.setdefault(segment.category, [])
                bucket.append(segment.t_end)
                bucket.append(-segment.t_start)
        out: Dict[str, float] = {}
        for cat in ordered:
            if cat in terms:
                out[cat] = math.fsum(terms.pop(cat))
        for cat in sorted(terms):
            out[cat] = math.fsum(terms[cat])
        return out

    def verify_exact(self) -> List[str]:
        """Check the bit-exact tiling invariant; returns problem strings.

        Per worker: the first segment starts exactly at the epoch start,
        consecutive segments share their boundary float, the last segment
        ends exactly at the epoch end, no segment runs backwards — and
        therefore the fsum of attributed time equals the makespan bit for
        bit.  An empty list means the attribution is provably exact.
        """
        problems: List[str] = []
        makespan = self.makespan
        for track, worker in self.workers.items():
            segments = worker.segments
            if not segments:
                if makespan != 0.0:
                    problems.append(
                        f"{self.process}/{track}: no segments over a "
                        f"non-empty epoch"
                    )
                continue
            if segments[0].t_start != self.t_start:
                problems.append(
                    f"{self.process}/{track}: first segment starts at "
                    f"{segments[0].t_start!r}, epoch at {self.t_start!r}"
                )
            if segments[-1].t_end != self.t_end:
                problems.append(
                    f"{self.process}/{track}: last segment ends at "
                    f"{segments[-1].t_end!r}, epoch at {self.t_end!r}"
                )
            for prev, cur in zip(segments, segments[1:]):
                if prev.t_end != cur.t_start:
                    problems.append(
                        f"{self.process}/{track}: boundary mismatch "
                        f"{prev.t_end!r} -> {cur.t_start!r}"
                    )
            for segment in segments:
                if segment.t_end < segment.t_start:
                    problems.append(
                        f"{self.process}/{track}: negative segment "
                        f"{segment!r}"
                    )
            attributed = worker.attributed_seconds()
            if attributed != makespan:
                problems.append(
                    f"{self.process}/{track}: attributed {attributed!r} "
                    f"!= makespan {makespan!r}"
                )
        return problems

    def what_if(self) -> Dict[str, float]:
        """Bottleneck what-if estimates (lower-bound epoch times).

        * ``balanced`` — stragglers removed: total busy work spread
          evenly over the workers (ignores barriers, so a true bound);
        * ``comm_free`` — prefetch and flush transfer cost zero: the
          slowest worker's remaining compute + overhead;
        * ``perfect_prefetch`` — prefetch fully overlapped with compute,
          flush still paid.
        """
        if not self.workers:
            return {}
        busy: List[float] = []
        comm_free: List[float] = []
        no_prefetch: List[float] = []
        for worker in self.workers.values():
            by_cat = worker.seconds_by_category()
            total = worker.busy_seconds()
            busy.append(total)
            comm_free.append(
                total - by_cat.get("prefetch", 0.0) - by_cat.get("flush", 0.0)
            )
            no_prefetch.append(total - by_cat.get("prefetch", 0.0))
        return {
            "actual": self.makespan,
            "balanced": math.fsum(busy) / len(busy),
            "comm_free": max(comm_free),
            "perfect_prefetch": max(no_prefetch),
        }

    def critical_path(self) -> List[Tuple[int, str, str, float]]:
        """Per schedule step, the longest block: the makespan's skeleton.

        Returns ``(step, block name, worker track, seconds)`` rows sorted
        by step.  Blocks whose spans carry no ``step`` argument (older
        traces) are skipped.
        """
        slowest: Dict[int, Tuple[float, str, str]] = {}
        for track, worker in self.workers.items():
            for block in worker.blocks:
                if not block.args or "step" not in block.args:
                    continue
                step = int(block.args["step"])
                duration = block.duration
                best = slowest.get(step)
                if best is None or duration > best[0]:
                    slowest[step] = (duration, block.name, track)
        return [
            (step, name, track, duration)
            for step, (duration, name, track) in sorted(slowest.items())
        ]


def _gap_segments(
    t_start: float, t_end: float, barriers: Sequence[Span]
) -> List[Segment]:
    """Tile an idle gap, splitting it at barrier-span boundaries."""
    segments: List[Segment] = []
    cursor = t_start
    for barrier in barriers:
        b_start = max(barrier.t_start, cursor)
        b_end = min(barrier.t_end, t_end)
        if b_end <= b_start:
            continue
        if b_start > cursor:
            segments.append(Segment(cursor, b_start, "wait"))
        segments.append(Segment(b_start, b_end, "barrier"))
        cursor = b_end
    if cursor < t_end:
        segments.append(Segment(cursor, t_end, "wait"))
    return segments


def _block_segments(
    block: Span,
    phases: Sequence[Span],
    cursor: float,
    t_limit: float,
) -> Tuple[List[Segment], float]:
    """Tile one block's interval, walking its phase spans in order.

    ``cursor`` is where the worker's previous segment ended; the block's
    recorded boundaries are clamped onto it so the tiling stays exact even
    when the emitter's float associativity left ulp-sized seams between
    spans.  Returns the segments and the new cursor (the block's clamped
    end).
    """
    step = None
    if block.args and "step" in block.args:
        step = int(block.args["step"])
    b_end = min(max(block.t_end, cursor), t_limit)
    segments: List[Segment] = []
    inner = cursor
    for phase in sorted(phases, key=lambda s: s.t_start):
        p_end = min(max(phase.t_end, inner), b_end)
        if p_end <= inner:
            continue
        segments.append(
            Segment(inner, p_end, phase.cat, block=block.name, step=step)
        )
        inner = p_end
    if inner < b_end:
        # No phase breakdown (a real-clock block, or an aborted one): the
        # whole block is compute; with phases, the residual is the ulp
        # seam the emitter rounded away — charge it as overhead.
        category = "overhead" if segments else "compute"
        segments.append(
            Segment(inner, b_end, category, block=block.name, step=step)
        )
    return segments, b_end


def attribute_epochs(
    tracer: Tracer, process: str
) -> List[EpochAttribution]:
    """Exact per-worker time attribution for every epoch of one process.

    Walks the process's ``epoch`` spans on the ``epochs`` track; inside
    each, every ``worker*`` track is tiled into busy segments (from the
    block phase spans) and idle segments (``barrier`` where a barrier span
    covers the gap, ``wait`` otherwise).  The tiling is constructed to be
    bit-exact — see :meth:`EpochAttribution.verify_exact`.
    """
    epochs = tracer.epoch_spans(process)
    if not epochs:
        return []
    barriers = sorted(
        tracer.filter(cat="barrier", process=process),
        key=lambda s: s.t_start,
    )
    worker_tracks = [
        track for track in tracer.tracks(process)
        if track.startswith("worker")
    ]
    blocks_by_track: Dict[str, List[Span]] = {t: [] for t in worker_tracks}
    phases_by_track: Dict[str, List[Span]] = {t: [] for t in worker_tracks}
    for span in tracer.spans:
        if span.process != process or span.track not in blocks_by_track:
            continue
        if span.cat == "block":
            blocks_by_track[span.track].append(span)
        elif span.cat in _PHASE_CATS and span.depth > 0:
            phases_by_track[span.track].append(span)
    clock = "real" if process.endswith("@wall") else "virtual"

    out: List[EpochAttribution] = []
    for epoch in epochs:
        attribution = EpochAttribution(process, epoch, clock=clock)
        in_epoch = [
            b for b in barriers
            if b.t_start >= epoch.t_start and b.t_start < epoch.t_end
        ]
        for track in worker_tracks:
            blocks = sorted(
                (
                    b for b in blocks_by_track[track]
                    if epoch.t_start <= b.t_start < epoch.t_end
                ),
                key=lambda s: s.t_start,
            )
            worker = WorkerAttribution(track, blocks=blocks)
            cursor = epoch.t_start
            for block in blocks:
                b_start = min(max(block.t_start, cursor), epoch.t_end)
                if b_start > cursor:
                    worker.segments.extend(
                        _gap_segments(cursor, b_start, in_epoch)
                    )
                    cursor = b_start
                phases = [
                    p for p in phases_by_track[track]
                    if block.t_start <= p.t_start < block.t_end
                ]
                segments, cursor = _block_segments(
                    block, phases, cursor, epoch.t_end
                )
                worker.segments.extend(segments)
            if cursor < epoch.t_end:
                worker.segments.extend(
                    _gap_segments(cursor, epoch.t_end, in_epoch)
                )
            attribution.workers[track] = worker
        out.append(attribution)
    return out


# --------------------------------------------------------------------- #
# Prediction error (virtual clock vs. wall clock)                        #
# --------------------------------------------------------------------- #

def prediction_error(
    real_seconds: Sequence[float], predicted_seconds: Sequence[float]
) -> Dict[str, Any]:
    """Per-epoch error of the cost model against measured wall time.

    Pairs the two series index by index (up to the shorter length).
    ``error_pct`` is signed — positive when the real run was slower than
    predicted.  Returns an empty dict when either series is empty.
    """
    count = min(len(real_seconds), len(predicted_seconds))
    if count == 0:
        return {}
    rows: List[Dict[str, float]] = []
    for i in range(count):
        real = float(real_seconds[i])
        predicted = float(predicted_seconds[i])
        error = (
            100.0 * (real - predicted) / predicted if predicted > 0 else 0.0
        )
        rows.append(
            {
                "epoch": i + 1,
                "real_s": real,
                "predicted_s": predicted,
                "error_pct": error,
            }
        )
    real_total = math.fsum(row["real_s"] for row in rows)
    predicted_total = math.fsum(row["predicted_s"] for row in rows)
    return {
        "epochs": rows,
        "real_total_s": real_total,
        "predicted_total_s": predicted_total,
        "total_error_pct": (
            100.0 * (real_total - predicted_total) / predicted_total
            if predicted_total > 0 else 0.0
        ),
        "mean_abs_error_pct": math.fsum(
            abs(row["error_pct"]) for row in rows
        ) / count,
    }


def paired_prediction(
    tracer: Tracer, process: str
) -> Optional[Dict[str, Any]]:
    """Prediction-error breakdown when ``process`` has an ``@wall`` twin.

    The multiprocess backend traces measured epochs under
    ``wall_process(process)``; a simulated run of the same loop traces the
    predicted epochs under ``process``.  When both live in one tracer this
    pairs them epoch by epoch; returns ``None`` when either side is
    missing.
    """
    if process.endswith("@wall"):
        return None
    virtual = tracer.epoch_spans(process)
    wall = tracer.epoch_spans(wall_process(process))
    if not virtual or not wall:
        return None
    return prediction_error(
        [s.duration for s in wall], [s.duration for s in virtual]
    )


# --------------------------------------------------------------------- #
# Text report                                                            #
# --------------------------------------------------------------------- #

def _fmt_ms(value: float) -> str:
    return f"{value * 1e3:9.3f}"


def _attribution_lines(attributions: List[EpochAttribution]) -> List[str]:
    cats = list(BUSY_CATEGORIES) + list(IDLE_CATEGORIES)
    header = "  " + f"{'epoch':22s} {'makespan':>12s}"
    for cat in cats:
        header += f" {cat[:8]:>9s}"
    lines = [header + "   exact"]
    for attribution in attributions:
        totals = attribution.totals()
        capacity = attribution.makespan * max(len(attribution.workers), 1)
        row = (
            f"  {attribution.epoch.name[:22]:22s} "
            f"{_fmt_ms(attribution.makespan)} ms"
        )
        for cat in cats:
            share = (
                100.0 * totals.get(cat, 0.0) / capacity if capacity > 0
                else 0.0
            )
            row += f" {share:8.1f}%"
        exact = "yes" if not attribution.verify_exact() else "NO"
        lines.append(row + f"   {exact}")
    return lines


def _what_if_lines(attributions: List[EpochAttribution]) -> List[str]:
    keys = ("actual", "balanced", "comm_free", "perfect_prefetch")
    sums = {key: 0.0 for key in keys}
    seen = False
    for attribution in attributions:
        estimates = attribution.what_if()
        if not estimates:
            continue
        seen = True
        for key in keys:
            sums[key] += estimates[key]
    if not seen:
        return []
    actual = sums["actual"]
    lines = ["  what-if (all epochs):"]
    labels = {
        "balanced": "stragglers removed (balanced work)",
        "comm_free": "communication free",
        "perfect_prefetch": "perfect prefetch overlap",
    }
    for key, label in labels.items():
        estimate = sums[key]
        speedup = actual / estimate if estimate > 0 else float("inf")
        lines.append(
            f"    {label:36s} {_fmt_ms(estimate)} ms  ({speedup:5.2f}x)"
        )
    return lines


def _bottleneck_lines(
    attributions: List[EpochAttribution], top: int
) -> List[str]:
    busy: Dict[str, float] = {}
    for attribution in attributions:
        for track, worker in attribution.workers.items():
            busy[track] = busy.get(track, 0.0) + worker.busy_seconds()
    if not busy:
        return []
    mean = math.fsum(busy.values()) / len(busy)
    slowest_track = max(busy, key=lambda t: busy[t])
    lines = []
    if mean > 0:
        lines.append(
            f"  bottleneck worker: {slowest_track} "
            f"({_fmt_ms(busy[slowest_track]).strip()} ms busy, "
            f"{busy[slowest_track] / mean:.2f}x the mean)"
        )
    last = attributions[-1]
    path = last.critical_path()
    if path:
        total = math.fsum(duration for _, _, _, duration in path)
        share = (
            100.0 * total / last.makespan if last.makespan > 0 else 0.0
        )
        lines.append(
            f"  critical path (last epoch): {len(path)} steps, "
            f"{_fmt_ms(total).strip()} ms ({share:.1f}% of makespan); "
            f"longest:"
        )
        for step, name, track, duration in sorted(
            path, key=lambda row: row[3], reverse=True
        )[:top]:
            lines.append(
                f"    step {step:3d}  {name:20s} {track:10s} "
                f"{_fmt_ms(duration)} ms"
            )
    return lines


def insight_report(
    tracer: Tracer,
    diagnostics: Optional[Sequence[str]] = None,
    top: int = 3,
) -> str:
    """Render the insight layer as a plain-text report.

    One section per traced process with epoch spans: the exact per-phase
    attribution table, bottleneck worker + critical path, and what-if
    estimates; then a prediction-error section for every virtual process
    with an ``@wall`` twin, and the kernel-path diagnostics when given
    (see ``repro.cli --report``).
    """
    lines: List[str] = []
    for process in tracer.processes():
        attributions = attribute_epochs(tracer, process)
        if not attributions:
            continue
        clock = attributions[0].clock
        lines.append(f"== insight: {process} ({clock} clock) ==")
        lines.extend(_attribution_lines(attributions))
        lines.extend(_bottleneck_lines(attributions, top))
        lines.extend(_what_if_lines(attributions))
        lines.append("")
    for process in tracer.processes():
        paired = paired_prediction(tracer, process)
        if not paired:
            continue
        lines.append(
            f"== prediction error: {process} (virtual) vs "
            f"{wall_process(process)} (real) =="
        )
        lines.append(
            f"  {'epoch':>5s} {'real':>12s} {'predicted':>12s} "
            f"{'error':>8s}"
        )
        for row in paired["epochs"]:
            lines.append(
                f"  {row['epoch']:5d} {_fmt_ms(row['real_s'])} ms "
                f"{_fmt_ms(row['predicted_s'])} ms "
                f"{row['error_pct']:+7.1f}%"
            )
        lines.append(
            f"  total {_fmt_ms(paired['real_total_s'])} ms vs "
            f"{_fmt_ms(paired['predicted_total_s'])} ms predicted "
            f"({paired['total_error_pct']:+.1f}%; mean abs error "
            f"{paired['mean_abs_error_pct']:.1f}%)"
        )
        lines.append("")
    if diagnostics:
        lines.append("== kernel-path diagnostics ==")
        for diagnostic in diagnostics:
            for part in str(diagnostic).splitlines():
                lines.append(f"  {part}")
        lines.append("")
    if not lines:
        return "(no traced epochs)"
    return "\n".join(lines).rstrip("\n")
