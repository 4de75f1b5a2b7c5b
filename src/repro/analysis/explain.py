"""Human-readable compilation reports (the paper's Fig. 6, as text).

``explain_plan`` renders everything the static parallelizer decided about
a loop — extracted loop information, per-array dependence vectors, the
chosen strategy with its candidates, and DistArray placements — in the
layout of the paper's Fig. 6 walkthrough.  Exposed on the API as
``ParallelLoop.explain()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.analysis.loop_info import LoopInfo
from repro.analysis.strategy import Plan, Strategy

if TYPE_CHECKING:
    from repro.analysis.synth import SynthResult

__all__ = ["explain_plan"]


def _section(title: str, lines: List[str]) -> List[str]:
    return [title, "-" * len(title)] + lines + [""]


def explain_plan(
    info: LoopInfo,
    plan: Plan,
    synth: Optional["SynthResult"] = None,
    level_schedule: Optional[Dict[str, float]] = None,
) -> str:
    """Render the static parallelization of one loop as a report.

    ``synth`` (when kernel synthesis ran) appends a section with the
    generated kernel source or the fallback explanation, led by the
    ``level_schedule`` statistics once an epoch has produced them (see
    :func:`repro.analysis.synth.level_schedule_stats`).
    """
    out: List[str] = []

    lines = [
        f"iteration space: {info.iteration_space.name} "
        f"(shape {info.iteration_space.shape}, "
        f"{info.iteration_space.num_entries} entries)",
        f"loop index vector: {info.index_param} "
        f"({info.num_iter_dims} dimensions)",
        "iteration ordering: "
        + ("ordered (lexicographic)" if info.ordered else "unordered"),
    ]
    reads = [
        ref.describe()
        for refs in info.refs.values()
        for ref in refs
        if ref.is_read
    ]
    writes = [
        ref.describe()
        for refs in info.refs.values()
        for ref in refs
        if ref.is_write
    ]
    lines.append("DistArray reads: " + (", ".join(reads) or "(none)"))
    lines.append("DistArray writes: " + (", ".join(writes) or "(none)"))
    if info.buffer_refs:
        buffered = [
            ref.describe()
            for refs in info.buffer_refs.values()
            for ref in refs
        ]
        lines.append(
            "buffered writes (exempt from analysis): " + ", ".join(buffered)
        )
    if info.accumulators:
        lines.append("accumulators: " + ", ".join(sorted(info.accumulators)))
    lines.append(
        "inherited variables: "
        + (", ".join(sorted(info.inherited)) or "(none)")
    )
    out += _section("Loop information", lines)

    lines = []
    for name in sorted(plan.dvecs_by_array):
        vectors = sorted(v.describe() for v in plan.dvecs_by_array[name])
        lines.append(f"{name}: " + (", ".join(vectors) or "(independent)"))
    if not lines:
        lines = ["(no loop-carried dependences)"]
    out += _section("Dependence vectors (Alg. 2)", lines)

    lines = [f"chosen: {plan.describe()}"]
    if plan.candidates_1d:
        lines.append(f"1D candidate dimensions: {list(plan.candidates_1d)}")
    if plan.candidates_2d:
        lines.append(
            "2D candidate orientations (space, time): "
            f"{list(plan.candidates_2d)}"
        )
    if plan.strategy is Strategy.TWO_D_UNIMODULAR:
        lines.append(f"unimodular transformation: {plan.transform}")
        lines.append(f"inverse transformation:    {plan.transform_inverse}")
    out += _section("Partitioning & schedule (Sec. 4.3)", lines)

    lines = []
    for name in sorted(plan.placements):
        placement = plan.placements[name]
        detail = placement.kind.value
        if placement.array_dim is not None:
            detail += f" (partitioned on array dim {placement.array_dim})"
        lines.append(f"{name}: {detail}")
    if not lines:
        lines = ["(no referenced DistArrays)"]
    out += _section("DistArray placements (Sec. 4.4)", lines)

    if synth is not None:
        lines = synth.describe().splitlines()
        if level_schedule is not None:
            lines.insert(
                1,
                "  level schedule: {entries} entries in {groups} groups "
                "(mean {mean_group_size:.1f} entries/group, "
                "{single_entry_share:.1%} single-entry)".format(
                    **level_schedule
                ),
            )
        out += _section("Kernel synthesis", lines)

    if info.diagnostics:
        lines = [diag.describe() for diag in info.diagnostics]
        out += _section("Diagnostics (lint)", lines)

    return "\n".join(out).rstrip() + "\n"
