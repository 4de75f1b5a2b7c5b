"""Parallelization strategy selection (paper Sec. 4.3, Fig. 6 stage 3).

Given the dependence vectors of a loop, decide how to partition and
schedule the iteration space:

* **1D**: some dimension ``i`` has distance 0 in every dependence vector —
  partitioning on ``i`` makes partitions independent (paper Fig. 7a/7d).
* **2D**: some pair ``(i, j)`` has, in every dependence vector, distance 0
  at ``i`` *or* at ``j`` — iterations differing in both are independent
  (paper Fig. 7b/7c).  One dimension becomes the *space* dimension (pinned
  to workers), the other the *time* dimension (stepped globally).
* **2D via unimodular transformation**: neither applies but a unimodular
  ``T`` carries all dependences on the transformed outermost level.
* With every write buffered the loop is dependence-free by construction and
  runs as 1D **data parallelism** (the paper's Sec. 3.3 relaxation).

Among candidates, the default heuristic minimizes the volume of DistArray
data that must move between workers during the loop (rotated plus
server-served bytes); the application can override the choice.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis import unimodular
from repro.analysis.depvec import DepVector, compute_dependence_vectors
from repro.analysis.lint import Diagnostic, location_of
from repro.analysis.loop_info import LoopInfo
from repro.errors import ParallelizationError

__all__ = ["Strategy", "Placement", "PlacementKind", "Plan", "choose_plan"]


class Strategy(enum.Enum):
    """The paper's parallelization strategies."""

    ONE_D = "1d"
    TWO_D = "2d"
    TWO_D_UNIMODULAR = "2d_unimodular"
    DATA_PARALLEL = "1d_data_parallel"


class PlacementKind(enum.Enum):
    """Where each DistArray lives during loop execution (paper Sec. 4.4)."""

    LOCAL = "local"          # range partitioned on the space dim; no comm
    ROTATED = "rotated"      # partitioned on the time dim; ring-rotated
    REPLICATED = "replicated"  # read-only; broadcast once
    SERVER = "server"        # served by parameter servers; prefetch + flush


@dataclass(frozen=True)
class Placement:
    """Placement decision for one DistArray."""

    kind: PlacementKind
    #: For LOCAL/ROTATED: the array dimension that is range partitioned.
    array_dim: Optional[int] = None


@dataclass
class Plan:
    """The complete static parallelization decision for one loop."""

    strategy: Strategy
    ordered: bool
    #: Iteration-space dimension pinned to workers (1D and 2D).
    space_dim: Optional[int] = None
    #: Iteration-space dimension stepped over time (2D only).
    time_dim: Optional[int] = None
    #: Unimodular transformation (and inverse) when strategy needs one.
    transform: Optional[unimodular.Matrix] = None
    transform_inverse: Optional[unimodular.Matrix] = None
    #: Union of dependence vectors over all referenced arrays.
    dvecs: FrozenSet[DepVector] = frozenset()
    #: Dependence vectors per array (diagnostics, tests).
    dvecs_by_array: Dict[str, FrozenSet[DepVector]] = field(default_factory=dict)
    #: All dimensions eligible for 1D partitioning.
    candidates_1d: Tuple[int, ...] = ()
    #: All (space, time) orientations eligible for 2D partitioning.
    candidates_2d: Tuple[Tuple[int, int], ...] = ()
    #: Placement per referenced DistArray name.
    placements: Dict[str, Placement] = field(default_factory=dict)
    #: Whether the loop relies on DistArray Buffers (dependence violation).
    uses_buffers: bool = False

    def describe(self) -> str:
        """One-line summary like the paper's Table 2 entries."""
        order = "ordered" if self.ordered else "unordered"
        if self.strategy is Strategy.ONE_D:
            return f"1D (dim {self.space_dim}, {order})"
        if self.strategy is Strategy.DATA_PARALLEL:
            return "1D (data parallelism)"
        if self.strategy is Strategy.TWO_D:
            return (
                f"2D {order} (space dim {self.space_dim}, "
                f"time dim {self.time_dim})"
            )
        return f"2D {order} via unimodular transformation {self.transform}"


def _array_bytes(info: LoopInfo, name: str) -> int:
    array = info.arrays[name]
    if array.is_materialized:
        return array.nbytes
    try:
        return 8 * math.prod(array.shape)
    except Exception:
        return 0


def _classify_arrays(
    info: LoopInfo,
    space_dim: Optional[int],
    time_dim: Optional[int],
) -> Dict[str, Placement]:
    """Assign a placement to every referenced array for the given dims.

    Preference order per array: LOCAL (accessed through the space
    dimension), ROTATED (through the time dimension), REPLICATED
    (read-only), SERVER (everything else, e.g. unknown subscripts).
    """
    placements: Dict[str, Placement] = {}
    written = info.written_arrays()
    buffer_targets = {id(buffer.target) for buffer in info.buffers.values()}
    for name in info.arrays:
        local_dim = (
            info.pinned_array_dim(name, space_dim) if space_dim is not None else None
        )
        rotated_dim = (
            info.pinned_array_dim(name, time_dim) if time_dim is not None else None
        )
        if local_dim is not None:
            placements[name] = Placement(PlacementKind.LOCAL, array_dim=local_dim)
        elif rotated_dim is not None:
            placements[name] = Placement(
                PlacementKind.ROTATED, array_dim=rotated_dim
            )
        elif id(info.arrays[name]) in buffer_targets:
            # Updated through a buffer: the array changes every flush, so it
            # must be served centrally, not replicated.
            placements[name] = Placement(PlacementKind.SERVER)
        elif name not in written:
            placements[name] = Placement(PlacementKind.REPLICATED)
        else:
            placements[name] = Placement(PlacementKind.SERVER)
    # Buffer targets not otherwise referenced are server-resident.
    for buffer_name, buffer in info.buffers.items():
        target = buffer.target.name
        referenced = any(
            info.arrays[n] is buffer.target for n in info.arrays
        )
        if not referenced:
            placements[f"<target:{buffer_name}>"] = Placement(PlacementKind.SERVER)
    return placements


def _communication_cost(info: LoopInfo, placements: Dict[str, Placement]) -> int:
    """Heuristic bytes moved per data pass under a placement assignment.

    Rotated arrays move fully once per pass; server arrays move on the
    order of their size per pass (prefetch + flush); replicated arrays move
    once (amortized, counted lightly); local arrays are free.
    """
    cost = 0
    for name, placement in placements.items():
        if name.startswith("<target:"):
            continue
        size = _array_bytes(info, name)
        if placement.kind is PlacementKind.ROTATED:
            cost += size
        elif placement.kind is PlacementKind.SERVER:
            cost += 2 * size
        elif placement.kind is PlacementKind.REPLICATED:
            cost += size // 8
    return cost


def _candidates_1d(dvecs: FrozenSet[DepVector], ndims: int) -> List[int]:
    return [
        dim
        for dim in range(ndims)
        if all(vector.is_zero_at(dim) for vector in dvecs)
    ]


def _candidates_2d(
    dvecs: FrozenSet[DepVector], ndims: int, exclude: List[int]
) -> List[Tuple[int, int]]:
    pairs = []
    for space in range(ndims):
        for time in range(ndims):
            if space == time:
                continue
            if space in exclude or time in exclude:
                continue
            if all(
                vector.is_zero_at(space) or vector.is_zero_at(time)
                for vector in dvecs
            ):
                pairs.append((space, time))
    return pairs


def choose_plan(
    info: LoopInfo,
    force_dims: Optional[Tuple[int, ...]] = None,
) -> Plan:
    """Pick a dependence-preserving parallelization for a loop.

    Args:
        info: output of :func:`repro.analysis.loop_info.analyze_loop_body`.
        force_dims: application override of the partitioning-dimension
            heuristic — ``(space,)`` to force a 1D dimension or
            ``(space, time)`` to force a 2D orientation.

    Raises:
        ParallelizationError: when no dependence-preserving strategy exists
            and the loop's writes are not all buffered.
    """
    by_array: Dict[str, FrozenSet[DepVector]] = {}
    for name, refs in info.refs.items():
        by_array[name] = compute_dependence_vectors(
            refs, info.num_iter_dims, unordered_loop=not info.ordered
        )
    all_dvecs: FrozenSet[DepVector] = frozenset().union(*by_array.values()) \
        if by_array else frozenset()
    ndims = info.num_iter_dims
    uses_buffers = bool(info.buffers)

    ones = _candidates_1d(all_dvecs, ndims)
    twos = _candidates_2d(all_dvecs, ndims, exclude=ones)

    def finish(
        strategy: Strategy,
        space: Optional[int],
        time: Optional[int],
        transform: Optional[unimodular.Matrix] = None,
    ) -> Plan:
        if transform is None:
            placements = _classify_arrays(info, space, time)
        else:
            # Transformed dimensions are linear combinations of the original
            # ones, so no original-dimension range partition stays aligned
            # with workers: read-only arrays replicate, written arrays go to
            # parameter servers.
            placements = _classify_arrays(info, None, None)
        plan = Plan(
            strategy=strategy,
            ordered=info.ordered,
            space_dim=space,
            time_dim=time,
            transform=transform,
            transform_inverse=(
                unimodular.invert_unimodular(transform) if transform else None
            ),
            dvecs=all_dvecs,
            dvecs_by_array=by_array,
            candidates_1d=tuple(ones),
            candidates_2d=tuple(twos),
            placements=placements,
            uses_buffers=uses_buffers,
        )
        return plan

    if force_dims is not None:
        if len(force_dims) == 1:
            space = force_dims[0]
            if space not in ones and all_dvecs:
                raise ParallelizationError(
                    f"dimension {space} is not a valid 1D partitioning "
                    f"dimension (candidates: {ones})"
                )
            kind = Strategy.DATA_PARALLEL if (uses_buffers and not all_dvecs) \
                else Strategy.ONE_D
            return finish(kind, space, None)
        space, time = force_dims
        if (space, time) not in twos:
            raise ParallelizationError(
                f"({space}, {time}) is not a valid 2D orientation "
                f"(candidates: {twos})"
            )
        return finish(Strategy.TWO_D, space, time)

    if ones:
        best = min(
            ones,
            key=lambda dim: (
                _communication_cost(info, _classify_arrays(info, dim, None)),
                -_dim_extent(info, dim),
            ),
        )
        kind = Strategy.DATA_PARALLEL if (uses_buffers and not all_dvecs) \
            else Strategy.ONE_D
        return finish(kind, best, None)

    if twos:
        best_pair = min(
            twos,
            key=lambda pair: _communication_cost(
                info, _classify_arrays(info, pair[0], pair[1])
            ),
        )
        return finish(Strategy.TWO_D, best_pair[0], best_pair[1])

    transform = unimodular.find_transformation(sorted(
        all_dvecs, key=lambda v: v.describe()
    ), ndims)
    if transform is not None:
        # Transformed level 0 carries all dependences (time); inner levels
        # are independent — use level 1 as the space dimension.
        return finish(Strategy.TWO_D_UNIMODULAR, 1, 0, transform)

    message = (
        "no dependence-preserving parallelization exists for this loop; "
        "dependence vectors: "
        + ", ".join(sorted(v.describe() for v in all_dvecs))
    )
    hint = (
        "route writes through a DistArrayBuffer (data parallelism) or "
        "restructure the iteration space"
    )
    raise ParallelizationError(
        message + ". Consider routing writes through a DistArrayBuffer "
        "(data parallelism) or restructuring the iteration space.",
        diagnostic=Diagnostic(
            code="E110",
            message=message,
            location=location_of(info.tree, info.source_file),
            hint=hint,
        ),
    )


def _dim_extent(info: LoopInfo, dim: int) -> int:
    try:
        return info.iteration_space.shape[dim]
    except Exception:
        return 0
