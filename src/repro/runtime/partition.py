"""Iteration-space and DistArray partitioning (paper Sec. 4.3/4.4).

The executor partitions the (sparse, usually skewed) iteration space along
the plan's space/time dimensions.  Equal-width partitions of a skewed
dataset are imbalanced, so Orion approximates the data distribution with a
per-dimension histogram and cuts contiguous ranges with near-equal entry
counts.  For unimodular plans, entries are bucketed by their *transformed*
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.unimodular import Matrix, transform_point
from repro.errors import PartitionError

Entry = Tuple[Tuple[int, ...], Any]

__all__ = [
    "Bounds",
    "axis_slice",
    "equal_bounds",
    "balanced_bounds",
    "bucket_of",
    "IterationPartitions",
    "partition_1d",
    "partition_2d",
    "partition_transformed",
]

#: Half-open ``(lo, hi)`` coordinate ranges, one per partition.
Bounds = List[Tuple[int, int]]


def axis_slice(ndim: int, axis: int, lo: int, hi: int) -> Tuple[slice, ...]:
    """A full-array index selecting ``[lo, hi)`` along one axis.

    Used by the multiprocess runtime to address one partition's slice of a
    dense DistArray (e.g. the rotated time-slice owned by a worker)."""
    index: List[slice] = [slice(None)] * ndim
    index[axis] = slice(lo, hi)
    return tuple(index)


def equal_bounds(extent: int, num_parts: int) -> Bounds:
    """Cut ``[0, extent)`` into ``num_parts`` equal-width ranges."""
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    if extent <= 0:
        raise PartitionError("extent must be positive")
    edges = np.linspace(0, extent, num_parts + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(num_parts)]


def balanced_bounds(counts: np.ndarray, num_parts: int) -> Bounds:
    """Cut coordinates into contiguous ranges with near-equal entry counts.

    ``counts[c]`` is the number of iteration-space entries with coordinate
    ``c`` along the partitioning dimension (a histogram, paper Sec. 4.3).
    Greedy prefix-sum splitting: each cut is placed where the running count
    first reaches the next multiple of ``total / num_parts``.
    """
    if num_parts <= 0:
        raise PartitionError("num_parts must be positive")
    extent = len(counts)
    if extent == 0:
        raise PartitionError("histogram is empty")
    if extent < num_parts:
        # More partitions than coordinates: one coordinate each, then empty
        # trailing ranges (those workers simply idle).
        singles = [(c, c + 1) for c in range(extent)]
        return singles + [(extent, extent)] * (num_parts - extent)
    total = int(np.sum(counts))
    if total == 0:
        return equal_bounds(extent, num_parts)
    prefix = np.cumsum(counts)
    bounds: Bounds = []
    lo = 0
    for part in range(num_parts):
        if part == num_parts - 1:
            hi = extent
        else:
            target = total * (part + 1) / num_parts
            hi = int(np.searchsorted(prefix, target)) + 1
            hi = max(hi, lo + 1)
            hi = min(hi, extent - (num_parts - part - 1))
        bounds.append((lo, hi))
        lo = hi
    return bounds


def bucket_of(bounds: Bounds, coordinate: int) -> int:
    """Partition index containing ``coordinate`` (linear in partitions,
    which are few)."""
    for position, (lo, hi) in enumerate(bounds):
        if lo <= coordinate < hi:
            return position
    raise PartitionError(f"coordinate {coordinate} outside bounds {bounds}")


@dataclass
class IterationPartitions:
    """Partitioned iteration space handed to the scheduler/executor.

    Blocks are keyed ``(space_idx, time_idx)``; 1D plans use ``time_idx=0``.
    """

    num_space: int
    num_time: int
    blocks: Dict[Tuple[int, int], List[Entry]] = field(default_factory=dict)
    space_bounds: Optional[Bounds] = None
    time_bounds: Optional[Bounds] = None

    def block(self, space_idx: int, time_idx: int) -> List[Entry]:
        """Entries of one block (empty when the block holds no entries)."""
        return self.blocks.get((space_idx, time_idx), [])

    def block_size(self, space_idx: int, time_idx: int) -> int:
        """Entry count of one block."""
        return len(self.blocks.get((space_idx, time_idx), ()))

    def size_matrix(self) -> np.ndarray:
        """(num_space × num_time) entry-count matrix, used by the timing
        model and the load-balance tests."""
        sizes = np.zeros((self.num_space, self.num_time), dtype=np.int64)
        for (space_idx, time_idx), entries in self.blocks.items():
            sizes[space_idx, time_idx] = len(entries)
        return sizes

    @property
    def total_entries(self) -> int:
        """Total entries across every block."""
        return sum(len(entries) for entries in self.blocks.values())


def _coords(entries: Sequence[Entry], dim: int) -> np.ndarray:
    """Every entry's coordinate along one iteration-space dimension."""
    return np.fromiter(
        (key[dim] for key, _value in entries), np.intp, len(entries)
    )


def _cut(
    coords: np.ndarray, extent: int, num_parts: int, balance: bool
) -> Bounds:
    """Bounds along one dimension: balanced on the coordinates' histogram
    (paper Sec. 4.3), or equal-width."""
    if not balance:
        return equal_bounds(extent, num_parts)
    if coords.size and (coords.min() < 0 or coords.max() >= extent):
        raise PartitionError(
            f"coordinates span [{coords.min()}, {coords.max()}], "
            f"outside the extent {extent}"
        )
    return balanced_bounds(np.bincount(coords, minlength=extent), num_parts)


def _bucket(bounds: Bounds, coords: np.ndarray) -> np.ndarray:
    """Partition index of every coordinate (:func:`bucket_of`, vectorized)."""
    uppers = np.array([hi for _lo, hi in bounds])
    return np.searchsorted(uppers, coords, side="right")


def _grid(
    entries: Sequence[Entry],
    space_bounds: Bounds,
    space_coords: np.ndarray,
    time_bounds: Optional[Bounds] = None,
    time_coords: Optional[np.ndarray] = None,
    order_keys: Sequence[np.ndarray] = (),
) -> IterationPartitions:
    """Distribute entries over the blocks the bounds cut, with one stable
    sort (1D: no time bounds, every block has ``time_idx`` 0).

    Within a block, entries are ordered by ``order_keys`` (most significant
    first) and, where those tie or are absent, keep their dataset order.
    """
    partitions = IterationPartitions(
        num_space=len(space_bounds),
        num_time=len(time_bounds) if time_bounds is not None else 1,
        space_bounds=space_bounds,
        time_bounds=time_bounds,
    )
    space_idx = _bucket(space_bounds, space_coords)
    if time_bounds is None:
        time_idx = np.zeros_like(space_idx)
    else:
        time_idx = _bucket(time_bounds, time_coords)
    order = np.lexsort((*reversed(order_keys), time_idx, space_idx))
    if not order.size:
        return partitions
    space_idx, time_idx = space_idx[order], time_idx[order]
    cuts = (np.flatnonzero(
        (np.diff(space_idx) != 0) | (np.diff(time_idx) != 0)
    ) + 1).tolist()
    positions = order.tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(positions)]):
        partitions.blocks[(int(space_idx[lo]), int(time_idx[lo]))] = [
            entries[position] for position in positions[lo:hi]
        ]
    return partitions


def partition_1d(
    entries: Sequence[Entry],
    dim: int,
    extent: int,
    num_parts: int,
    balance: bool = True,
) -> IterationPartitions:
    """Partition entries along one iteration-space dimension."""
    coords = _coords(entries, dim)
    return _grid(entries, _cut(coords, extent, num_parts, balance), coords)


def _canonical_keys(
    entries: Sequence[Entry], time_dim: int, known: Dict[int, np.ndarray]
) -> List[np.ndarray]:
    """Sort keys of the unordered-2D canonical in-block order:
    lexicographic by the time coordinate, then the remaining key dims."""
    ndim = len(entries[0][0]) if len(entries) else 0
    return [known[time_dim]] + [
        known[dim] if dim in known else _coords(entries, dim)
        for dim in range(ndim)
        if dim != time_dim
    ]


def partition_2d(
    entries: Sequence[Entry],
    space_dim: int,
    time_dim: int,
    space_extent: int,
    time_extent: int,
    num_space: int,
    num_time: int,
    balance: bool = True,
    canonical_order: bool = False,
) -> IterationPartitions:
    """Partition entries into a (space × time) grid of blocks.

    Blocks keep their entries in dataset order (what an ordered plan's
    lexicographic execution relies on) unless ``canonical_order`` asks for
    the unordered-2D canonical order: each block sorted lexicographically
    by (time coordinate, then the remaining key dims), duplicates of one
    key in dataset order.  Any serial order is legal for an unordered
    loop; this one has two properties the runtime builds on:

    * it is *tiling-independent* — a worker's rotation over any time
      tiling concatenates to the same per-worker entry sequence (coarse
      bins traversed whole equal their fine sub-bins traversed in rotation
      order), so changing ``pipeline_depth`` moves the clock, never the
      model: runs at different depths end in bit-identical parameters
      (wherever the cuts at which each worker's rotation starts coincide
      across depths — balanced cuts do by construction, except on
      histograms skewed enough for the cut clamping to fire);
    * consecutive time coordinates visit their space coordinates in the
      same ascending order, so a block's conflict DAG is shallow and the
      vector kernel's level schedule
      (:func:`repro.runtime.kernels.level_schedule`) gets wide groups —
      with ties in dataset order the DAG zig-zags through thousands of
      near-empty levels.
    """
    coords = {
        space_dim: _coords(entries, space_dim),
        time_dim: _coords(entries, time_dim),
    }
    return _grid(
        entries,
        _cut(coords[space_dim], space_extent, num_space, balance),
        coords[space_dim],
        _cut(coords[time_dim], time_extent, num_time, balance),
        coords[time_dim],
        _canonical_keys(entries, time_dim, coords) if canonical_order else (),
    )


def partition_transformed(
    entries: Sequence[Entry],
    matrix: Matrix,
    num_space: int,
    num_time: int,
) -> IterationPartitions:
    """Partition entries by their unimodular-transformed coordinates.

    The transformed level 0 becomes the time dimension (it carries every
    dependence, so its blocks run sequentially) and level 1 the space
    dimension.  Block boundaries are balanced on the transformed
    coordinates' empirical distribution.
    """
    if not entries:
        raise PartitionError("cannot partition an empty iteration space")
    points = [transform_point(matrix, key) for key, _value in entries]
    time_coords = np.array([q[0] for q in points])
    space_coords = np.array([q[1] for q in points])

    def _bounds_from(coords: np.ndarray, parts: int) -> Bounds:
        lo, hi = int(coords.min()), int(coords.max()) + 1
        shifted = np.bincount(coords - lo, minlength=hi - lo)
        ranges = balanced_bounds(shifted, parts)
        return [(rlo + lo, rhi + lo) for rlo, rhi in ranges]

    return _grid(
        entries,
        _bounds_from(space_coords, num_space),
        space_coords,
        _bounds_from(time_coords, num_time),
        time_coords,
    )
