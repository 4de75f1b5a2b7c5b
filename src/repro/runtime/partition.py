"""Iteration-space and DistArray partitioning (paper Sec. 4.3/4.4).

The executor partitions the (sparse, usually skewed) iteration space along
the plan's space/time dimensions.  Equal-width partitions of a skewed
dataset are imbalanced, so Orion approximates the data distribution with a
per-dimension histogram and cuts contiguous ranges with near-equal entry
counts.  For unimodular plans, entries are bucketed by their *transformed*
coordinates.

The iteration space arrives as columns (``DistArray.columns()``) and is
partitioned as columns: one stable sort permutes them once and every
:class:`Block` is a slice of the permuted copy.  Whoever iterates a block
— the scalar body, ``validate``, the sanitizer, prefetch functions, user
kernels — still gets ``(key, value)`` tuples, made on demand; synthesized
kernels read ``block.keys`` / ``block.values`` and never touch a tuple.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.unimodular import Matrix
from repro.core.distarray import column_items, value_column
from repro.errors import PartitionError

Entry = Tuple[Tuple[int, ...], Any]

__all__ = [
    "Block",
    "Bounds",
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


class Block(_SequenceABC):
    """Iteration-space entries as columns (``keys``, ``values``: see
    :data:`repro.core.distarray.Columns`).  As a sequence it yields the
    ``(key, value)`` tuples they stand for — keys tuples of plain ``int``,
    values with their original types — built on demand; slices and index
    arrays select sub-blocks that share the key storage.
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: Any) -> None:
        self.keys = keys
        self.values = values

    @classmethod
    def of(cls, entries: Sequence[Entry]) -> "Block":
        """``entries`` as a block: a block as it is, a plain sequence of
        ``(key, value)`` pairs converted (duplicates kept, in order)."""
        if isinstance(entries, Block):
            return entries
        keys = list(map(operator.itemgetter(0), entries))
        shape = (len(keys), -1 if keys else 0)
        return cls(
            np.array(keys, dtype=np.intp).reshape(shape),
            value_column(list(map(operator.itemgetter(1), entries))),
        )

    @classmethod
    def concat(cls, blocks: Sequence["Block"]) -> "Block":
        """The blocks' entries in order, as one block."""
        values = [block.values for block in blocks]
        return cls(
            np.concatenate([block.keys for block in blocks]),
            np.concatenate(values) if isinstance(values[0], np.ndarray)
            else list(itertools.chain.from_iterable(values)),
        )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Entry]:
        return column_items(self.keys, self.values)

    def __getitem__(self, index: Any) -> Any:
        keys, values = self.keys[index], self.values
        if isinstance(index, np.ndarray) and not isinstance(values, np.ndarray):
            return Block(keys, list(map(values.__getitem__, index.tolist())))
        if keys.ndim == 2:
            return Block(keys, values[index])
        value = values[index]
        if isinstance(values, np.ndarray):
            value = value.item()
        return tuple(keys.tolist()), value

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, (Block, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class IterationPartitions:
    """Partitioned iteration space handed to the scheduler/executor.

    Blocks are keyed ``(space_idx, time_idx)``; 1D plans use ``time_idx=0``.
    """

    num_space: int
    num_time: int
    blocks: Dict[Tuple[int, int], Block] = field(default_factory=dict)
    space_bounds: Optional[Bounds] = None
    time_bounds: Optional[Bounds] = None
    #: What :meth:`block` answers for a block that holds no entries.
    empty: Block = field(default_factory=lambda: Block.of(()))

    def block(self, space_idx: int, time_idx: int) -> Block:
        """Entries of one block (empty when the block holds no entries)."""
        return self.blocks.get((space_idx, time_idx), self.empty)

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


def _coords(block: Block, dim: int) -> np.ndarray:
    """Every entry's coordinate along one iteration-space dimension (an
    empty plain sequence has no arity to index)."""
    return block.keys[:, dim] if len(block) else np.empty(0, dtype=np.intp)


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
    block: Block,
    space_bounds: Bounds,
    space_coords: np.ndarray,
    time_bounds: Optional[Bounds] = None,
    time_coords: Optional[np.ndarray] = None,
    order_keys: Sequence[np.ndarray] = (),
) -> IterationPartitions:
    """Distribute entries over the blocks the bounds cut, with one stable
    sort (1D: no time bounds, every block has ``time_idx`` 0): the columns
    are permuted once and each block is a slice of the permuted copy.

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
    permuted = block[order]
    partitions.empty = permuted[:0]
    for lo, hi in zip([0] + cuts, cuts + [len(permuted)]):
        partitions.blocks[(int(space_idx[lo]), int(time_idx[lo]))] = \
            permuted[lo:hi]
    return partitions


def partition_1d(
    entries: Sequence[Entry],
    dim: int,
    extent: int,
    num_parts: int,
    balance: bool = True,
) -> IterationPartitions:
    """Partition entries (a :class:`Block`, or a plain sequence of
    ``(key, value)`` pairs) along one iteration-space dimension."""
    block = Block.of(entries)
    coords = _coords(block, dim)
    return _grid(block, _cut(coords, extent, num_parts, balance), coords)


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
    block = Block.of(entries)
    space_coords = _coords(block, space_dim)
    time_coords = _coords(block, time_dim)
    order_keys: List[np.ndarray] = []
    if canonical_order:
        # Lexicographic by the time coordinate, then the remaining key dims.
        order_keys = [time_coords] + [
            block.keys[:, dim]
            for dim in range(block.keys.shape[1]) if dim != time_dim
        ]
    return _grid(
        block,
        _cut(space_coords, space_extent, num_space, balance),
        space_coords,
        _cut(time_coords, time_extent, num_time, balance),
        time_coords,
        order_keys,
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
    block = Block.of(entries)
    if not len(block):
        raise PartitionError("cannot partition an empty iteration space")
    time_coords, space_coords = (
        block.keys @ np.array(matrix, dtype=np.intp).T
    ).T[:2]

    def _bounds_from(coords: np.ndarray, parts: int) -> Bounds:
        lo, hi = int(coords.min()), int(coords.max()) + 1
        shifted = np.bincount(coords - lo, minlength=hi - lo)
        ranges = balanced_bounds(shifted, parts)
        return [(rlo + lo, rhi + lo) for rlo, rhi in ranges]

    return _grid(
        block,
        _bounds_from(space_coords, num_space),
        space_coords,
        _bounds_from(time_coords, num_time),
        time_coords,
    )
