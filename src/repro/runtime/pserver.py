"""Parameter-server placement: random access, bulk prefetch, write flush.

DistArrays that cannot be localized by partitioning (data-dependent
subscripts, buffered dense updates) are served by parameter-server
processes (paper Sec. 4.4).  Without prefetching, every element read is a
network round trip; Orion synthesizes a prefetch function
(:mod:`repro.analysis.prefetch`) that lists the indices a block will read
so they can be fetched in one bulk request.  The prefetch *indices* can
additionally be cached per block, amortizing the synthesized function's
execution cost across epochs (the paper's 9.2 s → 6.3 s step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.prefetch import PrefetchFunction
from repro.core.distarray import DistArray
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.runtime.cluster import ClusterSpec

__all__ = ["index_nbytes", "BlockAccessCost", "PrefetchManager"]


def index_nbytes(array: DistArray, index: Tuple[Any, ...]) -> int:
    """Payload bytes of one recorded read index against ``array``.

    Point indices cost one element; slice positions multiply by the span
    they cover (a whole column read of a K-row matrix costs 8·K bytes).
    """
    if not isinstance(index, tuple):
        index = (index,)
    elements = 1
    for position, item in enumerate(index):
        if isinstance(item, slice):
            try:
                extent = array.shape[position]
            except Exception:
                extent = 1
            lo = item.start if item.start is not None else 0
            hi = item.stop if item.stop is not None else extent
            elements *= max(1, hi - lo)
    return 8 * elements


def _canonical(index: Any) -> Tuple[Any, ...]:
    if not isinstance(index, tuple):
        index = (index,)
    out = []
    for item in index:
        if isinstance(item, slice):
            out.append(("slice", item.start, item.stop))
        else:
            out.append(int(item))
    return tuple(out)


@dataclass
class BlockAccessCost:
    """Server-array access cost of one block in one epoch."""

    seconds: float
    nbytes: float
    num_requests: int


class PrefetchManager:
    """Per-loop manager turning recorded indices into access costs.

    Args:
        cluster: provides the network model.
        arrays: name -> DistArray for server-placed arrays.
        prefetch_fn: the synthesized prefetch function, or ``None`` to model
            per-access random reads.
        cache_indices: reuse each block's unique index set across epochs,
            skipping the prefetch function's re-execution cost.
        prefetch_cpu_fraction: CPU cost of running the synthesized function,
            as a fraction of the block's compute cost (it executes a slice
            of the loop body).
        metrics: observability registry; counts prefetch index-cache hits
            and misses (``prefetch_cache_hits_total`` /
            ``prefetch_cache_misses_total``).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        arrays: Dict[str, DistArray],
        prefetch_fn: Optional[PrefetchFunction],
        cache_indices: bool = False,
        prefetch_cpu_fraction: float = 0.3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.cluster = cluster
        self.arrays = arrays
        self.prefetch_fn = prefetch_fn
        self.cache_indices = cache_indices
        self.prefetch_cpu_fraction = prefetch_cpu_fraction
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._cache: Dict[Any, Tuple[int, float]] = {}

    def block_read_cost(
        self,
        block_key: Any,
        entries: Sequence[Tuple[Tuple[int, ...], Any]],
    ) -> BlockAccessCost:
        """Cost of serving one block's server-array reads.

        With a prefetch function: one bulk request of the block's unique
        indices plus the function's CPU cost (zero on cache hits).  Without
        a prefetch function the executor measures per-read counts and uses
        :meth:`random_access_cost_from_counts` instead.
        """
        if not self.arrays or self.prefetch_fn is None:
            return BlockAccessCost(0.0, 0.0, 0)
        cached = self._cache.get(block_key) if self.cache_indices else None
        if cached is not None:
            self.metrics.counter("prefetch_cache_hits_total").inc()
            unique_count, nbytes = cached
            cpu = 0.0
        else:
            self.metrics.counter("prefetch_cache_misses_total").inc()
            unique: Dict[Tuple[str, Tuple[Any, ...]], int] = {}
            # A constant prefetch function records the same indices for
            # every entry: the first one stands for the block.
            sample = entries[:1] if self.prefetch_fn.constant else entries
            for key, value in sample:
                for array_name, index in self.prefetch_fn(key, value):
                    if array_name not in self.arrays:
                        continue
                    signature = (array_name, _canonical(index))
                    if signature not in unique:
                        unique[signature] = index_nbytes(
                            self.arrays[array_name], index
                        )
            unique_count = len(unique)
            nbytes = float(sum(unique.values()))
            cpu = self.cluster.cost.compute_time(len(entries)) \
                * self.prefetch_cpu_fraction
            if self.cache_indices:
                self._cache[block_key] = (unique_count, nbytes)
        transfer = 0.0
        if nbytes:
            transfer = self.cluster.network.transfer_time(nbytes)
        return BlockAccessCost(
            seconds=cpu + transfer,
            nbytes=nbytes,
            num_requests=1 if unique_count else 0,
        )

    def random_access_cost_from_counts(
        self, num_reads: int, nbytes: float
    ) -> BlockAccessCost:
        """Random-access cost given measured per-block read counts (the
        no-prefetch case: every read pays a full round trip)."""
        return BlockAccessCost(
            seconds=self.cluster.network.random_access_time(num_reads, nbytes),
            nbytes=nbytes,
            num_requests=num_reads,
        )
