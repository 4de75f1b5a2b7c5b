"""Batched-kernel execution support (the executor's vectorized fast path).

The scalar execution path runs ``body(key, value)`` once per sparse entry,
funnelling every DistArray element access through ``__getitem__`` → broker
→ per-element lookups.  Once the plan has proven a block safe to execute
as one sequential unit, that per-entry dispatch is pure overhead: the
executor instead runs a *kernel* — ``kernel(block, kctx)``,
synthesized from the body by :mod:`repro.analysis.synth` or passed as
``LoopOptions.kernel`` — that applies the same updates with bulk NumPy
operations over the whole block.  ``block`` is a
:class:`~repro.runtime.partition.Block`: a sequence of ``(key, value)``
tuples whose columns (``block.keys``, ``block.values``) the synthesized
tiers read directly, so their first call walks no tuples either.

The contract a kernel must satisfy:

* **Bit-identical state**: after the kernel runs, every DistArray and
  DistArray Buffer must hold exactly the values the scalar body loop would
  have produced for the same block in entry order — which any order that
  keeps *conflicting* entries (ones touching the same parameter) in entry
  order also produces.  (In practice: vectorize elementwise arithmetic
  freely — NumPy broadcasting applies the same per-element operation
  chain — but keep reductions such as dot products in the scalar body's
  exact form, and execute entries that touch the same parameter in
  sequential conflict-free groups, see :func:`level_schedule`.)
* **Identical accounting**: declare every DistArray access the body would
  have made through the :class:`KernelContext` ``account_*`` methods, so
  traffic counters and the serializability validator see the same numbers
  as the scalar path.
* **Determinism**: per dispatch unit, the same ``account_*`` call
  sequence every epoch (the declarations are memoized across epochs).

Kernels are only invoked when the plan legally permits block-batched
execution (see ``OrionExecutor``); otherwise the scalar body runs.  A
kernel is called once per block, except that a synthesized kernel with no
per-worker state (``SynthResult.fusable``) is handed all the blocks its
process runs in one schedule step, concatenated in task order
(``OrionExecutor.run_blocks``).
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distarray import DistArray
from repro.errors import ExecutionError
from repro.runtime.pserver import index_nbytes

__all__ = [
    "KernelContext",
    "fold_slots",
    "level_schedule",
    "normalize_index",
    "ragged_levels",
    "scalar_pow",
    "segment_block",
]

_FULL = slice(None)


def normalize_index(index: Any) -> Tuple[Any, ...]:
    """Hashable normal form of a subscript, as the validator records it."""
    if not isinstance(index, tuple):
        index = (index,)
    out: List[Any] = []
    for item in index:
        if isinstance(item, slice):
            out.append(("range", item.start, item.stop))
        else:
            out.append(("pt", int(item)))
    return tuple(out)


def level_schedule(
    seqs: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Schedule a block's entries as a wavefront over its conflict DAG.

    ``seqs`` holds one per-entry index sequence per conflict dimension (all
    the same length, in entry order).  Two entries *conflict* when they
    share a value on any dimension — they touch the same parameter
    row/column/cell, so their relative order is part of the result.  Every
    entry gets ``level = 1 + max(level of the latest earlier entry sharing
    its value, per dimension)``, i.e. its depth in the DAG whose edges run
    from each entry to the later entries it conflicts with.

    Returns ``(order, groups)``: ``order`` is the entry permutation sorted
    stably by level and ``groups`` the half-open ``(lo, hi)`` ranges of
    ``order`` holding one level each.  Within a group no two entries share
    a value on any dimension, so a vectorized gather-update-scatter over
    the group is exactly its sequential execution; conflicting entries
    sit in different groups in their original relative order, and
    non-conflicting entries touch disjoint cells of everything written,
    so executing the groups in order is bit-identical to executing the
    entries in order.  An entry in the k-th greedy conflict-free *run* of
    the entry sequence has level at most k, so the schedule never has more
    groups than splitting the sequence into consecutive runs would.
    """
    levels: List[int] = []
    append = levels.append
    if len(seqs) == 2:  # the common case: no per-entry inner loop
        last_a: Dict[int, int] = {}
        last_b: Dict[int, int] = {}
        get_a, get_b = last_a.get, last_b.get
        for a, b in zip(*seqs):
            level_a, level_b = get_a(a, 0), get_b(b, 0)
            level = (level_a if level_a > level_b else level_b) + 1
            last_a[a] = last_b[b] = level
            append(level)
    else:
        lasts: List[Dict[int, int]] = [{} for _ in seqs]
        for values in zip(*seqs):
            level = 1 + max(
                last.get(value, 0) for last, value in zip(lasts, values)
            )
            for last, value in zip(lasts, values):
                last[value] = level
            append(level)
    by_entry = np.asarray(levels, dtype=np.intp)
    order = np.argsort(by_entry, kind="stable")
    # Levels are 1..L with none empty (a level-k entry has a level-(k-1)
    # predecessor), so the cumulative counts are the group boundaries.
    bounds = np.cumsum(np.bincount(by_entry)).tolist()
    return order, list(zip(bounds[:-1], bounds[1:]))


def scalar_pow(base: Any, exponent: Any) -> Any:
    """Elementwise ``**`` that is bit-identical to the scalar interpreter.

    NumPy's vectorized ``**`` uses a SIMD pow that differs from Python's
    scalar pow in the last ulp for a few percent of inputs, which would
    break the kernel contract's bit-identity clause.  This helper applies
    Python-level ``**`` per element (``np.float64.__pow__`` matches
    ``float.__pow__`` exactly), trading speed for faithfulness on the rare
    bodies that exponentiate.
    """
    b, e = np.broadcast_arrays(np.asarray(base), np.asarray(exponent))
    out = np.empty(b.shape, dtype=np.result_type(b, e))
    flat_out = out.reshape(-1)
    flat_b = b.reshape(-1)
    flat_e = e.reshape(-1)
    for i in range(flat_out.size):
        flat_out[i] = flat_b[i] ** flat_e[i]
    return out


# ---------------------------------------------------------------------- #
# ragged (CSR) blocks: the segmented tier's prep, guard and fold slots    #
# ---------------------------------------------------------------------- #

#: One ``(alive, pos)`` pair per inner position ``j``: the segments longer
#: than ``j`` and the flat offsets of their ``j``-th elements.
Levels = List[Tuple[np.ndarray, np.ndarray]]


def ragged_levels(lens: np.ndarray) -> Levels:
    """Position-major schedule of a ragged reduction.

    ``r[alive] = r[alive] + term[pos]`` over the returned pairs, in order,
    adds every segment's elements to its own ``r`` left to right — the
    order a ``for`` loop over the segment would — in ``max(lens)``
    vectorized steps (``np.add.reduceat`` sums pairwise and differs in the
    last bit).
    """
    starts = np.cumsum(lens) - lens
    levels: Levels = []
    alive = np.flatnonzero(lens > 0)
    while alive.size:
        levels.append((alive, starts[alive] + len(levels)))
        alive = alive[lens[alive] > len(levels)]
    return levels


def _id_column(values: Sequence[Any], extent: Optional[int]) -> Any:
    """``values`` as an index array, or the reason it cannot be one
    (``extent`` is ``None`` for an index nothing is subscripted with)."""
    if not all(
        issubclass(kind, (int, np.integer)) and kind is not bool
        for kind in set(map(type, values))
    ):
        return "a subscript is not an integer"
    try:
        return _in_extent(np.asarray(values, dtype=np.intp), extent)
    except OverflowError:
        return "a subscript overflows the index type"


def _in_extent(column: np.ndarray, extent: Optional[int]) -> Any:
    """An index array, or the reason it cannot subscript ``extent``."""
    if extent is not None and column.size and (
        column.min() < 0 or column.max() >= extent
    ):
        return "a subscript is outside the array extent"
    return column


def _value_column(values: Sequence[Any], floats_only: bool) -> Any:
    """``values`` as a float64 array, or the reason it cannot be one:
    Python ``float`` / ``np.float64`` convert to themselves and an integer
    converts exactly as ``int op float`` does, but where the body combines
    two possibly-integer operands (``floats_only``) Python's exact integer
    arithmetic has no float64 twin."""
    kinds = set(map(type, values))
    integers = {
        kind for kind in kinds
        if issubclass(kind, (int, np.integer)) and kind is not bool
    }
    if not all(issubclass(kind, float) for kind in kinds - integers):
        return "a value is not a real number"
    if integers and floats_only:
        return "an integer value in integer arithmetic"
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        return "an integer value overflows float64"


def _column(values: Sequence[Any], role: Tuple[str, Any]) -> Any:
    kind, arg = role
    return _id_column(values, arg) if kind == "id" else \
        _value_column(values, arg)


def segment_block(
    keys: np.ndarray,
    values: Sequence[Any],
    key_dims: Sequence[Tuple[int, Optional[int]]],
    fields: Sequence[Any],
) -> Any:
    """Flatten a block — its ``(n, d)`` key matrix and values column —
    whose entry values unpack into scalar fields and ragged lists of
    fixed-arity tuples (a sample's ``(fid, fval)`` pairs) into CSR form —
    and check what static analysis cannot see, the data.

    ``key_dims`` lists the ``(loop dimension, extent)`` pairs the kernel
    uses (``extent`` the smallest array it subscripts, ``None`` when it
    only computes with the index).  ``fields`` has one item per name the value unpacks
    into: ``None`` (unused), ``("scalar", role)`` or ``("ragged", roles)``
    with one role per tuple position; a role is ``None`` (unused),
    ``("id", extent)`` for a subscript or ``("value", floats_only)`` for an
    arithmetic operand (see :func:`_value_column`).

    Returns ``(n, *columns)``: one index array per key dimension, then per
    used field its float64 / index array (scalar) or ``seg`` (owning entry
    of each flat element), the :func:`ragged_levels` and one flat array
    per used tuple position (ragged).  When the block does not have that
    shape — a wrong-arity item, a non-integer or out-of-range subscript, a
    value that is not a real number — returns the reason as a ``str``
    instead, and the caller runs the block through its general kernel.
    """
    n = len(values)
    out: List[Any] = [n] + [
        _in_extent(keys[:, dim], extent) for dim, extent in key_dims
    ]
    try:
        if set(map(len, values)) - {len(fields)}:
            return f"an entry value does not unpack into {len(fields)} names"
        for position, spec in enumerate(fields):
            if spec is None:
                continue
            kind, roles = spec
            column = list(map(operator.itemgetter(position), values))
            if kind == "scalar":
                out.append(_column(column, roles))
                continue
            lens = np.fromiter(map(len, column), np.intp, n)
            flat = list(itertools.chain.from_iterable(column))
            if set(map(len, flat)) - {len(roles)}:
                return f"a ragged item does not unpack into {len(roles)} names"
            out += [np.repeat(np.arange(n), lens), ragged_levels(lens)]
            out += [
                _column(list(map(operator.itemgetter(at), flat)), role)
                for at, role in enumerate(roles) if role is not None
            ]
    except (TypeError, IndexError, KeyError):
        return "an entry value is not a tuple of fields and lists of tuples"
    return next((col for col in out if isinstance(col, str)), tuple(out))


def fold_slots(ids: np.ndarray) -> Tuple[List[Tuple[int]], np.ndarray]:
    """The distinct buffer keys a write site touches, in first-occurrence
    order (the insertion order N scalar writes give the pending dict), and
    each write's position among them — what
    :meth:`KernelContext.buffer_fold` folds over."""
    unique, first, inverse = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return [(key,) for key in unique[order].tolist()], rank[inverse]


class KernelContext:
    """Handed to a kernel for one dispatch unit: the blocks one kernel
    call executes — one block, or a whole schedule step's blocks
    concatenated in task order when the kernel carries no per-worker
    state (see ``OrionExecutor.run_blocks``).

    Kernels read and write the dense backing arrays directly; this
    provides the two buffered-write entry points (:meth:`buffer_add`,
    :meth:`buffer_fold`) and the accounting-only declarations
    (``account_*``) for those direct accesses.
    Accounting declarations reproduce exactly what the scalar body's
    per-element broker traffic would have recorded — server read counts
    and bytes, and (in validation mode) the normalized access records the
    serializability checker consumes — into the unit's per-block
    ``records``, split at the block boundaries ``bounds``.

    Attributes:
        worker: the simulated worker executing the unit's first block.
        cache: a per-unit dict that persists across epochs — kernels use
            it to memoize index arrays, the level schedule, and anything
            else derivable from the (immutable) entry list.
        records: one task record per block of the unit, in task order.
        bounds: cumulative entry offsets of the blocks in the entry list
            the kernel receives (``len(records) + 1`` values).
    """

    def __init__(
        self,
        broker: Any,
        worker: int,
        cache: Dict[Any, Any],
        records: Sequence[Any],
        bounds: Sequence[int],
    ) -> None:
        self.broker = broker
        self.worker = worker
        self.cache = cache
        self.records = records
        self.bounds = bounds
        self._seq = 0

    # ---------------- buffered writes ---------------------------------- #

    def buffer_add(
        self, buffer: Any, indices: Sequence[Any], values: Sequence[Any]
    ) -> None:
        """Merge many writes into a DistArray Buffer, in order (exactly N
        scalar buffered writes)."""
        self.broker.bulk_buffer_write(buffer, indices, values)

    def buffer_fold(
        self,
        buffer: Any,
        keys: Sequence[Tuple[Any, ...]],
        slot_of: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Merge the writes ``buffer[keys[slot_of[i]]] = values[i]``, in
        ``i`` order, with one vectorized fold per distinct key (exactly N
        scalar buffered writes; ``keys`` / ``slot_of`` from
        :func:`fold_slots`).  Buffered writes are exempt from accounting,
        so nothing is declared."""
        buffer.direct_buffer_fold(keys, slot_of, values)

    # ---------------- accounting-only declarations --------------------- #
    #
    # Each call declares the accesses the scalar body would have made.  A
    # declaration nobody consumes (a write, or a read of an array that is
    # not server-placed, outside validation mode) costs nothing; the rest
    # memoize their per-block counts, bytes and normalized records in the
    # unit cache under the call's sequence number, so epochs after the
    # first pay one dict lookup per declaration.

    def account_point_reads(self, array: DistArray, keys: Sequence[Any]) -> None:
        """Declare N point reads (``array[key]`` per key)."""
        self._account(array, False, lambda: list(keys))

    def account_point_writes(self, array: DistArray, keys: Sequence[Any]) -> None:
        """Declare N point writes."""
        self._account(array, True, lambda: list(keys))

    def account_col_reads(self, array: DistArray, cols: Sequence[int]) -> None:
        """Declare N whole-column reads (``array[:, c]`` per c)."""
        self._account(array, False, lambda: [(_FULL, int(c)) for c in cols])

    def account_col_writes(self, array: DistArray, cols: Sequence[int]) -> None:
        """Declare N whole-column writes."""
        self._account(array, True, lambda: [(_FULL, int(c)) for c in cols])

    def account_row_reads(self, array: DistArray, rows: Sequence[int]) -> None:
        """Declare N whole-row reads (``array[r, :]`` per r)."""
        self._account(array, False, lambda: [(int(r), _FULL) for r in rows])

    def account_row_writes(self, array: DistArray, rows: Sequence[int]) -> None:
        """Declare N whole-row writes."""
        self._account(array, True, lambda: [(int(r), _FULL) for r in rows])

    def account_full_reads(self, array: DistArray, count: int) -> None:
        """Declare ``count`` full-array reads (``array[:]`` per entry)."""
        self._account(array, False, lambda: [_FULL] * count)

    def account_reads(self, array: DistArray, indices: Sequence[Any]) -> None:
        """Declare N reads with raw subscripts (ints, tuples, slices) —
        the generic form synthesized kernels emit for arbitrary sites."""
        self._account(
            array, False,
            lambda: indices.tolist() if isinstance(indices, np.ndarray)
            else list(indices),
            uniform=False,
        )

    def account_writes(self, array: DistArray, indices: Sequence[Any]) -> None:
        """Declare N writes with raw subscripts."""
        self._account(array, True, lambda: list(indices), uniform=False)

    # ---------------- internals ---------------------------------------- #

    def _account(
        self,
        array: DistArray,
        write: bool,
        build_indices: Callable[[], List[Any]],
        uniform: bool = True,
    ) -> None:
        """Charge one site's accesses to the unit's records.  ``uniform``
        sites subscript every access alike, so one index prices them all;
        a multi-block unit must declare one access per entry (the only
        kernels dispatched that way, the vector tier's, do)."""
        broker = self.broker
        tag = ("acct", self._seq, array.name, write)
        self._seq += 1
        counted = not write and id(array) in broker.server_ids
        if not (counted or broker.validate):
            return
        cached = self.cache.get(tag)
        if cached is None:
            indices = build_indices()
            bounds = self.bounds
            if len(bounds) > 2 and len(indices) != bounds[-1]:
                raise ExecutionError(
                    f"kernel declared {len(indices)} accesses of "
                    f"{array.name!r} for a {bounds[-1]}-entry fused unit; "
                    "per-block accounting needs one per entry"
                )
            parts = [indices] if len(bounds) == 2 else [
                indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])
            ]
            nbytes: List[int] = [0] * len(parts)
            if counted and uniform and indices:
                each = index_nbytes(array, indices[0])
                nbytes = [each * len(part) for part in parts]
            elif counted:
                nbytes = [
                    sum(index_nbytes(array, index) for index in part)
                    for part in parts
                ]
            accesses: Optional[List[List[Tuple[str, Tuple[Any, ...], bool]]]]
            accesses = None
            if broker.validate:
                name = array.name
                accesses = [
                    [(name, normalize_index(index), write) for index in part]
                    for part in parts
                ]
            cached = ([len(part) for part in parts], nbytes, accesses)
            self.cache[tag] = cached
        counts, nbytes, accesses = cached
        for position, record in enumerate(self.records):
            if counted:
                record.server_reads += counts[position]
                record.server_read_bytes += nbytes[position]
            if accesses is not None:
                record.accesses.extend(accesses[position])
