"""DistArray Buffers: write-back buffers exempt from dependence analysis.

Paper Sec. 3.3.  When DistArray subscripts are data dependent (e.g. sparse
logistic regression reads the weights of a sample's nonzero features) or the
access is dense, static analysis would conservatively mark all positions as
touched, blocking parallelization.  The application instead routes those
writes through a :class:`DistArrayBuffer`:

* each worker holds its own buffer instance, initialized empty;
* writes to the same index merge with a *combiner* (default: addition, the
  right merge for gradient contributions);
* buffered writes are applied to the target DistArray with an element-wise
  user-defined *apply function*, executed atomically per element — this is
  the hook adaptive gradient methods (AdaGrad, adaptive revision) use;
* ``max_delay`` bounds how many loop iterations a write may stay buffered.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core import access
from repro.core.distarray import DistArray

__all__ = ["DistArrayBuffer", "default_apply"]

#: Marker used to store (unhashable-before-3.12) slices in buffer keys.
_SLICE = "__slice__"

def _canonical_key(index: Any) -> Tuple[Any, ...]:
    """Hashable form of a buffer index; slices become tagged tuples."""
    if not isinstance(index, tuple):
        index = (index,)
    out = []
    for item in index:
        if isinstance(item, slice):
            out.append((_SLICE, item.start, item.stop))
        else:
            out.append(int(item))
    return tuple(out)


def _runtime_key(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Convert a canonical key back into a real subscript."""
    out = []
    for item in key:
        if isinstance(item, tuple) and item and item[0] == _SLICE:
            out.append(slice(item[1], item[2]))
        else:
            out.append(item)
    return tuple(out)


def default_apply(current: Any, update: Any) -> Any:
    """Default element-wise apply: add the buffered update to the element."""
    return current + update


def _default_combine(existing: Any, update: Any) -> Any:
    return existing + update


class DistArrayBuffer:
    """A per-worker write-back buffer in front of a target DistArray.

    Point writes (``buffer[idx] = value``) are exempt from dependence
    analysis; the static analyzer recognizes names bound to buffers and
    records them separately from DistArray writes.

    The apply UDF may take ``(current, update)`` or, for per-coordinate
    optimizer state, ``(key, current, update)`` — the arity is detected at
    construction.
    """

    def __init__(
        self,
        target: DistArray,
        apply_fn: Callable[..., Any] = default_apply,
        combiner: Callable[[Any, Any], Any] = _default_combine,
        max_delay: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        self.target = target
        self.apply_fn = apply_fn
        self.combiner = combiner
        self.max_delay = max_delay
        self.name = name or target.name + "_buffer"
        try:
            self._apply_arity = len(inspect.signature(apply_fn).parameters)
        except (TypeError, ValueError):
            self._apply_arity = 2
        # One pending-write dict per simulated worker (keyed by worker id).
        self._pending: Dict[int, Dict[Tuple[int, ...], Any]] = {}
        # Iterations executed since last flush, per worker, for max_delay.
        self._age: Dict[int, int] = {}

    @property
    def combines_by_addition(self) -> bool:
        """Whether same-index writes merge with the default combiner —
        what lets a kernel fold a block's writes with ``np.add.at``."""
        return self.combiner is _default_combine

    # ------------------------------------------------------------------ #
    # Write path                                                          #
    # ------------------------------------------------------------------ #

    def __setitem__(self, index: Any, value: Any) -> None:
        broker = access.current_broker()
        if broker is not None:
            broker.buffer_write(self, index, value)
            return
        self.direct_buffer_write(index, value)

    def direct_buffer_write(self, index: Any, value: Any) -> None:
        """Record a write into the current worker's buffer instance.

        Point indices and slice (set-query) indices are both supported —
        dense models buffer whole-row or whole-matrix gradient updates.
        """
        worker = access.current_worker()
        key = _canonical_key(index)
        slot = self._pending.setdefault(worker, {})
        if key in slot:
            slot[key] = self.combiner(slot[key], value)
        else:
            slot[key] = value

    def direct_buffer_write_many(self, indices: Any, values: Any) -> None:
        """Record many writes in one call, merging in iteration order.

        Semantically identical to N :meth:`direct_buffer_write` calls (the
        combiner is applied left-to-right in the order given), but resolves
        the worker slot and method lookups once — the batched-kernel fast
        path uses this to flush a whole block's gradient contributions.
        """
        worker = access.current_worker()
        slot = self._pending.setdefault(worker, {})
        combiner = None if self.combines_by_addition else self.combiner
        for index, value in zip(indices, values):
            if isinstance(index, tuple):
                key = _canonical_key(index)
            else:
                key = (int(index),)
            if key not in slot:
                slot[key] = value
            elif combiner is None:
                slot[key] = slot[key] + value
            else:
                slot[key] = combiner(slot[key], value)

    def direct_buffer_fold(
        self, keys: Sequence[Tuple[Any, ...]], slot_of: Any, values: Any
    ) -> None:
        """Record the writes ``keys[slot_of[i]] = values[i]`` for ascending
        ``i`` — N :meth:`direct_buffer_write` calls — folding each key's
        float64 updates in one ``np.add.at``.

        ``keys`` are distinct canonical keys in first-occurrence order, so
        the slot gains them in the order the writes would have.  The fold
        is the default combiner's left-to-right merge: ``ufunc.at`` is
        unbuffered and adds in index order, and starting a key from
        ``-0.0`` leaves its first update unchanged (``-0.0 + v`` is ``v``
        for every ``v``, ``-0.0`` included).  That needs the worker's slot
        to start empty and addition to be the combiner; otherwise the
        writes merge one at a time.
        """
        slot = self._pending.setdefault(access.current_worker(), {})
        if slot or not self.combines_by_addition:
            combiner = self.combiner
            for position, value in zip(slot_of.tolist(), values.tolist()):
                key = keys[position]
                slot[key] = combiner(slot[key], value) if key in slot else value
            return
        folded = np.full(len(keys), -0.0)
        np.add.at(folded, slot_of, values)
        slot.update(zip(keys, folded.tolist()))

    def __getitem__(self, index: Any) -> Any:
        """Read the pending update at ``index`` for the current worker.

        Buffers expose the same point-query API as DistArrays; a read of an
        index with no pending write returns ``None``.
        """
        worker = access.current_worker()
        key = _canonical_key(index)
        return self._pending.get(worker, {}).get(key)

    # ------------------------------------------------------------------ #
    # Flushing                                                            #
    # ------------------------------------------------------------------ #

    def pending_count(self, worker: Optional[int] = None) -> int:
        """Number of pending (merged) writes for one worker or all workers."""
        if worker is not None:
            return len(self._pending.get(worker, {}))
        return sum(len(slot) for slot in self._pending.values())

    def pending_bytes(self, worker: Optional[int] = None) -> int:
        """Approximate payload size of pending writes, for comm accounting.

        Each pending write costs its index plus the number of target
        elements the (possibly sliced) subscript covers.
        """
        slots = (
            [self._pending.get(worker, {})]
            if worker is not None
            else list(self._pending.values())
        )
        total = 0
        for slot in slots:
            for key in slot:
                if tuple in map(type, key):
                    total += self._key_nbytes(key)
                else:  # all points: one element
                    total += 8 * (len(key) + 1)
        return total

    def _key_nbytes(self, key: Tuple[Any, ...]) -> int:
        elements = 1
        for position, item in enumerate(key):
            if isinstance(item, tuple) and item and item[0] == _SLICE:
                try:
                    extent = self.target.shape[position]
                except Exception:
                    extent = 1
                lo = item[1] if item[1] is not None else 0
                hi = item[2] if item[2] is not None else extent
                elements *= max(1, hi - lo)
        return 8 * (len(key) + elements)

    def tick(self, worker: int, iterations: int = 1) -> bool:
        """Advance the worker's buffered-write age; return True when the
        ``max_delay`` bound forces a flush now."""
        if self.max_delay is None:
            return False
        age = self._age.get(worker, 0) + iterations
        self._age[worker] = age
        return age >= self.max_delay

    def flush_worker(self, worker: int) -> int:
        """Apply one worker's pending writes to the target, atomically per
        element, and clear them.  Returns the number of elements applied."""
        slot = self._pending.pop(worker, None)
        self._age[worker] = 0
        if not slot:
            return 0
        target, apply_fn = self.target, self.apply_fn
        keyed = self._apply_arity >= 3
        if target.sparse:
            read, write = target.direct_get, target.direct_set
        else:
            # The backing array itself: direct_get / direct_set re-check
            # materialization per element.
            dense = target.values
            read, write = dense.__getitem__, dense.__setitem__
        for key, update in slot.items():
            # A key without slice markers is its own subscript.
            subscript = _runtime_key(key) if tuple in map(type, key) else key
            current = read(subscript)
            if keyed:
                write(subscript, apply_fn(subscript, current, update))
            else:
                write(subscript, apply_fn(current, update))
        return len(slot)

    def take_pending(self, worker: int) -> Dict[Tuple[Any, ...], Any]:
        """Remove and return one worker's pending writes *without*
        applying them — a worker process hands them to whoever owns the
        apply UDF (see :meth:`apply_pending`)."""
        return self._pending.pop(worker, None) or {}

    def apply_pending(
        self, worker: int, pending: Dict[Tuple[Any, ...], Any]
    ) -> None:
        """Merge writes another process took with :meth:`take_pending`
        into ``worker``'s slot and flush it to the target."""
        slot = self._pending.setdefault(worker, {})
        for key, update in pending.items():
            if key in slot:
                slot[key] = self.combiner(slot[key], update)
            else:
                slot[key] = update
        self.flush_worker(worker)

    def flush_all(self) -> int:
        """Flush every worker's pending writes (driver-side convenience)."""
        applied = 0
        for worker in list(self._pending):
            applied += self.flush_worker(worker)
        return applied

    def clear(self) -> None:
        """Discard all pending writes without applying them."""
        self._pending.clear()
        self._age.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DistArrayBuffer {self.name} -> {self.target.name} "
            f"pending={self.pending_count()}>"
        )
