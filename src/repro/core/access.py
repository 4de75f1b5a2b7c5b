"""Access brokering for DistArrays during parallel loop execution.

Outside a parallel for-loop, DistArray reads and writes go straight to the
driver-side storage.  While the distributed executor runs a loop body on
behalf of a simulated worker, it installs an :class:`AccessBroker` so the
same array objects route element access through the worker's view — which
is how the runtime implements locality accounting, parameter-server access
counting, and (in validation mode) the serializability check that iterations
claimed concurrent touch disjoint elements.

The broker is installed via a context variable, so nested/parallel use in
tests stays isolated.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Iterator, Optional

__all__ = [
    "AccessBroker",
    "current_broker",
    "install_broker",
    "current_worker",
    "worker_scope",
    "DRIVER_WORKER",
]

#: Pseudo worker id used for driver-side (outside any loop) accesses.
DRIVER_WORKER = -1


class AccessBroker:
    """Interface the executor implements to observe DistArray element access.

    The default implementations pass straight through to the array's own
    storage; subclasses override to count, validate or redirect accesses.
    """

    def read(self, array: Any, index: Any) -> Any:
        """Observe (and serve) a point/set read of ``array`` at ``index``."""
        return array.direct_get(index)

    def write(self, array: Any, index: Any, value: Any) -> None:
        """Observe (and apply) a point/set write of ``array`` at ``index``."""
        array.direct_set(index, value)

    def buffer_write(self, buffer: Any, index: Any, value: Any) -> None:
        """Observe a write into a DistArray Buffer (exempt from analysis)."""
        buffer.direct_buffer_write(index, value)

    def bulk_buffer_write(self, buffer: Any, indices: Any, values: Any) -> None:
        """Observe many buffer writes (merged in order, like N scalar writes)."""
        buffer.direct_buffer_write_many(indices, values)


_ACTIVE: contextvars.ContextVar[Optional[AccessBroker]] = contextvars.ContextVar(
    "repro_active_access_broker", default=None
)


def current_broker() -> Optional[AccessBroker]:
    """Return the broker installed for the current context, if any."""
    return _ACTIVE.get()


@contextlib.contextmanager
def install_broker(broker: Optional[AccessBroker]) -> Iterator[None]:
    """Context manager installing ``broker`` for the dynamic extent."""
    token = _ACTIVE.set(broker)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


_WORKER: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_current_worker", default=DRIVER_WORKER
)


def current_worker() -> int:
    """The simulated worker on whose behalf code is currently executing.

    Returns :data:`DRIVER_WORKER` outside any parallel for-loop.  Worker-local
    state (accumulator slots, DistArray Buffer instances) keys off this.
    """
    return _WORKER.get()


@contextlib.contextmanager
def worker_scope(worker_id: int) -> Iterator[None]:
    """Context manager marking the dynamic extent as worker ``worker_id``."""
    token = _WORKER.set(worker_id)
    try:
        yield
    finally:
        _WORKER.reset(token)
