"""The host-speed yardstick: a fixed unit of interpreter + small-NumPy work.

The reference container's CPUs run 1.2-1.7x slower for stretches of
seconds to minutes, invisibly to the guest (no steal time is reported,
CPU seconds stretch with wall seconds).  Ten runs of one commit then
spread by 0.13-0.31 of their median in raw wall seconds (README.md,
"Host noise" has the measurements), which no regression bound survives.
So the harness times one block of this unit next to every measured
interval and reports the interval in *reference-host seconds*:
``measured * REFERENCE_UNIT_S / yardstick``.  What the clock read is kept
beside every such value.

The work is fixed here, in the benchmark's own file, and uses nothing
from ``repro``: a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: Median wall seconds of ``unit()`` on the reference container in a quiet
#: stretch.  Only fixes the scale of the reported seconds; a comparison of
#: two runs does not depend on it.
REFERENCE_UNIT_S = 0.0122
#: Units per block: ~0.1 s, long enough that a block's median is not
#: itself the noise (single units spread by 0.1 of their median).
UNITS_PER_BLOCK = 8


def unit() -> float:
    """Wall seconds of one fixed unit (~12 ms)."""
    import numpy as np  # not at import: the child times ``import repro``

    operand = np.arange(8000.0).reshape(8, 1000) % 7.0
    start = time.perf_counter()
    total = 0.0
    for index in range(7500):
        pair = operand.take([index % 1000, (index * 7) % 1000], axis=1)
        total += float(pair[0] @ pair[1])
    return time.perf_counter() - start


def block() -> float:
    """Median unit seconds of one block."""
    return statistics.median(unit() for _ in range(UNITS_PER_BLOCK))


def reference_seconds(measured_s: float, yardstick_s: float) -> float:
    """``measured_s`` on a host where the unit takes ``REFERENCE_UNIT_S``."""
    return measured_s * REFERENCE_UNIT_S / yardstick_s
