"""The serial baseline: the gold standard for per-iteration convergence.

A serial execution processes every entry in order with always-fresh
parameters; the paper uses it as the reference both for convergence rate
(Fig. 9b/9c) and for single-worker throughput (Fig. 9a).
"""

from __future__ import annotations

from typing import List, Optional

from repro.apps.base import SerialApp
from repro.obs.observability import Observability
from repro.runtime.history import RunHistory
from repro.runtime.simtime import CostModel

__all__ = ["run_serial"]


def run_serial(
    app: SerialApp,
    epochs: int,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    label: Optional[str] = None,
    shuffle_each_epoch: bool = False,
    trace_process: str = "serial",
    obs: Optional[Observability] = None,
) -> RunHistory:
    """Train ``app`` serially for ``epochs`` data passes.

    Virtual time per pass is simply ``entries × entry_cost`` — no
    communication, no synchronization, no abstraction overhead.  The lone
    worker is always busy, so every record reports utilization 1.0 (and the
    tracer of ``obs``, when given, gets one back-to-back block span per
    pass).
    """
    import numpy as np

    tracer = Observability.resolve(obs=obs).tracer
    cost = cost or CostModel()
    state = app.init_state(seed)
    entries = list(app.entries())
    entry_cost = cost.entry_cost_s
    history = RunHistory(label=label or f"Serial {app.name}")
    history.meta["initial_loss"] = app.loss(state)
    rng = np.random.default_rng(seed)
    clock = 0.0
    for epoch in range(epochs):
        if shuffle_each_epoch:
            order: List[int] = rng.permutation(len(entries)).tolist()
        else:
            order = range(len(entries))
        for position in order:
            key, value = entries[position]
            app.apply_entry(state, key, value)
        epoch_time = len(entries) * entry_cost
        tracer.add_span(
            f"epoch {epoch + 1}",
            "block",
            clock,
            clock + epoch_time,
            track="worker0",
            process=trace_process,
            args={"entries": len(entries)},
        )
        clock += epoch_time
        history.append(app.loss(state), epoch_time, utilization=1.0)
    history.meta["state"] = state
    return history
