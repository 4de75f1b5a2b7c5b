"""Quickstart: parallelize serial SGD matrix factorization with Orion.

This is the paper's Fig. 5 program in this library's Python API.  A serial
loop over rating entries is handed to ``parallel_for``; static dependence
analysis finds the dependence vectors, picks *2D unordered* parallelization,
pins one factor matrix to workers and rotates the other — no manual
scheduling, partitioning or communication code.

Run:  python examples/quickstart.py

Set ``REPRO_TRACE=trace.json`` to additionally record the run on the
virtual timeline and write a Chrome-trace/Perfetto JSON there (open it in
`ui.perfetto.dev`; see docs/observability.md).  ``make trace-smoke`` uses
exactly this path.
"""

import os

from repro import ClusterSpec, OrionContext
from repro.obs import Observability, straggler_report, write_chrome_trace
from repro.data import netflix_like

# A small synthetic rating matrix (a Netflix stand-in: low rank + noise).
dataset = netflix_like(num_rows=120, num_cols=90, num_ratings=5000, seed=7)

trace_path = os.environ.get("REPRO_TRACE")
obs = Observability.enabled() if trace_path else None

ctx = OrionContext(
    cluster=ClusterSpec(num_machines=2, workers_per_machine=4), seed=1,
    obs=obs,
)

# DistArray creation is lazy; materialize() evaluates (and fuses maps).
ratings = ctx.from_entries(dataset.entries, name="ratings", shape=dataset.shape)
ctx.materialize(ratings)

K = 8
W = ctx.randn(K, dataset.num_rows, name="W", scale=0.1)
H = ctx.randn(K, dataset.num_cols, name="H", scale=0.1)
ctx.materialize(W, H)

step_size = 0.05


def sgd_step(key, rating):
    """One serial SGD update — exactly what you would write single-threaded."""
    w_col = W[:, key[0]]
    h_col = H[:, key[1]]
    diff = rating - w_col @ h_col
    W[:, key[0]] = w_col + step_size * 2.0 * diff * h_col
    H[:, key[1]] = h_col + step_size * 2.0 * diff * w_col


# The decorator is the paper's @parallel_for macro: analysis happens here.
loop = ctx.parallel_for(ratings)(sgd_step)

print("chosen parallelization:", loop.plan.describe())
print("dependence vectors:", sorted(v.describe() for v in loop.plan.dvecs))
print(
    "placements:",
    {name: p.kind.value for name, p in loop.plan.placements.items()},
)


def training_loss() -> float:
    total = 0.0
    for (i, j), value in ratings.entries():
        total += (value - W.values[:, i] @ H.values[:, j]) ** 2
    return total


print(f"\ninitial loss: {training_loss():.2f}")
for epoch in range(1, 11):
    result = loop.run()[0]
    print(
        f"epoch {epoch:2d}: loss={training_loss():10.2f}  "
        f"virtual time={result.epoch_time_s * 1e3:7.2f} ms  "
        f"bytes sent={result.bytes_sent:9.0f}"
    )

print(f"\ntotal virtual time: {ctx.now * 1e3:.1f} ms")
print(f"total network traffic: {ctx.traffic.total_bytes / 1e3:.1f} KB")

if obs is not None:
    write_chrome_trace(obs.tracer, trace_path)
    print(f"\ntrace written to {trace_path} (open in ui.perfetto.dev)")
    print(straggler_report(obs.tracer, obs.metrics))
