"""Sparse logistic regression: buffers, data parallelism, bulk prefetch.

SLR's weight subscripts depend on each sample's nonzero features — values
static analysis cannot bound.  The program routes weight updates through a
DistArray Buffer (opting into data parallelism, paper Sec. 3.3) and Orion
synthesizes a *bulk prefetch function* from the loop body so weight reads
are fetched in one request per block instead of one round trip per read
(paper Sec. 4.4 / Sec. 6.3).  This example prints the synthesized function
and measures the three configurations from the paper: no prefetch,
prefetch, prefetch with cached indices.

Run:  python examples/sparse_logistic_regression.py
"""

from repro import ClusterSpec, LoopOptions
from repro.apps import SLRHyper, build_slr
from repro.apps.slr import slr_cost_model
from repro.data import sparse_classification

dataset = sparse_classification(
    num_samples=1200, num_features=500, nnz_per_sample=10, seed=5
)
hyper = SLRHyper(step_size=0.2)
cluster = ClusterSpec(
    num_machines=1, workers_per_machine=8, cost=slr_cost_model(hyper)
)

program = build_slr(dataset, cluster=cluster, hyper=hyper, seed=2)
print("chosen parallelization:", program.plan.describe())
print(
    "placements:",
    {name: p.kind.value for name, p in program.plan.placements.items()},
)

prefetch = program.train_loop.executor.prefetch.prefetch_fn
print("\nsynthesized bulk-prefetch function (paper Sec. 4.4):")
print("-" * 60)
print(prefetch.source)
print("-" * 60)

history = program.run(epochs=6)
print("\nlogistic loss by pass:")
print(f"  initial: {history.meta['initial_loss']:.4f}")
for record in history.records:
    print(f"  pass {record.epoch}: {record.loss:.4f}")

# The paper's Sec. 6.3 measurement: prefetching turns a communication-bound
# pass into a compute-bound one; caching the indices shaves the synthesis
# re-execution cost.
print("\nper-pass virtual time by prefetch configuration:")
for label, opts in [
    ("no prefetch (per-read round trips)", LoopOptions(prefetch="none")),
    ("bulk prefetch", LoopOptions(prefetch="auto", cache_prefetch=False)),
    (
        "bulk prefetch + cached indices",
        LoopOptions(prefetch="auto", cache_prefetch=True),
    ),
]:
    trial = build_slr(dataset, cluster=cluster, hyper=hyper, seed=2, options=opts)
    trial.run(1)  # warm-up pass (populates caches)
    second = trial.run(1)
    print(f"  {label:38s}: {second.records[-1].epoch_time_s:9.4f} s/pass")
