"""Fault injection and crash recovery on the virtual timeline.

Runs the paper's Fig. 5 SGD MF program three times on the same data:

1. fault-free — the reference run;
2. under a `FaultPlan` — a worker crash mid-epoch and a straggler — with
   periodic checkpoints, so the loop detects the crash,
   restores the latest complete checkpoint, and replays the lost epochs;
3. fault-free again with the `LoopOptions` bundle attached but empty, to
   show the no-plan path is bit-identical to the plain one.

The point the output makes: faults cost *virtual time*, never *data* —
the faulted run lands on exactly the same parameters and loss as the
clean one, just later on the virtual clock.

Run:  python examples/fault_tolerance.py
"""

import tempfile

import numpy as np

from repro import (
    CheckpointConfig,
    ClusterSpec,
    FaultPlan,
    LoopOptions,
    Observability,
    Straggler,
    WorkerCrash,
)
from repro.apps import MFHyper, build_sgd_mf
from repro.data import netflix_like

EPOCHS = 6

dataset = netflix_like(num_rows=60, num_cols=48, num_ratings=2400, seed=11)
hyper = MFHyper(rank=6, step_size=0.05)
cluster = ClusterSpec(num_machines=2, workers_per_machine=2)


def build(options=None):
    return build_sgd_mf(
        dataset, cluster=cluster, hyper=hyper, seed=3, options=options
    )


# ---- 1. the reference run ------------------------------------------------ #
clean = build()
clean_history = clean.run(EPOCHS)
clean_state = {n: clean.arrays[n].values.copy() for n in ("W", "H")}
print(f"clean run:   loss {clean_history.final_loss:.4f}, "
      f"virtual time {clean_history.total_time_s * 1e3:.2f} ms")

# ---- 2. the same run under faults ---------------------------------------- #
plan = FaultPlan(
    crashes=(WorkerCrash(worker=1, epoch=4, frac=0.5),),
    stragglers=(Straggler(worker=0, slowdown=3.0, epoch=2),),
)
obs = Observability.enabled()
ckpt_dir = tempfile.mkdtemp(prefix="orion_faults_")
faulted = build(
    LoopOptions(
        faults=plan,
        checkpoint=CheckpointConfig(ckpt_dir, every_n_epochs=2),
        obs=obs,
    )
)
faulted_history = faulted.run(EPOCHS)
faulted_state = {n: faulted.arrays[n].values.copy() for n in ("W", "H")}
print(f"faulted run: loss {faulted_history.final_loss:.4f}, "
      f"virtual time {faulted_history.total_time_s * 1e3:.2f} ms, "
      f"recoveries {faulted_history.meta.get('recoveries', 0)}")

snapshot = obs.metrics.snapshot()
print("  crashes detected: ", snapshot.get("worker_crashes_total", 0))
print("  checkpoints taken: ", snapshot.get("checkpoints_total", 0))
fault_spans = [s for s in obs.tracer.spans
               if s.cat in ("fault", "recovery", "checkpoint", "straggler")]
print(f"  fault-related spans on the trace: {len(fault_spans)}")

# ---- the invariant: time inflated, data intact --------------------------- #
assert faulted_history.meta.get("recoveries") == 1
assert faulted_history.total_time_s > clean_history.total_time_s
for name in ("W", "H"):
    assert np.array_equal(clean_state[name], faulted_state[name])
print("faults cost virtual time, never data: final parameters bit-equal, "
      f"clock inflated {faulted_history.total_time_s / clean_history.total_time_s:.2f}x")

# ---- 3. no plan attached -> bit-identical to the plain run --------------- #
plain_again = build(options=LoopOptions())
again_history = plain_again.run(EPOCHS)
assert [r.time_s for r in again_history.records] == [
    r.time_s for r in clean_history.records
]
assert all(
    np.array_equal(clean_state[n], plain_again.arrays[n].values)
    for n in ("W", "H")
)
print("no-plan run with LoopOptions() attached: bit-identical to plain run")
