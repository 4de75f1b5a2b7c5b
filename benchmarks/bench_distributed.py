"""Real wall-clock scaling of the multiprocess backend vs one process.

The other benchmarks report *virtual* seconds from the cost model; this
one forks real workers.  Each app runs three ways:

* ``scalar_1proc`` — the single-process scalar interpreter (the
  pre-kernel baseline every speedup in the paper is against);
* ``multiprocess`` at 1/2/4 workers — forked workers over shared-memory
  partitions, batched kernels inside the workers, direct token rotation;
* the simulated oracle — same plan, virtual clock, used both for the
  side-by-side predicted epoch time and as the bitwise reference.

For dependence-preserving plans (SGD MF) the multiprocess run must
produce *bitwise identical* parameters to the oracle; the JSON records
the observed flag for every app (buffered apps relax dependences, LDA
additionally forks its sampler RNG, so those legitimately diverge).

Results land in ``BENCH_distributed.json`` at the repo root.

Run:  make bench-distributed
      (or: PYTHONPATH=src python benchmarks/bench_distributed.py)
      PYTHONPATH=src python benchmarks/bench_distributed.py --smoke
                               # tiny datasets, asserts bitwise MF parity
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.apps.lda import LDAHyper
from repro.apps.lda import build_orion_program as build_lda
from repro.apps.sgd_mf import MFHyper
from repro.apps.sgd_mf import build_orion_program as build_mf
from repro.apps.slr import SLRHyper
from repro.apps.slr import build_orion_program as build_slr
from repro.data.synthetic import lda_corpus, netflix_like, sparse_classification
from repro.obs.insight import prediction_error
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

EPOCHS = 3
WORKER_COUNTS = (1, 2, 4)


def _dense_arrays(program) -> dict:
    return {
        name: array
        for name, array in program.arrays.items()
        if getattr(array, "_dense", None) is not None
    }


def _run_scalar(build, cluster, epochs: int) -> float:
    """Wall seconds for ``epochs`` passes of the scalar interpreter."""
    program = build(cluster, options=LoopOptions(kernel="off"))
    program.epoch_fn()  # warm-up: block materialization, caches
    start = time.perf_counter()
    for _ in range(epochs):
        program.epoch_fn()
    return time.perf_counter() - start


def _run_oracle(build, cluster, epochs: int):
    """Simulated run: (arrays, predicted total, per-epoch predictions)."""
    program = build(cluster)
    program.train_loop.run(1)  # align with the multiprocess warm-up pass
    results = program.train_loop.run(epochs)
    per_epoch = [r.epoch_time_s for r in results]
    return _dense_arrays(program), sum(per_epoch), per_epoch


def _run_multiprocess(build, cluster, epochs: int):
    """Forked run: (wall seconds, util, arrays, per-epoch wall seconds)."""
    program = build(cluster, options=LoopOptions(backend="multiprocess"))
    loop = program.train_loop
    try:
        loop.run(1)  # warm-up: fork, shared-memory adoption, kernel caches
        start = time.perf_counter()
        results = loop.run(epochs)
        wall = time.perf_counter() - start
    finally:
        loop.close()
    util = sum(r.utilization for r in results) / max(len(results), 1)
    per_epoch = [r.epoch_time_s for r in results]
    return wall, util, _dense_arrays(program), per_epoch


def _measure(build, num_entries: int, epochs: int, worker_counts) -> dict:
    out = {"workers": {}}
    for workers in worker_counts:
        cluster = ClusterSpec(num_machines=1, workers_per_machine=workers)
        scalar_wall = _run_scalar(build, cluster, epochs)
        oracle_arrays, predicted, predicted_epochs = _run_oracle(
            build, cluster, epochs
        )
        wall, util, mp_arrays, real_epochs = _run_multiprocess(
            build, cluster, epochs
        )
        bitwise = all(
            np.array_equal(oracle_arrays[name].values, mp_arrays[name].values)
            for name in oracle_arrays
        )
        row = {
            "scalar_1proc_wall_seconds": round(scalar_wall, 4),
            "wall_seconds": round(wall, 4),
            "entries_per_sec": round(epochs * num_entries / wall, 1),
            "speedup_vs_scalar": round(scalar_wall / wall, 2),
            "predicted_virtual_seconds": round(predicted, 4),
            "utilization": round(util, 3),
            "bitwise_identical_to_simulated": bitwise,
            # Per-epoch virtual-vs-real breakdown (how far the cost
            # model's prediction is from measured wall time).
            "prediction": prediction_error(real_epochs, predicted_epochs),
        }
        out["workers"][str(workers)] = row
    last = out["workers"][str(worker_counts[-1])]
    out["beats_scalar"] = last["speedup_vs_scalar"] > 1.0
    out["bitwise_identical"] = last["bitwise_identical_to_simulated"]
    return out


def run(out_path: Path, smoke: bool = False) -> dict:
    if smoke:
        epochs, worker_counts = 1, (2,)
        mf = netflix_like(num_rows=60, num_cols=48, num_ratings=1200, seed=5)
        slr = sparse_classification(
            num_samples=400, num_features=200, nnz_per_sample=8, seed=5
        )
        lda = lda_corpus(
            num_docs=40, vocab_size=60, num_topics=4, doc_length=10, seed=5
        )
    else:
        epochs, worker_counts = EPOCHS, WORKER_COUNTS
        mf = netflix_like(num_rows=300, num_cols=240, num_ratings=18000, seed=5)
        slr = sparse_classification(
            num_samples=4000, num_features=2000, nnz_per_sample=12, seed=5
        )
        lda = lda_corpus(
            num_docs=150, vocab_size=200, num_topics=8, doc_length=30, seed=5
        )

    apps = {
        "sgd_mf": (
            lambda cluster, options=None: build_mf(
                mf, cluster=cluster, seed=7, options=options
            ),
            len(mf.entries),
        ),
        "sgd_mf_adarev": (
            lambda cluster, options=None: build_mf(
                mf, cluster=cluster, hyper=MFHyper(adarev=True), seed=7,
                options=options,
            ),
            len(mf.entries),
        ),
        "slr": (
            lambda cluster, options=None: build_slr(
                slr, cluster=cluster, hyper=SLRHyper(step_size=0.2), seed=7,
                options=options,
            ),
            len(slr.entries),
        ),
        "lda": (
            lambda cluster, options=None: build_lda(
                lda, cluster=cluster, hyper=LDAHyper(num_topics=4 if smoke
                                                     else 8), seed=7,
                options=options,
            ),
            len(lda.entries),
        ),
    }
    results = {
        "epochs_timed": epochs,
        "worker_counts": list(worker_counts),
        "cpu_count": os.cpu_count(),
        "apps": {
            name: _measure(build, count, epochs, worker_counts)
            for name, (build, count) in apps.items()
        },
    }
    if not smoke:
        out_path.write_text(json.dumps(results, indent=2) + "\n")
    return results


def main() -> int:
    smoke = "--smoke" in sys.argv
    args = [a for a in sys.argv[1:] if a != "--smoke"]
    out_path = Path(args[0]) if args else (
        Path(__file__).resolve().parent.parent / "BENCH_distributed.json"
    )
    results = run(out_path, smoke=smoke)
    if not smoke:
        print(f"wrote {out_path}")
    width = max(len(name) for name in results["apps"])
    failures = []
    for name, row in results["apps"].items():
        for workers, cell in row["workers"].items():
            flag = "bitwise" if cell["bitwise_identical_to_simulated"] else "  -    "
            prediction = cell.get("prediction") or {}
            err = ""
            if prediction:
                err = f" (err {prediction['total_error_pct']:+.0f}%)"
            print(
                f"  {name:{width}s} x{workers}  "
                f"scalar {cell['scalar_1proc_wall_seconds']:7.3f}s  "
                f"mp {cell['wall_seconds']:7.3f}s  "
                f"({cell['speedup_vs_scalar']:5.2f}x, util "
                f"{cell['utilization']:.0%})  "
                f"predicted {cell['predicted_virtual_seconds']:7.3f}s"
                f"{err}  {flag}"
            )
    mf_row = results["apps"]["sgd_mf"]
    if not mf_row["bitwise_identical"]:
        failures.append("sgd_mf multiprocess run diverged from the oracle")
    if not smoke and not mf_row["beats_scalar"]:
        failures.append("sgd_mf multiprocess did not beat the scalar baseline")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
