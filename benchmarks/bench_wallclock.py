"""Wall-clock throughput: the scalar body vs the batched kernel.

Unlike the other benchmarks (which report *virtual* time from the cost
model), this one measures real host seconds: each app runs the same
program twice in the same process — ``kernel="off"`` (the per-entry
interpreted body) and the default ``kernel="auto"`` (the kernel
synthesized from the loop body by ``repro.analysis.synth``; LDA's
registered kernel) — and reports entries/second for each, the speedup
over scalar and the ``kernel_tier`` that ran.  Results land in
``BENCH_wallclock.json`` at the repo root, with the host's CPU count.

Run:  make bench-smoke        (or: PYTHONPATH=src python benchmarks/bench_wallclock.py)
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.apps.embeddings import build_orion_program as build_glove
from repro.apps.embeddings import cooccurrence_corpus
from repro.apps.lda import LDAHyper
from repro.apps.lda import build_orion_program as build_lda
from repro.apps.sgd_mf import MFHyper
from repro.apps.sgd_mf import build_orion_program as build_mf
from repro.apps.slr import SLRHyper
from repro.apps.slr import build_orion_program as build_slr
from repro.data.synthetic import lda_corpus, netflix_like, sparse_classification
from repro.runtime.options import LoopOptions

EPOCHS = 3


def _measure(build, num_entries: int) -> dict:
    """Time ``EPOCHS`` passes of each variant of one program, scalar first."""
    out = {}
    for variant, kernel in (("scalar", "off"), ("kernel", "auto")):
        program = build(LoopOptions(kernel=kernel))
        program.epoch_fn()  # warm-up pass: block materialization, caches
        start = time.perf_counter()
        for _ in range(EPOCHS):
            program.epoch_fn()
        wall = time.perf_counter() - start
        out[variant] = {
            "wall_seconds": round(wall, 4),
            "entries_per_sec": round(EPOCHS * num_entries / wall, 1),
        }
    out["kernel_tier"] = program.train_loop.executor.kernel_tier
    out["speedup"] = round(
        out["kernel"]["entries_per_sec"] / out["scalar"]["entries_per_sec"], 2
    )
    return out


def run(out_path: Path) -> dict:
    mf = netflix_like(num_rows=300, num_cols=240, num_ratings=18000, seed=5)
    slr = sparse_classification(
        num_samples=4000, num_features=2000, nnz_per_sample=12, seed=5
    )
    lda = lda_corpus(num_docs=150, vocab_size=200, num_topics=8, doc_length=30, seed=5)
    glove = cooccurrence_corpus(vocab_size=300, num_tokens=40000, seed=5)

    results = {
        "epochs_timed": EPOCHS,
        "cpu_count": os.cpu_count(),
        "apps": {
            "sgd_mf": _measure(
                lambda options: build_mf(mf, seed=7, options=options),
                len(mf.entries),
            ),
            "sgd_mf_adarev": _measure(
                lambda options: build_mf(
                    mf, hyper=MFHyper(adarev=True), seed=7, options=options
                ),
                len(mf.entries),
            ),
            "slr": _measure(
                lambda options: build_slr(
                    slr, hyper=SLRHyper(step_size=0.2), seed=7, options=options
                ),
                len(slr.entries),
            ),
            "lda": _measure(
                lambda options: build_lda(
                    lda, hyper=LDAHyper(num_topics=8), seed=7, options=options
                ),
                len(lda.entries),
            ),
            "glove": _measure(
                lambda options: build_glove(glove, seed=7, options=options),
                len(glove.entries),
            ),
        },
    }
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    return results


def main() -> int:
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "BENCH_wallclock.json"
    )
    results = run(out_path)
    print(f"wrote {out_path}")
    width = max(len(name) for name in results["apps"])
    for name, row in results["apps"].items():
        print(
            f"  {name:{width}s}  "
            f"scalar {row['scalar']['entries_per_sec']:>11,.0f}/s  "
            f"kernel {row['kernel']['entries_per_sec']:>11,.0f}/s "
            f"({row['speedup']:.2f}x, {row['kernel_tier']})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
