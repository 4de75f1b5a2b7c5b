"""Fig. 11 — Orion vs. STRADS manual model parallelism.

Paper results (12 machines): Orion-parallelized SGD MF AdaRev and LDA
achieve a *matching per-iteration convergence rate* to hand-written
model-parallel STRADS programs.  Throughput: similar for SGD MF AdaRev
(float-array messages serialize trivially), but STRADS is ~1.8x (ClueWeb)
to ~4x (NYTimes) faster per iteration on LDA thanks to its C++ runtime and
intra-machine pointer swapping.
"""

import pytest

import _workloads as wl
from repro.apps import build_lda, build_sgd_mf
from repro.baselines import run_strads
from repro.runtime.options import LoopOptions

EPOCHS_MF = 6
EPOCHS_LDA = 4


def _run_mf():
    dataset = wl.netflix_bench()
    cluster = wl.mf_cluster(adarev=True)
    orion = build_sgd_mf(
        dataset, cluster=cluster, hyper=wl.MF_ADAREV_HYPER
    ).run(EPOCHS_MF)
    strads = run_strads(
        lambda c, options: build_sgd_mf(
            dataset, cluster=c, hyper=wl.MF_ADAREV_HYPER, options=options
        ),
        cluster,
        EPOCHS_MF,
        speed_factor=1.0,  # trivial serialization: no C++ advantage
        label="STRADS SGD MF AdaRev",
    )
    return orion, strads


def _run_lda():
    dataset = wl.nytimes_bench()
    cluster = wl.lda_cluster()
    orion = build_lda(
        dataset,
        cluster=cluster,
        hyper=wl.LDA_HYPER,
        options=LoopOptions(pipeline_depth=wl.BENCH_PIPELINE_DEPTH),
    ).run(EPOCHS_LDA)
    strads = run_strads(
        lambda c, options: build_lda(
            dataset, cluster=c, hyper=wl.LDA_HYPER, options=options
        ),
        cluster,
        EPOCHS_LDA,
        # Julia marshalling of per-row count data vs. C++ pointer swaps.
        speed_factor=0.4,
        label="STRADS LDA",
        options=LoopOptions(pipeline_depth=wl.BENCH_PIPELINE_DEPTH),
    )
    return orion, strads


@pytest.mark.benchmark(group="fig11")
def test_fig11_mf_adarev(benchmark, report):
    orion, strads = benchmark.pedantic(_run_mf, rounds=1, iterations=1)
    rows = [
        (label, f"{h.final_loss:.1f}", f"{h.time_per_iteration():.4f}")
        for label, h in [("Orion", orion), ("STRADS", strads)]
    ]
    report(
        "Fig 11a: Orion vs STRADS, SGD MF AdaRev",
        wl.fmt_table(["engine", "final loss", "s/iter"], rows)
        + "\npaper shape: identical per-iteration convergence; similar "
        "throughput",
    )
    assert strads.losses == pytest.approx(orion.losses)
    ratio = orion.time_per_iteration() / strads.time_per_iteration()
    assert 0.8 < ratio < 1.6  # similar throughput for MF AdaRev


@pytest.mark.benchmark(group="fig11")
def test_fig11_lda(benchmark, report):
    orion, strads = benchmark.pedantic(_run_lda, rounds=1, iterations=1)
    ratio = orion.time_per_iteration() / strads.time_per_iteration()
    rows = [
        (label, f"{h.final_loss:.4f}", f"{h.time_per_iteration():.4f}")
        for label, h in [("Orion", orion), ("STRADS", strads)]
    ]
    report(
        "Fig 11b/c: Orion vs STRADS, LDA",
        wl.fmt_table(["engine", "final loss", "s/iter"], rows)
        + f"\nmeasured Orion/STRADS time ratio: {ratio:.2f}x "
        "(paper: 1.8x ClueWeb, 4.0x NYTimes)",
    )
    # Per-iteration convergence matches exactly: same serializable
    # execution, only cost constants differ.
    assert strads.losses == pytest.approx(orion.losses)
    assert ratio > 1.5  # STRADS meaningfully faster per iteration on LDA
