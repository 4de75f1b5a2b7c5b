"""Table 3 — ordered vs. unordered 2D parallelization, time per iteration.

Paper result (12 machines, averaged over iterations 2-100):

    =====================  =======  =========  =======
    app                    ordered  unordered  speedup
    =====================  =======  =========  =======
    SGD MF (Netflix)        13.1 s     5.9 s    2.2x
    SGD MF AdaRev           43.6 s    16.7 s    2.6x
    LDA (NYTimes)           29.9 s     5.0 s    6.0x
    =====================  =======  =========  =======

Relaxing the ordering constraint theoretically at most doubles parallelism,
but it additionally enables the pipelined rotation scheme that hides
communication latency, so measured speedups exceed 2x.  This benchmark
reproduces the three rows and asserts the shape: every speedup > 1.5x and
LDA's (the communication-heaviest app) is the largest.
"""

import pytest

import _workloads as wl
from repro.apps import build_lda, build_sgd_mf
from repro.runtime.options import LoopOptions

EPOCHS = 3

PAPER = {
    "SGD MF": (13.1, 5.9, 2.2),
    "SGD MF AdaRev": (43.6, 16.7, 2.6),
    "LDA": (29.9, 5.0, 6.0),
}


def _measure_mf(adarev: bool):
    dataset = wl.netflix_bench()
    hyper = wl.MF_ADAREV_HYPER if adarev else wl.MF_HYPER
    times = {}
    for ordered in (True, False):
        program = build_sgd_mf(
            dataset,
            cluster=wl.mf_cluster(adarev=adarev),
            hyper=hyper,
            options=LoopOptions(
                ordered=ordered,
                pipeline_depth=wl.BENCH_PIPELINE_DEPTH,
            ),
        )
        times[ordered] = program.run(EPOCHS).time_per_iteration()
    return times[True], times[False]


def _measure_lda():
    dataset = wl.nytimes_bench()
    times = {}
    for ordered in (True, False):
        program = build_lda(
            dataset,
            cluster=wl.lda_cluster(),
            hyper=wl.LDA_HYPER,
            options=LoopOptions(
                ordered=ordered,
                pipeline_depth=wl.BENCH_PIPELINE_DEPTH,
            ),
        )
        times[ordered] = program.run(EPOCHS).time_per_iteration()
    return times[True], times[False]


def _run_all():
    return {
        "SGD MF": _measure_mf(adarev=False),
        "SGD MF AdaRev": _measure_mf(adarev=True),
        "LDA": _measure_lda(),
    }


@pytest.mark.benchmark(group="table3")
def test_table3_ordering(benchmark, report):
    measured = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = []
    for app, (ordered_t, unordered_t) in measured.items():
        paper_o, paper_u, paper_s = PAPER[app]
        rows.append(
            (
                app,
                f"{ordered_t:.4f}",
                f"{unordered_t:.4f}",
                f"{ordered_t / unordered_t:.2f}x",
                f"{paper_s:.1f}x",
            )
        )
    table = wl.fmt_table(
        ["app", "ordered s/iter", "unordered s/iter", "speedup", "paper"],
        rows,
    )
    report("Table 3: ordered vs unordered 2D parallelization", table)

    speedups = {
        app: ordered_t / unordered_t
        for app, (ordered_t, unordered_t) in measured.items()
    }
    assert all(s > 1.5 for s in speedups.values()), speedups
    # LDA, the communication-heaviest app, gains the most (paper: 6x).
    assert speedups["LDA"] >= max(
        speedups["SGD MF"], speedups["SGD MF AdaRev"]
    ) * 0.9, speedups
