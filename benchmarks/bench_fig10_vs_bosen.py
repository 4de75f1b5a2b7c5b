"""Fig. 10 — Orion vs. Bösen: convergence over time and over iterations.

Paper results (12 machines / 384 workers):

* (a) SGD MF AdaRev over *time*: Orion (and Orion AdaRev) reach low loss
  fastest; manual data parallelism on Bösen trails; managed communication
  plus AdaRev closes much of the gap.
* (b) SGD MF AdaRev over *iterations*: same ranking, driven by dependence
  preservation.
* (c) LDA on ClueWeb over time: managed communication's extra traffic costs
  CPU, so Orion wins overall despite Bösen's raw throughput.
"""

import pytest

import _workloads as wl
from repro.apps import LDAApp, MFHyper, SGDMFApp, build_lda, build_sgd_mf
from repro.baselines import run_bosen, run_managed_comm
from repro.runtime.options import LoopOptions

EPOCHS_MF = 8
EPOCHS_LDA = 5


def _run_mf():
    dataset = wl.netflix_bench()
    cluster = wl.mf_cluster(adarev=True)
    hyper = wl.MF_ADAREV_HYPER
    runs = {
        # Two manual data-parallel rows: the paper's "Manual Data
        # Parallelism on Bosen" (AdaRev, synced once per pass — it degrades
        # badly, which is why CM exists) and a plain-SGD variant for
        # reference.
        "Bosen DP (AdaRev)": run_bosen(
            SGDMFApp(dataset, hyper), cluster, EPOCHS_MF
        ),
        "Bosen DP (plain SGD)": run_bosen(
            SGDMFApp(dataset, MFHyper(rank=hyper.rank, step_size=0.04)),
            cluster,
            EPOCHS_MF,
        ),
        "Bosen CM + AdaRev": run_managed_comm(
            SGDMFApp(dataset, hyper),
            cluster,
            EPOCHS_MF,
            bandwidth_budget_mbps=1600,
        ),
        "Orion": build_sgd_mf(
            dataset,
            cluster=wl.mf_cluster(adarev=False),
            hyper=wl.MF_HYPER,
        ).run(EPOCHS_MF),
        "Orion AdaRev": build_sgd_mf(
            dataset, cluster=cluster, hyper=hyper
        ).run(EPOCHS_MF),
    }
    return runs


def _run_lda():
    dataset = wl.clueweb_bench()
    cluster = wl.lda_cluster()
    runs = {
        "Bosen data parallel": run_bosen(
            LDAApp(dataset, wl.LDA_HYPER, seed=0), cluster, EPOCHS_LDA
        ),
        "Bosen CM": run_managed_comm(
            LDAApp(dataset, wl.LDA_HYPER, seed=0),
            cluster,
            EPOCHS_LDA,
            bandwidth_budget_mbps=2560,
            cpu_overhead_s_per_mb=5e-3,
        ),
        "Orion": build_lda(
            dataset,
            cluster=cluster,
            hyper=wl.LDA_HYPER,
            options=LoopOptions(pipeline_depth=wl.BENCH_PIPELINE_DEPTH),
        ).run(EPOCHS_LDA),
    }
    return runs


def _table(runs, fmt):
    rows = []
    for label, history in runs.items():
        rows.append(
            [
                label,
                fmt.format(history.final_loss),
                f"{history.total_time_s:.3f}",
                f"{history.time_per_iteration():.4f}",
            ]
        )
    return wl.fmt_table(
        ["engine", "final loss", "total time (s)", "s/iter"], rows
    )


@pytest.mark.benchmark(group="fig10")
def test_fig10ab_mf_adarev(benchmark, report):
    runs = benchmark.pedantic(_run_mf, rounds=1, iterations=1)
    # Per-iteration series (Fig. 10b).
    series = "\n".join(
        wl.fmt_series(
            label, list(zip(range(1, EPOCHS_MF + 1), history.losses)), "{:.0f}"
        )
        for label, history in runs.items()
    )
    report(
        "Fig 10a/b: Orion vs Bosen, SGD MF AdaRev (Netflix-like)",
        _table(runs, "{:.1f}")
        + "\n\nloss per iteration (Fig 10b):\n"
        + series
        + "\npaper shape: Orion AdaRev fastest; CM+AdaRev close; plain "
        "data parallelism slowest per iteration",
    )
    # Ranking (Fig. 10b): Orion AdaRev best, CM+AdaRev close behind, plain
    # data parallelism worse, AdaRev-without-CM worst (staleness breaks the
    # adaptive accumulators — the reason Bösen pairs AdaRev with CM).
    finals = {k: h.final_loss for k, h in runs.items()}
    assert finals["Orion AdaRev"] < finals["Bosen CM + AdaRev"]
    assert finals["Bosen CM + AdaRev"] < finals["Bosen DP (plain SGD)"]
    assert finals["Bosen DP (plain SGD)"] < finals["Bosen DP (AdaRev)"]

    # Over time (Fig. 10a): Orion reaches Bösen's plain-DP quality sooner.
    target = finals["Bosen DP (plain SGD)"]
    orion_time = runs["Orion AdaRev"].time_to_reach(target)
    assert orion_time is not None
    assert orion_time < runs["Bosen DP (plain SGD)"].total_time_s


@pytest.mark.benchmark(group="fig10")
def test_fig10c_lda_over_time(benchmark, report):
    runs = benchmark.pedantic(_run_lda, rounds=1, iterations=1)
    report(
        "Fig 10c: Orion vs Bosen, LDA over time (ClueWeb-like)",
        _table(runs, "{:.4f}")
        + "\npaper shape: Orion converges fastest overall; CM's extra "
        "communication costs CPU and trails Orion",
    )
    initial = runs["Orion"].meta["initial_loss"]
    progress = {k: initial - h.final_loss for k, h in runs.items()}
    # Paper (ClueWeb): CM matches Orion's *per-iteration* convergence...
    assert progress["Bosen CM"] > 0.8 * progress["Orion"]
    # ...but its aggressive communication costs CPU, so Orion's *overall*
    # (wall-clock) convergence is faster.
    assert runs["Orion"].total_time_s < 0.8 * runs["Bosen CM"].total_time_s
    target = initial - 0.8 * progress["Bosen CM"]
    orion_time = runs["Orion"].time_to_reach(target)
    cm_time = runs["Bosen CM"].time_to_reach(target)
    assert orion_time is not None and cm_time is not None
    assert orion_time < cm_time
    # Plain data parallelism converges slowest per iteration.
    assert progress["Bosen data parallel"] < progress["Orion"]
