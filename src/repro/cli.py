"""Command-line experiment runner.

Run any application under any engine and print the per-pass history::

    python -m repro.cli mf     --engine orion --epochs 5
    python -m repro.cli lda    --engine bosen --epochs 3 --machines 4
    python -m repro.cli slr    --engine serial --epochs 4
    python -m repro.cli mf     --engine all --epochs 5      # comparison table

Engines: ``serial``, ``orion``, ``orion-ordered``, ``bosen``, ``cm``
(managed communication), ``strads``, ``tf`` (mini-batch), ``tux2``
(MF only), or ``all``.

Observability (see ``docs/observability.md``)::

    python -m repro.cli mf --engine all --trace trace.json --report
    python -m repro.cli mf --history-out history.json

``--trace`` writes a Chrome-trace/Perfetto JSON of the run's virtual
timeline (open in `ui.perfetto.dev`; with ``--engine all`` every engine
appears as its own process, side by side).  ``--report`` prints a
straggler/utilization summary followed by the insight layer's
critical-path attribution, bottleneck what-ifs and — for multiprocess
runs — the virtual-vs-real prediction error.  ``--history-out`` writes
the run histories as machine-readable JSON.

Performance tracking (see ``docs/observability.md``)::

    python -m repro.cli mf --engine orion --run-store .repro_runs
    python -m repro.cli perf show
    python -m repro.cli perf compare        # last two runs; exit 1 on regression
    python -m repro.cli perf check          # latest vs baselines, per group

``--run-store`` appends one structured JSONL record per orion-engine run
(loop signature, plan, kernel tier, per-epoch timings, metrics snapshot);
``repro perf`` performs noise-aware regression detection against the
recorded baselines.  ``--slow-factor X`` injects a deterministic
virtual-clock slowdown for exercising the detector.

Fault injection (see ``docs/fault_tolerance.md``)::

    python -m repro.cli mf --faults seed=7,crashes=1,stragglers=1 \
        --ckpt-every 2 --epochs 6

``--faults`` attaches a deterministic fault plan (worker crashes,
stragglers) to engines that support it (orion, orion-ordered,
bosen, strads); ``--ckpt-every N`` checkpoints the model every N passes so
crashes replay from the latest checkpoint instead of from scratch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional

from repro.analysis.synth import synthesize_kernel
from repro.apps import (
    LDAApp,
    LDAHyper,
    MFHyper,
    SGDMFApp,
    SLRApp,
    SLRHyper,
    build_gbt,
    build_glove,
    build_lda,
    build_sgd_mf,
    build_slr,
    cooccurrence_corpus,
)
from repro.apps.lda import lda_cost_model
from repro.apps.sgd_mf import mf_cost_model
from repro.apps.slr import slr_cost_model
from repro.baselines import (
    run_bosen,
    run_managed_comm,
    run_serial,
    run_strads,
    run_tensorflow_minibatch,
    run_tux2_minibatch,
)
from repro.data import (
    lda_corpus,
    netflix_like,
    regression_table,
    sparse_classification,
)
from repro.errors import FaultError
from repro.faults.plan import FaultPlan, Straggler
from repro.obs import (
    MetricsRegistry,
    Observability,
    RunStore,
    add_traffic_spans,
    check_store,
    compare_records,
    insight_report,
    straggler_report,
    write_chrome_trace,
)
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.cluster import ClusterSpec
from repro.runtime.history import RunHistory
from repro.runtime.options import BACKENDS, LoopOptions

__all__ = ["main", "build_parser"]

ENGINES = ["serial", "orion", "orion-ordered", "bosen", "cm", "strads", "tf", "tux2"]

#: Engines with native tracer support; the rest get network tracks lifted
#: from their TrafficLog after the run.
_NATIVELY_TRACED = {"serial", "orion", "orion-ordered", "bosen", "strads"}


def _shared_flags(workers_per_machine: int = 4) -> argparse.ArgumentParser:
    """The argparse parent every subcommand builds on: the modeled
    cluster's shape, the seed and the dataset scale.  (A fresh parent per
    parser: argparse shares a parent's actions by reference.)"""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--machines", type=int, default=4,
        help="machines in the modeled cluster (default 4)",
    )
    parent.add_argument(
        "--workers-per-machine", type=int, default=workers_per_machine,
        help=f"workers per machine (default {workers_per_machine})",
    )
    parent.add_argument("--seed", type=int, default=0)
    parent.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset size multiplier (1.0 = the small demo default; "
             "analysis and synthesis are size-independent, so smaller is "
             "faster to build)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run an Orion-reproduction training experiment.",
        parents=[_shared_flags()],
    )
    parser.add_argument(
        "app", choices=["mf", "mf-adarev", "lda", "lda-1d", "slr", "gbt"],
        help="application to train",
    )
    parser.add_argument(
        "--engine", default="orion", choices=ENGINES + ["all"],
        help="training engine (or 'all' for a comparison table)",
    )
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument(
        "--plot", action="store_true",
        help="render ASCII loss curves alongside the tables",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome-trace/Perfetto JSON of the virtual timeline",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print a straggler/utilization report after the run",
    )
    parser.add_argument(
        "--history-out", metavar="PATH", default=None,
        help="write run histories (records+traffic+meta) as JSON",
    )
    parser.add_argument(
        "--backend", default="simulated", choices=list(BACKENDS),
        help="execution backend for the orion engines: 'simulated' "
             "(virtual-clock oracle) or 'multiprocess' (forked workers over "
             "shared memory, real wall-clock epochs)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the shadow-access race detector during the orion "
             "engines' loops: record every actual DistArray element "
             "access and fail the epoch if the analyzer's dependence "
             "claims are contradicted (see docs/analysis.md)",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject faults, e.g. 'seed=7,crashes=1,stragglers=1,"
             "slowdown=3.0' (engines: orion, orion-ordered, "
             "bosen, strads; see docs/fault_tolerance.md)",
    )
    parser.add_argument(
        "--ckpt-every", type=int, metavar="N", default=None,
        help="checkpoint the model every N passes so crashes replay from "
             "the latest checkpoint instead of the initial state",
    )
    parser.add_argument(
        "--ckpt-dir", metavar="PATH", default=None,
        help="checkpoint directory (default: a fresh temp directory; "
             "each engine writes its own subdirectory)",
    )
    parser.add_argument(
        "--run-store", metavar="PATH", default=None,
        help="record each orion-engine run as a JSONL record in this "
             "run store for `repro perf` (see docs/observability.md)",
    )
    parser.add_argument(
        "--slow-factor", type=float, metavar="X", default=None,
        help="artificially slow every worker's block time by X (an "
             "explicit straggler plan on the virtual clock, simulated "
             "backend only, not with --faults) — for exercising "
             "`repro perf check` regression detection",
    )
    return parser


def _cluster(args, cost) -> ClusterSpec:
    """The cluster the shared ``--machines`` / ``--workers-per-machine``
    flags describe, priced by ``cost`` (``None``: the default cost model)."""
    return ClusterSpec(
        num_machines=args.machines,
        workers_per_machine=args.workers_per_machine,
        **({"cost": cost} if cost is not None else {}),
    )


def _fault_plan(args, cluster: ClusterSpec) -> Optional[FaultPlan]:
    """A fresh plan per engine — plans track which crashes already fired.

    ``--slow-factor X`` builds an explicit plan that straggles *every*
    worker in *every* epoch by exactly X — a deterministic artificial
    slowdown (virtual time only, never data) for exercising ``repro perf``
    regression detection.
    """
    if args.faults:
        return FaultPlan.from_spec(
            args.faults, epochs=args.epochs, num_workers=cluster.num_workers
        )
    if args.slow_factor:
        return FaultPlan(
            stragglers=[
                Straggler(worker=worker, epoch=epoch,
                          slowdown=args.slow_factor)
                for epoch in range(1, args.epochs + 1)
                for worker in range(cluster.num_workers)
            ],
        )
    return None


def _loop_options(
    engine: str, args, cluster: ClusterSpec, obs: Optional[Observability],
) -> LoopOptions:
    """The one ``LoopOptions`` an Orion-program engine's builder receives.

    GBT runs several parallel loops per boosting round, which would race on
    one checkpoint directory — it gets fault injection but no on-disk
    checkpointing (crashes replay from the initial in-memory snapshot).

    ``--backend`` applies to the orion engines only; STRADS, like the other
    baselines, models its system on the virtual clock.
    """
    checkpoint = None
    if args.ckpt_every and args.app != "gbt":
        checkpoint = CheckpointConfig(
            directory=os.path.join(args.ckpt_dir, engine),
            every_n_epochs=args.ckpt_every,
        )
    return LoopOptions(
        ordered=engine == "orion-ordered",
        backend="simulated" if engine == "strads" else args.backend,
        sanitize=args.sanitize,
        obs=obs,
        trace_process=engine,
        faults=_fault_plan(args, cluster),
        checkpoint=checkpoint,
        run_store=args.run_store,
        run_label=f"{args.app}:{engine}",
    )


def _dataset_and_builders(args):
    """Per-app dataset, cost model, Orion builder and numpy app."""
    s = args.scale
    if args.app in ("mf", "mf-adarev"):
        dataset = netflix_like(
            num_rows=int(150 * s),
            num_cols=int(120 * s),
            num_ratings=int(8000 * s),
            seed=args.seed,
        )
        hyper = MFHyper(
            rank=8, step_size=0.04, adarev=(args.app == "mf-adarev"),
            adarev_step=0.15,
        )
        cost = mf_cost_model(hyper)
        return (
            dataset,
            cost,
            lambda cluster, options: build_sgd_mf(
                dataset, cluster=cluster, hyper=hyper, options=options
            ),
            SGDMFApp(dataset, hyper),
        )
    if args.app in ("lda", "lda-1d"):
        dataset = lda_corpus(
            num_docs=int(200 * s),
            vocab_size=int(300 * s),
            num_topics=8,
            doc_length=30,
            seed=args.seed,
        )
        hyper = LDAHyper(num_topics=8)
        cost = lda_cost_model(hyper)
        parallelism = "1d" if args.app == "lda-1d" else "2d"
        return (
            dataset,
            cost,
            lambda cluster, options: build_lda(
                dataset, cluster=cluster, hyper=hyper,
                parallelism=parallelism, options=options
            ),
            LDAApp(dataset, hyper, seed=args.seed),
        )
    if args.app == "slr":
        dataset = sparse_classification(
            num_samples=int(1500 * s),
            num_features=int(800 * s),
            nnz_per_sample=10,
            seed=args.seed,
        )
        hyper = SLRHyper(step_size=0.2)
        cost = slr_cost_model(hyper)
        return (
            dataset,
            cost,
            lambda cluster, options: build_slr(
                dataset, cluster=cluster, hyper=hyper, options=options
            ),
            SLRApp(dataset, hyper),
        )
    # gbt
    dataset = regression_table(num_samples=int(1000 * s), num_features=6,
                               seed=args.seed)
    return (
        dataset,
        None,
        lambda cluster, options: build_gbt(
            dataset, cluster=cluster, options=options
        ),
        None,
    )


def _run_engine(
    engine: str, args, cluster: ClusterSpec, builder, app,
    obs: Optional[Observability] = None,
) -> Optional[RunHistory]:
    if engine == "serial":
        if app is None:
            return None
        return run_serial(
            app, args.epochs, seed=args.seed, cost=cluster.cost, obs=obs
        )
    if engine in ("orion", "orion-ordered"):
        options = _loop_options(engine, args, cluster, obs)
        return builder(cluster, options).run(args.epochs)
    if app is None:
        return None  # remaining engines need the numpy app form
    if engine == "bosen":
        return run_bosen(
            app, cluster, args.epochs, seed=args.seed,
            faults=_fault_plan(args, cluster), ckpt_every=args.ckpt_every,
            obs=obs,
        )
    if engine == "cm":
        return run_managed_comm(
            app, cluster, args.epochs, bandwidth_budget_mbps=1600,
            seed=args.seed,
        )
    if engine == "strads":
        return run_strads(
            builder, cluster, args.epochs,
            options=_loop_options(engine, args, cluster, obs),
        )
    if engine == "tf":
        if not isinstance(app, SGDMFApp):
            return None
        return run_tensorflow_minibatch(
            app, cluster, args.epochs,
            batch_size=max(1, len(app.entries()) // 4),
            step_scale=4.0, seed=args.seed,
        )
    if engine == "tux2":
        if not isinstance(app, SGDMFApp):
            return None
        return run_tux2_minibatch(app, cluster, args.epochs, seed=args.seed)
    raise ValueError(f"unknown engine {engine!r}")


def _print_history(history: RunHistory, out) -> None:
    out.write(f"== {history.label} ==\n")
    initial = history.meta.get("initial_loss")
    if initial is not None:
        out.write(f"initial loss: {initial:.6g}\n")
    kernel_path = history.meta.get("kernel_path")
    if kernel_path is not None:
        path = "batched kernel" if kernel_path else "scalar body"
        out.write(f"execution path: {path}\n")
    recoveries = history.meta.get("recoveries")
    if recoveries:
        out.write(f"crash recoveries: {recoveries}\n")
    out.write(
        f"{'pass':>5s} {'loss':>14s} {'time (s)':>10s} {'MB sent':>9s} "
        f"{'util%':>6s}\n"
    )
    for record in history.records:
        out.write(
            f"{record.epoch:5d} {record.loss:14.6g} {record.time_s:10.4f} "
            f"{record.bytes_sent / 1e6:9.3f} "
            f"{record.utilization * 100:6.1f}\n"
        )


def _lint_main(argv: List[str], out) -> int:
    """``repro lint``: analyze a loop body without running it.

    Builds the requested app's training loop, re-runs the static
    analysis through :func:`repro.analysis.lint.run_lint`, and prints a
    structured diagnostic report with source locations — no epochs are
    executed.  ``repro lint demo`` lints a catalog of deliberately
    offending loop bodies (:mod:`repro.analysis.lint_demo`) instead, one
    per diagnostic code.  Exit code 1 when any error-severity diagnostic
    fires, else 0 (warnings are informational).
    """
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically analyze a parallel loop without running "
                    "it; see docs/analysis.md for the diagnostic catalog.",
        parents=[_shared_flags()],
    )
    parser.add_argument(
        "app",
        choices=["mf", "mf-adarev", "lda", "lda-1d", "slr", "gbt", "demo"],
        help="application whose training loop to lint, or 'demo' for "
             "the diagnostic-code showcase",
    )
    parser.add_argument(
        "--ordered", action="store_true",
        help="lint the ordered (serializability-preserving) loop variant",
    )
    args = parser.parse_args(argv)

    from repro.analysis.lint import run_lint

    if args.app == "demo":
        from repro.analysis.lint_demo import demo_reports

        codes = set()
        for title, report in demo_reports():
            out.write(f"== {title} ==\n{report.describe()}\n\n")
            codes.update(report.codes())
        out.write(f"demonstrated codes: {', '.join(sorted(codes))}\n")
        return 0

    dataset, cost, builder, app = _dataset_and_builders(args)
    cluster = _cluster(args, cost)
    loop = builder(cluster, LoopOptions(ordered=args.ordered)).train_loop
    report = run_lint(
        loop.body, loop.info.iteration_space, ordered=loop.info.ordered
    )
    out.write(f"== lint: {args.app} ==\n{report.describe()}\n")
    return 1 if report.errors else 0


def _synth_main(argv: List[str], out) -> int:
    """``repro synth``: show what kernel synthesis makes of an app's loop.

    Builds the requested app's training loop and prints the synthesis
    report of its body — the generated NumPy block-kernel source
    when a tier succeeded, or the W50x fallback diagnostics explaining why
    the scalar interpreter runs instead (see docs/analysis.md, "Kernel
    synthesis").  Exit code 0 when a kernel was emitted, 1 on fallback.
    """
    parser = argparse.ArgumentParser(
        prog="repro synth",
        description="Synthesize a vectorized block kernel from an app's "
                    "loop body and print the generated source.",
        parents=[_shared_flags()],
    )
    parser.add_argument(
        "app",
        choices=["mf", "mf-adarev", "glove", "lda", "lda-1d", "slr", "gbt"],
        help="application whose training-loop body to compile",
    )
    args = parser.parse_args(argv)

    if args.app == "glove":
        dataset = cooccurrence_corpus(
            vocab_size=int(120 * args.scale),
            num_tokens=int(6000 * args.scale),
            seed=args.seed,
        )
        cluster = _cluster(args, None)
        builder = lambda cluster, options: build_glove(  # noqa: E731
            dataset, cluster=cluster, options=options
        )
    else:
        dataset, cost, builder, _app = _dataset_and_builders(args)
        cluster = _cluster(args, cost)
    loop = builder(cluster, LoopOptions()).train_loop
    # Synthesis of the built loop's own body — LDA runs a registered
    # kernel, so its loop carries no synthesis outcome to read back.
    synth = synthesize_kernel(loop.body, loop.info)
    out.write(f"== synth: {args.app} ==\n{synth.describe()}\n")
    w503 = [d for d in loop.diagnostics() if d.code == "W503"]
    for diag in w503:
        out.write(f"{diag.describe()}\n")
    return 0 if synth.engaged else 1


def _perf_main(argv: List[str], out) -> int:
    """``repro perf``: inspect recorded runs, detect regressions.

    Consumes the JSONL run store that ``--run-store`` (or the
    ``LoopOptions.run_store`` API option) populates:

    * ``show`` — one table row per recorded run;
    * ``compare`` — two runs head to head (default: the last two);
      exit 1 when the candidate regressed past the noise margin;
    * ``check`` — the latest run of every (signature, clock, epoch)
      group against the median of its predecessors; exit 1 when any
      group regressed.  Deterministic virtual-clock groups have zero
      spread, so identical seeded runs compare bit-exactly while an
      artificially slowed run (``--slow-factor``) is flagged.
    """
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Inspect a run store and detect performance "
                    "regressions (see docs/observability.md).",
    )
    parser.add_argument(
        "action", choices=["show", "compare", "check"],
        help="show the recorded runs, compare two of them, or "
             "regression-check the latest run of every group",
    )
    parser.add_argument(
        "--store", metavar="PATH", default=RunStore().root,
        help="run-store directory (default: .repro_runs)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="minimum relative slowdown to flag (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--noise-factor", type=float, default=2.0,
        help="noise margin multiplier on the baselines' observed "
             "spread (default 2.0)",
    )
    parser.add_argument(
        "--baseline", type=int, metavar="I", default=-2,
        help="compare: baseline record index (default -2, the "
             "second-to-last run)",
    )
    parser.add_argument(
        "--candidate", type=int, metavar="I", default=-1,
        help="compare: candidate record index (default -1, the last run)",
    )
    args = parser.parse_args(argv)

    store = RunStore(args.store)
    records = store.load()
    if store.unreadable:
        lines = ", ".join(str(number) for number in store.unreadable)
        out.write(
            f"note: skipped {len(store.unreadable)} unreadable line(s) in "
            f"{store.path} (lines {lines})\n"
        )

    if args.action == "show":
        if not records:
            out.write(f"(run store {store.path} is empty)\n")
            return 0
        out.write(
            f"{'#':>3s} {'label':24s} {'sig':8s} {'backend':12s} "
            f"{'clock':7s} {'tier':16s} {'ep':>3s} {'total s':>10s} "
            f"{'util%':>6s} {'flags':s}\n"
        )
        for index, record in enumerate(records):
            flags = []
            if record.faulted:
                flags.append("faulted")
            if record.first_epoch != 1:
                flags.append(f"from-epoch-{record.first_epoch}")
            out.write(
                f"{index:3d} {record.label:24s} {record.signature[:8]:8s} "
                f"{record.backend:12s} {record.clock:7s} "
                f"{record.kernel_tier:16s} {len(record.epochs):3d} "
                f"{record.total_time_s:10.4f} "
                f"{record.mean_utilization * 100:6.1f} "
                f"{','.join(flags)}\n"
            )
        return 0

    if args.action == "compare":
        if len(records) < 2:
            out.write(
                f"need at least two recorded runs to compare "
                f"({len(records)} in {store.path})\n"
            )
            return 2
        try:
            baseline = records[args.baseline]
            candidate = records[args.candidate]
        except IndexError:
            out.write(
                f"record index out of range (store has {len(records)} "
                f"records)\n"
            )
            return 2
        verdict = compare_records(
            baseline, candidate,
            threshold=args.threshold, noise_factor=args.noise_factor,
        )
        out.write(verdict.describe() + "\n")
        base_times, cand_times = baseline.epoch_times, candidate.epoch_times
        if base_times and cand_times:
            out.write("  per-epoch (baseline -> candidate):\n")
            for index in range(max(len(base_times), len(cand_times))):
                b = base_times[index] if index < len(base_times) else None
                c = cand_times[index] if index < len(cand_times) else None
                b_s = f"{b * 1e3:10.3f} ms" if b is not None else "         —"
                c_s = f"{c * 1e3:10.3f} ms" if c is not None else "         —"
                delta = ""
                if b and c:
                    delta = f"  ({c / b:.3f}x)"
                out.write(f"    epoch {index + 1}: {b_s} -> {c_s}{delta}\n")
        return 1 if verdict.regressed else 0

    # check
    verdicts = check_store(
        records, threshold=args.threshold, noise_factor=args.noise_factor
    )
    if not verdicts:
        out.write(
            f"(no comparable run groups in {store.path} — every "
            f"(signature, clock, epoch) group has at most one record)\n"
        )
        return 0
    for verdict in verdicts:
        out.write(verdict.describe() + "\n")
    return 1 if any(verdict.regressed for verdict in verdicts) else 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        return _lint_main(list(argv[1:]), out)
    if argv[:1] == ["synth"]:
        return _synth_main(list(argv[1:]), out)
    if argv[:1] == ["perf"]:
        return _perf_main(list(argv[1:]), out)
    args = build_parser().parse_args(argv)
    if args.slow_factor is not None and args.backend != "simulated":
        out.write(
            "--slow-factor injects virtual-clock stragglers and requires "
            "--backend simulated\n"
        )
        return 2
    if args.slow_factor is not None and args.faults:
        out.write("--slow-factor and --faults cannot be combined\n")
        return 2
    if args.faults:
        # Parse the spec before building the dataset: a typo is one line.
        try:
            FaultPlan.from_spec(
                args.faults, epochs=args.epochs,
                num_workers=args.machines * args.workers_per_machine,
            )
        except FaultError as exc:
            out.write(f"bad --faults spec: {exc}\n")
            return 2
    dataset, cost, builder, app = _dataset_and_builders(args)
    cluster = _cluster(args, cost)

    obs = Observability.enabled() if args.trace or args.report else None
    tracer = obs.tracer if obs is not None else None

    if args.ckpt_every and not args.ckpt_dir:
        args.ckpt_dir = tempfile.mkdtemp(prefix="orion-ckpt-")

    engines = ENGINES if args.engine == "all" else [args.engine]
    results: Dict[str, RunHistory] = {}
    for engine in engines:
        history = _run_engine(engine, args, cluster, builder, app, obs=obs)
        if history is None:
            if args.engine != "all":
                out.write(
                    f"engine {engine!r} does not support app {args.app!r}\n"
                )
                return 2
            continue
        if tracer is not None and engine not in _NATIVELY_TRACED:
            # Engines without native tracing still contribute network
            # tracks, lifted from their recorded traffic.
            add_traffic_spans(tracer, history.traffic, process=engine)
        results[engine] = history

    if args.engine == "all":
        out.write(
            f"{'engine':15s} {'final loss':>14s} {'s/iter':>10s} "
            f"{'total s':>10s} {'util%':>6s}\n"
        )
        for engine, history in results.items():
            mean_util = (
                sum(record.utilization for record in history.records)
                / len(history.records) if history.records else 0.0
            )
            out.write(
                f"{engine:15s} {history.final_loss:14.6g} "
                f"{history.time_per_iteration():10.4f} "
                f"{history.total_time_s:10.4f} {mean_util * 100:6.1f}\n"
            )
    else:
        _print_history(next(iter(results.values())), out)
    if args.plot and results:
        from repro.tools import ascii_curves

        out.write("\n" + ascii_curves(list(results.values())) + "\n")
    if args.history_out and results:
        payload = {
            "app": args.app,
            "histories": {
                engine: history.to_json()
                for engine, history in results.items()
            },
        }
        with open(args.history_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        out.write(f"histories written to {args.history_out}\n")
    if args.report and tracer is not None:
        if args.backend == "multiprocess":
            # Real-clock runs traced only `@wall` spans.  Replay the orion
            # engines on the simulated backend into the same tracer so the
            # insight layer can pair each engine's predicted virtual-clock
            # epochs with the measured `@wall` ones (prediction error).
            sim_args = argparse.Namespace(**vars(args))
            sim_args.backend = "simulated"
            sim_args.run_store = None
            sim_args.slow_factor = None
            for engine in ("orion", "orion-ordered"):
                if engine in results:
                    _run_engine(
                        engine, sim_args, cluster, builder, app,
                        obs=Observability(
                            tracer=tracer, metrics=MetricsRegistry()
                        ),
                    )
        kernel_diags = [
            f"({engine}) {diag}"
            for engine, history in results.items()
            for diag in history.meta.get("kernel_diagnostics", [])
        ]
        out.write(
            "\n"
            + straggler_report(tracer, obs.metrics, diagnostics=kernel_diags)
            + "\n"
        )
        out.write("\n" + insight_report(tracer) + "\n")
    if args.trace and tracer is not None:
        trace = write_chrome_trace(tracer, args.trace)
        out.write(
            f"trace written to {args.trace} "
            f"({len(trace['traceEvents'])} events; open in ui.perfetto.dev)\n"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
