#!/usr/bin/env python3
"""The layered benchmark's harness: one command, every metric by name.

    python3 benchmarks/layered/run.py                     # all workloads, both passes
    python3 benchmarks/layered/run.py --smoke             # tiny data, same code path
    python3 benchmarks/layered/run.py --workload mf_mp2 --seed 5 --seconds 12 --trace 0
    python3 benchmarks/layered/run.py --compare A.json B.json

This process generates each workload's dataset from ``--seed`` and drives
fresh child processes (``child.py``) strictly one after another: three
cold starts, the first of which continues into the timed phase, then one
traced pass.  The children only ever see the generated entries.  Wall and
CPU times are reported in reference-host seconds (``yardstick.py``), with
what the clock read kept beside them.  Metric names, units, directions
and bounds are read from ``BENCHMARK.json`` at the repository root, so
they are written down exactly once.

README.md beside this file defines every metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 0.2
COLD_STARTS = 3
BOOTSTRAP_DRAWS = 200

# This process imports ``repro`` only to generate datasets.
sys.path[:0] = [str(HERE), str(ROOT / "src")]
import yardstick  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    MIN_CALLS,
    WORKLOADS,
    Workload,
    generate,
)


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(job: Dict[str, Any]) -> Dict[str, Any]:
    """One fresh process; its result is the last line it prints."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(pickle.dumps(job), CHILD_TIMEOUT_S)
    except BaseException:
        # Its forked workers share its process group: leave none behind.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(
            f"{job['workload']}: child exited {child.returncode}"
        )
    result = json.loads(stdout.decode().rstrip().rsplit("\n", 1)[-1])
    if result.get("error") and not result["calls"]:
        # Nothing was measured, so there is no metric to report.
        raise RuntimeError(f"{job['workload']}: first call raised\n"
                           + result["error"])
    return result


def warm_import() -> None:
    """Throwaway import so the first cold start times the program, not
    bytecode compilation or a cold page cache."""
    subprocess.run(
        [sys.executable, "-c", "import repro.apps"],
        env=child_env(), cwd=str(ROOT), timeout=CHILD_TIMEOUT_S, check=True,
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median
    (0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_spread(values: Sequence[float]) -> float:
    """Quartile spread of the *median* of ``values``, by bootstrap: what a
    run's own samples say about how well its median is known.  (The
    samples themselves spread several times wider than their median
    repeats; ``--compare`` resolves against this, not against them.)"""
    draw = random.Random(len(values))
    return quartile_spread([
        statistics.median(draw.choices(values, k=len(values)))
        for _ in range(BOOTSTRAP_DRAWS)
    ])


def tail_percentile(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it (none
    below the median: with under 20 samples there is no such tail)."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return {
        "percentile": round(100.0 * (index + 1) / len(ordered), 1),
        "value": ordered[index],
    }


class Operations:
    """Attempted/failed operation counts with the reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def succeeded(self, count: int) -> None:
        self.attempted += count

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def to_json(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }


def metric(value: Optional[float], unit: str, **extra: Any) -> Dict[str, Any]:
    return {"value": value, "unit": unit, **extra}


#: The three terms of a cold start, as the children report them.
COLD_TERMS = ("import_s", "build_s", "first_epoch_s")


def cold_start(job: Dict[str, Any]) -> Dict[str, Any]:
    """One cold-start child: ``cold_s`` as the clock read it, and
    ``cold_reference_s``, the sum of its terms in reference-host seconds —
    each term against the mean of the yardstick blocks before and after
    it (the first block is timed here, just before the child starts; the
    child times the others)."""
    blocks = [yardstick.block()]
    child = run_child(job)
    blocks += child["cold_yardsticks_s"]
    child["cold_s"] = sum(child[term] for term in COLD_TERMS)
    child["cold_reference_s"] = sum(
        yardstick.reference_seconds(child[term], (before + after) / 2)
        for term, before, after in zip(COLD_TERMS, blocks, blocks[1:])
    )
    return child


def in_reference_s(measured: Sequence[float],
                   yardsticks: Sequence[float]) -> List[float]:
    return [
        yardstick.reference_seconds(seconds, unit_s)
        for seconds, unit_s in zip(measured, yardsticks)
    ]


def timed_metric(measured: Sequence[float], reference: Sequence[float],
                 unit: str,
                 to_value: Callable[[float], float] = float) -> Dict[str, Any]:
    """An end-to-end metric over per-sample times.

    ``value`` is taken at the median of the samples in reference-host
    seconds, ``spread`` is how well those samples fix that median (what
    ``--compare`` resolves against), and ``measured`` is the same figure
    at the median of what the clock read.
    """
    return metric(
        to_value(statistics.median(reference)), unit,
        samples=len(reference), spread=median_spread(reference),
        sample_spread=quartile_spread(reference),
        measured=to_value(statistics.median(measured)),
        measured_s=list(measured), reference_s=list(reference),
        host_slowdown=sum(measured) / sum(reference),
    )


def timed_pass(spec: Workload, jobs: Dict[str, Any], seed: int, smoke: bool,
               seconds: float, units: Dict[str, str],
               ops: Operations) -> Dict[str, Any]:
    """Three cold starts, the timed phase, the output checks."""
    colds = [
        cold_start({**jobs, "mode": "cold" if index else "timed",
                    "seconds": seconds})
        for index in range(COLD_STARTS)
    ]
    main = colds[0]
    calls = main["calls"]
    ops.succeeded(len(colds) + len(calls))
    if main["error"]:
        ops.record(False, "timed call raised: " + main["error"])

    work = main["entries"] * spec.epochs_per_call
    setup = timed_metric(
        [child["cold_s"] for child in colds],
        [child["cold_reference_s"] for child in colds], units["setup_s"],
    )

    call_yardsticks = [call["yardstick_s"] for call in calls]
    walls = [call["wall_s"] for call in calls]
    cpus = [
        (call["cpu_master_s"] + call["cpu_workers_s"]) / spec.epochs_per_call
        for call in calls
    ]
    rate = timed_metric(
        walls, in_reference_s(walls, call_yardsticks),
        units["entries_per_s"], lambda call_s: work / call_s,
    )
    rate["call_wall_tail"] = tail_percentile(rate["reference_s"])
    cpu = timed_metric(
        cpus, in_reference_s(cpus, call_yardsticks), units["cpu_s_per_epoch"],
    )
    end_to_end: Dict[str, Dict[str, Any]] = {
        "setup_s": setup,
        "entries_per_s": rate,
        "cpu_s_per_epoch": cpu,
        "peak_rss_mb": metric(
            main["peak_rss_mb"], units["peak_rss_mb"], samples=1, spread=0.0,
        ),
    }

    losses = [main["first_loss"]] + [call["loss"] for call in calls]
    initial = main["initial_loss"]
    target = jobs["target_ratio"] * initial
    calls_to_target = next(
        (index for index, loss in enumerate(losses) if loss <= target), None
    )
    ops.record(
        calls_to_target is not None,
        f"loss target {target:.6g} not reached (last {losses[-1]:.6g})",
    )
    if calls_to_target is not None:
        end_to_end["time_to_loss_s"] = metric(
            setup["value"] + calls_to_target * work / rate["value"],
            units["time_to_loss_s"],
            calls_to_target=calls_to_target, target_loss=target,
            spread=max(setup["spread"], rate["spread"]),
            measured=(
                setup["measured"] + calls_to_target * work / rate["measured"]
            ),
        )
    if spec.measures("virtual_epoch_s"):
        # Over a fixed set of epochs, so that it repeats exactly.
        end_to_end["virtual_epoch_s"] = metric(
            statistics.median(
                epoch["epoch_time_s"]
                for call in calls[:MIN_CALLS] for epoch in call["epochs"]
            ),
            units["virtual_epoch_s"], spread=0.0,
        )

    # ---- output checks, each one operation ----------------------------- #
    serial = main["serial"]
    serial_first = serial["losses"][0]
    checks = {
        "final_loss_finite": math.isfinite(losses[-1]),
        "final_below_initial": losses[-1] < initial,
        "first_epoch_near_serial": (
            abs(losses[0] - serial_first)
            <= spec.serial_tolerance * abs(serial_first)
        ),
    }
    loss_exact_match = None
    if seed == DEFAULT_SEED and not smoke and spec.frozen_losses:
        frozen = [float.fromhex(text) for text in spec.frozen_losses]
        common = min(len(frozen), len(losses))
        checks["loss_near_frozen"] = (
            abs(losses[common - 1] - frozen[common - 1])
            <= 0.01 * abs(frozen[common - 1])
        )
        loss_exact_match = losses[:common] == frozen[:common]
    for name, ok in checks.items():
        ops.record(ok, f"check {name} failed")

    record = {
        "end_to_end": {
            name: end_to_end[name] for name in units if name in end_to_end
        },
        "checks": checks,
        "loss_exact_match": loss_exact_match,
        "initial_loss": initial,
        "loss_trajectory": losses,
        "loss_trajectory_hex": [value.hex() for value in losses],
        "kernel_tier": main["kernel_tier"],
        "entries": main["entries"],
        "serial": serial,
        "cold_starts": [
            {term: child[term] for term in COLD_TERMS} for child in colds
        ],
    }
    if "simulated_twin_epoch_s" in main:
        record["simulated_twin_epoch_s"] = main["simulated_twin_epoch_s"]
    return record


def traced_pass(spec: Workload, jobs: Dict[str, Any], seconds: float,
                generate_s: float, layer_units: Dict[str, str],
                ops: Operations) -> Dict[str, Any]:
    """The traced child: its layers plus the baseline and harness rows."""
    traced = run_child({**jobs, "mode": "traced", "seconds": seconds})
    ops.succeeded(1 + len(traced["calls"]) + len(traced["reference_calls"]))
    if traced["error"]:
        ops.record(False, "traced call raised: " + traced["error"])

    layers: Dict[str, Optional[float]] = dict(traced["layers"])
    serial, entries = traced["serial"], traced["entries"]
    serial_rate = entries * serial["epochs"] / serial["wall_s"]
    untraced_call_s = statistics.median(
        call["wall_s"] for call in traced["reference_calls"]
    )
    layers["baselines.serial_entries_per_s"] = serial_rate
    layers["baselines.speedup_vs_serial"] = (
        entries * spec.epochs_per_call / untraced_call_s / serial_rate
    )
    layers["data.generate_s"] = generate_s
    return {
        # A metric that does not apply to the workload is not in ``layers``.
        "per_layer": {
            name: metric(layers[name], unit)
            for name, unit in layer_units.items() if name in layers
        },
        "unresolved_probes": traced["unresolved_probes"],
        "kernel_tier": traced["kernel_tier"],
        "spans": traced["spans"],
    }


def run_workload(spec: Workload, seed: int, smoke: bool, seconds: float,
                 passes: Sequence[int], contract: Dict[str, Any],
                 cpus: int) -> Dict[str, Any]:
    start = time.perf_counter()
    dataset = generate(spec, seed, smoke)
    generate_s = time.perf_counter() - start
    jobs = {
        "workload": spec.name,
        # Pickled once here, not once per child.
        "dataset": pickle.dumps(dataset),
        "target_ratio": spec.target_for(smoke),
    }
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    ops = Operations()
    record: Dict[str, Any] = {
        "why": next(w["why"] for w in contract["workloads"]
                    if w["name"] == spec.name),
        "params": spec.params(smoke),
    }
    if 0 in passes:
        record.update(timed_pass(spec, jobs, seed, smoke, seconds, units, ops))
    if 1 in passes:
        record.update(traced_pass(
            spec, jobs, seconds, generate_s, layer_units, ops
        ))
    record["unresolved"] = (
        ["setup_s", "entries_per_s", "time_to_loss_s"]
        if spec.real_clock and cpus < 2 else []
    )
    record["operations"] = ops.to_json()
    return record


def host_metadata(seed: int, smoke: bool, seconds: float) -> Dict[str, Any]:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        commit = done.stdout.decode().strip() or None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
    }


def print_table(results: Dict[str, Any]) -> None:
    for name, record in results["workloads"].items():
        ops = record["operations"]
        print(f"{name}  (kernel tier {record.get('kernel_tier')}; "
              f"{ops['attempted']} operations, {ops['failed']} failed)")
        for failure in ops["failures"]:
            print(f"    FAILED  {failure}")
        for section in ("end_to_end", "per_layer"):
            for metric_name, entry in record.get(section, {}).items():
                value = entry["value"]
                shown = "unresolved" if value is None else f"{value:.6g}"
                note = ""
                if metric_name in record["unresolved"]:
                    note = "  unresolved: fewer than 2 CPUs"
                elif "measured" in entry:
                    note = (f"  (the clock read {entry['measured']:.6g}; "
                            f"spread {entry['spread']:.3f}"
                            + (f" over {entry['samples']} samples"
                               if "samples" in entry else "") + ")")
                print(f"    {metric_name:38s} {shown:>14s} {entry['unit']}"
                      f"{note}")
        tail = record.get("end_to_end", {}).get("entries_per_s", {}).get(
            "call_wall_tail")
        if tail:
            print(f"    call wall p{tail['percentile']:g} "
                  f"{tail['value']:.6g} s")
        if "loss_exact_match" in record:
            print(f"    loss_exact_match: {record['loss_exact_match']}")
        for probe, reason in record.get("unresolved_probes", {}).items():
            print(f"    unresolved probe {probe}: {reason}")


def contract_line(record: Dict[str, Any], section: str,
                  contract: Dict[str, Any]) -> str:
    """The driver's result line.  It must carry every metric of the
    section as a number, so what the result leaves out is filled in here
    and only here: ``virtual_epoch_s`` of a real-clock workload reads its
    simulated twin's, a per-layer metric that does not apply reads 0."""
    ops = record["operations"]
    metrics = {}
    for definition in contract[section]:
        name = definition["name"]
        value = record[section].get(name, {}).get("value")
        if value is None and name == "virtual_epoch_s":
            value = record.get("simulated_twin_epoch_s")
        metrics[name] = {"value": value or 0, "unit": definition["unit"]}
    return json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": metrics,
    })


def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    """One row per workload x end-to-end metric; exit 1 on ``worse``."""
    with open(path_a) as handle:
        runs_a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        runs_b = json.load(handle)["workloads"]
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for name, spec in WORKLOADS.items():
        run_a, run_b = runs_a.get(name, {}), runs_b.get(name, {})
        for definition in contract["end_to_end"]:
            key, bound = definition["name"], definition["bound"]
            if not spec.measures(key):
                continue
            a = run_a.get("end_to_end", {}).get(key, {})
            b = run_b.get("end_to_end", {}).get(key, {})
            value_a, value_b = a.get("value"), b.get("value")
            if value_a is None or value_b is None:
                # Missing on one side (e.g. a loss target not reached).
                status = "unresolved"
                value_a = value_b = change = float("nan")
            else:
                change = (value_b - value_a) / value_a
                if definition["better"] == "higher":
                    change = -change
                if key in run_a["unresolved"] + run_b["unresolved"]:
                    # A 2-worker wall clock measured on fewer than 2 CPUs.
                    status = "unresolved"
                elif max(a["spread"], b["spread"]) > bound:
                    # The samples each value is the median of spread by
                    # more than the bound: this pair cannot tell.
                    status = "unresolved"
                else:
                    status = "worse" if change > bound else "ok"
            counts[status] += 1
            print(f"{name:10s} {key:16s} "
                  f"{value_a:>14.6g} {value_b:>14.6g} "
                  f"{definition['unit']:10s} worse by {change:+.3f} "
                  f"(bound {bound:g}, spreads {a.get('spread', 0):.3f} "
                  f"{b.get('spread', 0):.3f})  {status}")
    print(", ".join(f"{count} {status}" for status, count in counts.items()))
    return 1 if counts["worse"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = (0, 1) if args.trace is None else (args.trace,)
    warm_import()
    results: Dict[str, Any] = {
        "schema": "layered-bench/1",
        "host": host_metadata(args.seed, args.smoke, seconds),
        "workloads": {},
    }
    for name in names:  # strictly one after another
        results["workloads"][name] = run_workload(
            WORKLOADS[name], args.seed, args.smoke, seconds, passes,
            contract, results["host"]["cpus"],
        )
    results["claim"] = None

    print_table(results)
    driver_mode = args.workload is not None and args.trace is not None
    out = args.out
    if out is None and not args.smoke and not driver_mode:
        out = str(HERE / "results" / "layered.json")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
        print(f"wrote {out}")
    if driver_mode:
        section = "per_layer" if args.trace else "end_to_end"
        print(contract_line(
            results["workloads"][args.workload], section, contract
        ))
    else:
        summary = {
            name: record["operations"]
            for name, record in results["workloads"].items()
        }
        print(json.dumps({"operations": summary, "claim": None}))
    failed = sum(
        record["operations"]["failed"]
        for record in results["workloads"].values()
    )
    return 1 if failed and not driver_mode else 0


if __name__ == "__main__":
    raise SystemExit(main())
