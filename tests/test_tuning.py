"""The trace-driven adaptive auto-tuner (docs/tuning.md).

Contract under test:

* ``tune="off"`` (the default) never imports :mod:`repro.tuning` and is
  bit-identical to the historical path;
* ``tune="auto"`` only applies plan-proven-legal adjustments, so final
  parameters stay bit-identical to the untuned run on every backend;
* the tuner is deterministic: same loop, same decisions, same times;
* the winning configuration round-trips through the run store's
  ``tuning.json`` and seeds a ``tune="cached"`` run from epoch 1;
* a mistuned ``pipeline_depth=1`` SGD MF run recovers to within 5% of
  the best fixed configuration by epoch 3 on the virtual clock;
* ``pipeline_depth="auto"`` resolves to a concrete depth surfaced by
  ``run_summary()``;
* the legacy bare-kwarg tail of ``parallel_for`` warns, options-first
  calls do not;
* ``repro perf`` grouping keeps tuned runs from aliasing untuned
  baselines.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps import MFHyper, build_sgd_mf
from repro.apps.sgd_mf import mf_cost_model
from repro.data import netflix_like
from repro.errors import ExecutionError
from repro.obs import RunStore, check_store
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

HYPER = MFHyper(rank=4, step_size=0.05)


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=60, num_cols=50, num_ratings=1500, seed=5)


def _cluster() -> ClusterSpec:
    # Few workers, expensive inter-machine rotation: the regime where
    # pipeline depth genuinely matters (and the model scan can prove it).
    return ClusterSpec(
        num_machines=4, workers_per_machine=1, cost=mf_cost_model(HYPER)
    )


def _tuned_program(dataset, tune, store, backend="simulated", depth=1):
    return build_sgd_mf(
        dataset,
        cluster=_cluster(),
        hyper=HYPER,
        seed=3,
        options=LoopOptions(
            pipeline_depth=depth, tune=tune, run_store=store, backend=backend
        ),
    )


# ---------------------------------------------------------------------------
# tune="off": the disabled path


def test_tune_off_never_imports_tuning_package(tmp_path):
    """The default path must not even load repro.tuning (cold-start cost,
    and proof the historical path is untouched).  Subprocess so this
    test's verdict can't depend on import order elsewhere in the suite."""
    script = (
        "import sys\n"
        "from repro.apps import MFHyper, build_sgd_mf\n"
        "from repro.data import netflix_like\n"
        "from repro.runtime.cluster import ClusterSpec\n"
        "data = netflix_like(num_rows=30, num_cols=24, num_ratings=400, "
        "seed=1)\n"
        "program = build_sgd_mf(data, cluster=ClusterSpec(num_machines=1, "
        "workers_per_machine=2), hyper=MFHyper(rank=2))\n"
        "program.train_loop.run(1)\n"
        "assert not any(m.startswith('repro.tuning') for m in sys.modules), "
        "'repro.tuning imported on the tune=off path'\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("backend", ["simulated", "threaded", "multiprocess"])
def test_tune_auto_bit_identical_to_off(mf_data, tmp_path, backend):
    """Whatever the tuner does, final parameters match the untuned run
    bitwise — on the virtual-clock backends (model-scan re-tiling) and
    the real-clock multiprocess backend (hill-climb) alike."""
    tuned = _tuned_program(mf_data, "auto", str(tmp_path), backend=backend)
    tuned.train_loop.run(3)
    untuned = _tuned_program(mf_data, "off", None, backend=backend)
    untuned.train_loop.run(3)
    assert np.array_equal(
        tuned.arrays["W"].values, untuned.arrays["W"].values
    )
    assert np.array_equal(
        tuned.arrays["H"].values, untuned.arrays["H"].values
    )
    # And the tuner did something worth testing.
    assert tuned.train_loop.tuning() is not None
    assert untuned.train_loop.tuning() is None


# ---------------------------------------------------------------------------
# determinism


def test_tuner_is_deterministic(mf_data, tmp_path):
    """Same loop, same trace, same decisions — twice."""
    trails = []
    times = []
    for run in range(2):
        store = str(tmp_path / f"store{run}")
        program = _tuned_program(mf_data, "auto", store)
        results = program.train_loop.run(4)
        tuner = program.train_loop.tuning()
        trails.append(
            [
                (d.epoch, d.knob, d.old, d.new, d.applied, d.reason)
                for d in tuner.decisions
            ]
        )
        times.append([r.epoch_time_s for r in results])
    assert trails[0] == trails[1]
    assert times[0] == times[1]
    assert any(d[4] for d in trails[0]), "expected at least one applied decision"


# ---------------------------------------------------------------------------
# the cross-run cache


def test_cache_round_trip_and_cached_seeding(mf_data, tmp_path):
    store = str(tmp_path)
    first = _tuned_program(mf_data, "auto", store)
    first_results = first.train_loop.run(4)
    tuner = first.train_loop.tuning()
    applied = [d for d in tuner.decisions if d.applied]
    assert applied, "tuner found nothing on the canonical workload"

    cache_path = os.path.join(store, "tuning.json")
    assert os.path.exists(cache_path)
    with open(cache_path) as handle:
        payload = json.load(handle)
    [(signature, entry)] = payload["entries"].items()
    assert signature == tuner.signature
    depth_decisions = [d for d in applied if d.knob == "pipeline_depth"]
    assert entry["config"]["pipeline_depth"] == depth_decisions[-1].new
    assert entry["clock"] == "virtual"

    # Second run only *reads* the cache and starts at the winner.
    second = _tuned_program(mf_data, "cached", store)
    assert second.train_loop.tuning().seeded  # seeded before any epoch
    second_results = second.train_loop.run(2)
    steady = first_results[-1].epoch_time_s
    assert second_results[0].epoch_time_s == pytest.approx(steady, rel=1e-9)
    # cached mode adapts nothing and writes nothing new
    assert not [
        d for d in second.train_loop.tuning().decisions if d.epoch > 0
    ]
    with open(cache_path) as handle:
        assert json.load(handle) == payload

    # The cache key ignores the tuned knobs: a differently-mistuned run
    # maps to the same entry.
    third = _tuned_program(mf_data, "cached", store, depth=2)
    assert third.train_loop.tuning().signature == signature


# ---------------------------------------------------------------------------
# the acceptance bar: recovery from a mistuned depth


def test_mistuned_mf_recovers_within_three_epochs(mf_data, tmp_path):
    """From pipeline_depth=1, tune="auto" must reach within 5% of the
    best fixed configuration's epoch makespan by epoch 3 (virtual
    clock), with numerics bit-identical to the untuned run."""
    fixed = {}
    for depth in (1, 2, 4, 8, 16):
        program = _tuned_program(mf_data, "off", None, depth=depth)
        results = program.train_loop.run(2)
        fixed[depth] = results[-1].epoch_time_s
    best = min(fixed.values())

    tuned = _tuned_program(mf_data, "auto", str(tmp_path), depth=1)
    results = tuned.train_loop.run(3)
    assert results[0].epoch_time_s == pytest.approx(fixed[1], rel=1e-9)
    assert results[2].epoch_time_s <= best * 1.05
    assert fixed[1] > best * 1.05, (
        "depth 1 is not actually mistuned on this workload; "
        "the recovery assertion above proved nothing"
    )


def test_tune_smoke_cli_exit_code(tmp_path):
    """`repro tune mf` is the acceptance check as a CLI: exit 0 iff the
    tuned run converges (it drives `make tune-smoke`)."""
    from repro.cli import main

    class _Sink:
        def write(self, _text):
            return None

    store = str(tmp_path / "store")
    assert main(
        ["tune", "mf", "--depth", "1", "--epochs", "4", "--store", store,
         "--scale", "0.5"],
        out=_Sink(),
    ) == 0
    assert main(
        ["tune", "mf", "--depth", "1", "--epochs", "3", "--store", store,
         "--scale", "0.5", "--mode", "cached"],
        out=_Sink(),
    ) == 0


# ---------------------------------------------------------------------------
# legality and mode validation


def test_tune_rejects_fault_injection(mf_data, tmp_path):
    from repro.faults.plan import FaultPlan

    with pytest.raises(ExecutionError, match="fault injection"):
        build_sgd_mf(
            mf_data,
            cluster=_cluster(),
            hyper=HYPER,
            options=LoopOptions(
                tune="auto",
                run_store=str(tmp_path),
                faults=FaultPlan.from_spec(
                    "seed=1,crashes=1", epochs=2, num_workers=4
                ),
            ),
        )


def test_invalid_tune_mode_rejected(mf_data):
    with pytest.raises(ExecutionError, match="tune"):
        build_sgd_mf(
            mf_data, cluster=_cluster(), hyper=HYPER,
            options=LoopOptions(tune="aggressive"),
        )


def test_illegal_retune_is_refused_not_fatal(mf_data):
    """Direct executor contract: a depth the plan can't tile (or that
    would move a worker's rotation start cut) raises ExecutionError and
    leaves the previous configuration fully intact."""
    program = _tuned_program(mf_data, "off", None, depth=2)
    loop = program.train_loop
    before = loop.run(1)[-1].epoch_time_s
    executor = loop.executor
    old_depth = executor.pipeline_depth
    with pytest.raises(ExecutionError):
        executor.retune(pipeline_depth=10_000)
    assert executor.pipeline_depth == old_depth
    after = loop.run(1)[-1].epoch_time_s
    assert after == pytest.approx(before, rel=1e-9)


# ---------------------------------------------------------------------------
# pipeline_depth="auto" and run_summary


def test_pipeline_depth_auto_resolves(mf_data):
    program = build_sgd_mf(
        mf_data, cluster=_cluster(), hyper=HYPER,
        options=LoopOptions(pipeline_depth="auto"),
    )
    loop = program.train_loop
    loop.run(1)
    summary = loop.run_summary()
    assert summary["requested"]["pipeline_depth"] == "auto"
    resolved = summary["resolved"]["pipeline_depth"]
    assert isinstance(resolved, int) and resolved >= 1


# ---------------------------------------------------------------------------
# the options-first API


def test_app_builders_are_warning_free(mf_data, tmp_path):
    """The builders reach parallel_for options-first even when driven
    through per-knob builder kwargs."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build_sgd_mf(
            mf_data, cluster=_cluster(), hyper=HYPER,
            pipeline_depth=2, run_store=str(tmp_path),
        )


# ---------------------------------------------------------------------------
# run-store grouping (the `repro perf compare` aliasing fix)


def test_perf_grouping_separates_tuned_from_untuned(mf_data, tmp_path):
    store = str(tmp_path)
    for _ in range(2):
        program = _tuned_program(mf_data, "off", store)
        program.train_loop.run(3)
    tuned = _tuned_program(mf_data, "auto", store)
    tuned.train_loop.run(3)

    records = RunStore(store).load()
    assert len(records) == 3
    assert records[0].signature == records[1].signature
    assert records[2].tuning and not records[0].tuning

    # The tuned run re-shapes its epoch timeline; were it grouped with
    # the untuned baselines, `repro perf check` would compare apples to
    # oranges.  It must sit in its own (single-record, hence skipped)
    # group: exactly one verdict, comparing the two untuned runs.
    verdicts = check_store(records)
    assert len(verdicts) == 1
    assert not verdicts[0].regressed
