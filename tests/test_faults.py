"""The repro.faults subsystem: deterministic injection, recovery, options.

Covers the fault-injection contract end to end:

* determinism — identical plans produce identical timing and traffic;
* the chaos property — faults cost virtual time, never data: any fault
  plan leaves final parameters bit-identical to the fault-free run;
* crash recovery — replay from the latest complete checkpoint (or the
  initial snapshot) converges to the fault-free state;
* straggler slowdowns, manifest completeness;
* the LoopOptions / Observability API consolidation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import OrionContext
from repro.apps import MFHyper, build_sgd_mf
from repro.baselines import run_bosen
from repro.data import netflix_like
from repro.errors import FaultError
from repro.faults import (
    FaultPlan,
    RecoveryCosts,
    Straggler,
    WorkerCrash,
)
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.runtime.checkpoint import (
    CheckpointConfig,
    checkpoint_arrays,
    latest_complete_tag,
    manifest_meta,
    manifest_path,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def mf_data():
    return netflix_like(num_rows=24, num_cols=20, num_ratings=420, seed=5)


@pytest.fixture
def cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _program(mf_data, cluster, options=None):
    return build_sgd_mf(
        mf_data, cluster=cluster, hyper=MFHyper(rank=4, step_size=0.05),
        seed=7, options=options,
    )


def _final_state(program):
    return {
        name: program.arrays[name].values.copy() for name in ("W", "H")
    }


def _states_equal(a, b):
    return all(np.array_equal(a[name], b[name]) for name in a)


# --------------------------------------------------------------------- #
# Plans: construction, determinism, parsing                              #
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(seed=11, epochs=6, num_workers=4, crashes=2,
                             stragglers=1)
        b = FaultPlan.random(seed=11, epochs=6, num_workers=4, crashes=2,
                             stragglers=1)
        assert a.crashes == b.crashes
        assert a.stragglers == b.stragglers

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=7,crashes=1,stragglers=1,slowdown=3.0",
            epochs=4, num_workers=4,
        )
        seeded = FaultPlan.random(seed=7, epochs=4, num_workers=4,
                                  crashes=1, stragglers=1)
        assert plan.crashes == seeded.crashes
        assert plan.stragglers == seeded.stragglers
        assert len(plan.crashes) == 1
        assert len(plan.stragglers) == 1

    def test_from_spec_unknown_key(self):
        with pytest.raises(FaultError):
            FaultPlan.from_spec("bogus=1", epochs=2, num_workers=2)

    def test_crash_validation(self):
        with pytest.raises(FaultError):
            WorkerCrash(worker=0)  # neither at_s nor epoch
        with pytest.raises(FaultError):
            WorkerCrash(worker=0, at_s=1.0, epoch=2)  # both

    def test_claim_crash_fires_once(self):
        plan = FaultPlan(crashes=(WorkerCrash(worker=1, epoch=2),))
        assert plan.claim_crash(1, 0.0, 1.0) is None
        fired = plan.claim_crash(2, 1.0, 2.0)
        assert fired is not None
        assert fired.at_s == pytest.approx(1.5)
        assert plan.claim_crash(2, 2.0, 3.0) is None  # one-shot
        plan.reset()
        assert plan.claim_crash(2, 1.0, 2.0) is not None

    def test_straggle_factors_window_overlap(self):
        plan = FaultPlan(
            stragglers=(Straggler(worker=0, slowdown=3.0, t_start=0.5,
                                  t_end=1.0),)
        )
        # Epoch fully inside the window: full slowdown.
        assert plan.straggle_factors(1, 0.5, 1.0)[0] == pytest.approx(3.0)
        # Half overlap: factor interpolates.
        partial = plan.straggle_factors(1, 0.25, 0.75)[0]
        assert 1.0 < partial < 3.0
        # Disjoint: no factor.
        assert 0 not in plan.straggle_factors(1, 2.0, 3.0)


# --------------------------------------------------------------------- #
# Options / Observability consolidation                                  #
# --------------------------------------------------------------------- #


class TestLoopOptions:
    def test_merged_with_overrides_only_what_is_passed(self):
        opts = LoopOptions(ordered=True, pipeline_depth=3)
        merged = opts.merged_with(validate=True)
        assert merged.ordered is True
        assert merged.pipeline_depth == 3
        assert merged.validate is True

    def test_bare_knob_is_a_type_error(self, mf_data, cluster):
        # One spelling: a loop knob handed to a builder outside `options`
        # is Python's own TypeError, not a second way in.
        with pytest.raises(TypeError, match="pipeline_depth"):
            build_sgd_mf(mf_data, cluster=cluster, pipeline_depth=4)

    def test_observability_resolution(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        obs = Observability(tracer=tracer, metrics=metrics)
        # The bundle wins.
        r = Observability.resolve(obs=obs, default=Observability.enabled())
        assert r.tracer is tracer and r.metrics is metrics
        # Without one, the default (a context's pair).
        r = Observability.resolve(default=obs)
        assert r.tracer is tracer and r.metrics is metrics
        # Nothing: the disabled singletons.
        r = Observability.resolve()
        assert not r.enabled_any

    def test_context_obs_kwarg(self, cluster):
        obs = Observability.enabled()
        ctx = OrionContext(cluster=cluster, obs=obs)
        assert ctx.tracer is obs.tracer
        assert ctx.metrics is obs.metrics


# --------------------------------------------------------------------- #
# Orion executor: determinism, recovery, accounting                      #
# --------------------------------------------------------------------- #


class TestOrionFaults:
    def test_no_fault_options_bit_identical(self, mf_data, cluster):
        plain = _program(mf_data, cluster)
        opted = _program(mf_data, cluster, LoopOptions())
        h1, h2 = plain.run(3), opted.run(3)
        assert [r.time_s for r in h1.records] == [r.time_s for r in h2.records]
        assert _states_equal(_final_state(plain), _final_state(opted))

    def test_fault_run_is_deterministic(self, mf_data, cluster):
        def run():
            plan = FaultPlan(
                crashes=(WorkerCrash(worker=1, epoch=2, frac=0.4),),
            )
            program = _program(mf_data, cluster, LoopOptions(faults=plan))
            history = program.run(4)
            return history, _final_state(program)

        h1, s1 = run()
        h2, s2 = run()
        assert [r.time_s for r in h1.records] == [r.time_s for r in h2.records]
        assert _states_equal(s1, s2)

    def test_crash_recovery_matches_fault_free(self, mf_data, cluster,
                                               tmp_path):
        clean = _program(mf_data, cluster)
        clean_history = clean.run(5)

        plan = FaultPlan(crashes=(WorkerCrash(worker=0, epoch=4, frac=0.5),))
        ckpt = CheckpointConfig(directory=str(tmp_path), every_n_epochs=2)
        program = _program(
            mf_data, cluster, LoopOptions(faults=plan, checkpoint=ckpt)
        )
        history = program.run(5)

        # Same final parameters, same loss curve values, more virtual time.
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.final_loss == pytest.approx(clean_history.final_loss)
        assert history.total_time_s > clean_history.total_time_s
        assert history.meta["recoveries"] == 1
        # The crash at epoch 4 replayed from the epoch-2 checkpoint.
        assert latest_complete_tag(str(tmp_path)) is not None

    def test_crash_before_first_checkpoint(self, mf_data, cluster):
        clean = _program(mf_data, cluster)
        clean.run(3)

        plan = FaultPlan(crashes=(WorkerCrash(worker=1, epoch=1, frac=0.2),))
        program = _program(mf_data, cluster, LoopOptions(faults=plan))
        history = program.run(3)
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.meta["recoveries"] == 1

    def test_straggler_inflates_epoch(self, mf_data, cluster):
        clean = _program(mf_data, cluster)
        clean_history = clean.run(3)

        plan = FaultPlan(
            stragglers=(Straggler(worker=0, slowdown=4.0, epoch=2),)
        )
        program = _program(mf_data, cluster, LoopOptions(faults=plan))
        history = program.run(3)
        assert _states_equal(_final_state(clean), _final_state(program))
        # Only epoch 2 slows down.
        assert history.records[0].epoch_time_s == pytest.approx(
            clean_history.records[0].epoch_time_s
        )
        assert (
            history.records[1].epoch_time_s
            > clean_history.records[1].epoch_time_s
        )

    def test_fault_spans_and_metrics(self, mf_data, cluster, tmp_path):
        obs = Observability.enabled()
        plan = FaultPlan(crashes=(WorkerCrash(worker=0, epoch=2, frac=0.5),))
        ckpt = CheckpointConfig(directory=str(tmp_path), every_n_epochs=1)
        program = _program(
            mf_data, cluster,
            LoopOptions(faults=plan, checkpoint=ckpt, obs=obs),
        )
        program.run(3)
        cats = {span.cat for span in obs.tracer.spans}
        assert "fault" in cats
        assert "recovery" in cats
        assert "checkpoint" in cats
        snapshot = obs.metrics.snapshot()
        assert snapshot["worker_crashes_total"] == 1
        assert snapshot["recoveries_total"] == 1
        assert snapshot["checkpoints_total"] >= 1


# --------------------------------------------------------------------- #
# Checkpoint manifests                                                   #
# --------------------------------------------------------------------- #


class TestManifests:
    def _array(self, ctx, name):
        array = ctx.randn(4, 4, name=name)
        ctx.materialize(array)
        return array

    def test_latest_complete_skips_partial(self, cluster, tmp_path):
        ctx = OrionContext(cluster=cluster, seed=1)
        array = self._array(ctx, "A")
        checkpoint_arrays([array], str(tmp_path), "epoch2",
                          meta={"epoch": 2})
        checkpoint_arrays([array], str(tmp_path), "epoch4",
                          meta={"epoch": 4})
        # Corrupt epoch4: manifest present but an array file missing.
        import json
        import os

        with open(manifest_path(str(tmp_path), "epoch4")) as handle:
            manifest = json.load(handle)
        victim = next(iter(manifest["files"].values()))
        os.remove(os.path.join(str(tmp_path), victim))
        assert latest_complete_tag(str(tmp_path)) == "epoch2"
        assert manifest_meta(str(tmp_path), "epoch2")["epoch"] == 2

    def test_latest_complete_orders_by_epoch(self, cluster, tmp_path):
        ctx = OrionContext(cluster=cluster, seed=1)
        array = self._array(ctx, "A")
        # Written out of lexicographic order: epoch10 > epoch9 numerically.
        checkpoint_arrays([array], str(tmp_path), "epoch9",
                          meta={"epoch": 9})
        checkpoint_arrays([array], str(tmp_path), "epoch10",
                          meta={"epoch": 10})
        assert latest_complete_tag(str(tmp_path)) == "epoch10"


# --------------------------------------------------------------------- #
# Baselines                                                              #
# --------------------------------------------------------------------- #


class TestBosenFaults:
    def _app(self, mf_data):
        from repro.apps import SGDMFApp

        return SGDMFApp(mf_data, MFHyper(rank=4, step_size=0.05))

    def test_no_fault_bit_identical(self, mf_data, cluster):
        app = self._app(mf_data)
        h1 = run_bosen(app, cluster, epochs=3, seed=2)
        app2 = self._app(mf_data)
        h2 = run_bosen(app2, cluster, epochs=3, seed=2, faults=None)
        assert [r.loss for r in h1.records] == [r.loss for r in h2.records]
        assert [r.time_s for r in h1.records] == [r.time_s for r in h2.records]

    def test_crash_recovery_matches_fault_free(self, mf_data, cluster):
        app = self._app(mf_data)
        clean = run_bosen(app, cluster, epochs=4, seed=2)

        plan = FaultPlan(crashes=(WorkerCrash(worker=1, epoch=3, frac=0.5),))
        app2 = self._app(mf_data)
        faulted = run_bosen(app2, cluster, epochs=4, seed=2, faults=plan,
                            ckpt_every=2)
        assert faulted.meta["recoveries"] == 1
        assert faulted.final_loss == pytest.approx(clean.final_loss)
        for name, value in clean.meta["state"].items():
            assert np.array_equal(value, faulted.meta["state"][name])
        assert faulted.total_time_s > clean.total_time_s

    def test_stragglers_cost_time(self, mf_data, cluster):
        app = self._app(mf_data)
        clean = run_bosen(app, cluster, epochs=3, seed=2)
        plan = FaultPlan(
            stragglers=(Straggler(worker=0, slowdown=3.0, epoch=1),),
        )
        app2 = self._app(mf_data)
        faulted = run_bosen(app2, cluster, epochs=3, seed=2, faults=plan)
        assert faulted.final_loss == pytest.approx(clean.final_loss)
        assert faulted.total_time_s > clean.total_time_s


class TestCLI:
    def test_faults_smoke(self, mf_data, tmp_path, capsys):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "mf", "--engine", "orion", "--epochs", "4",
                "--scale", "0.2",
                "--faults", "seed=5,crashes=1",
                "--ckpt-every", "2", "--ckpt-dir", str(tmp_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "crash recoveries: 1" in text

    def test_faults_bosen_smoke(self, tmp_path):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            [
                "mf", "--engine", "bosen", "--epochs", "3",
                "--scale", "0.2", "--faults", "seed=1,stragglers=1",
            ],
            out=out,
        )
        assert code == 0

    @pytest.mark.parametrize("spec", ["bogus=1", "drops=0.05"])
    def test_bad_spec_is_one_line(self, spec, capsys):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(["mf", "--epochs", "1", "--faults", spec], out=out)
        assert code == 2
        text = out.getvalue()
        assert text.startswith("bad --faults spec: ")
        assert text.count("\n") == 1
        for key in ("crashes", "seed", "slowdown", "stragglers"):
            assert key in text
        assert "Traceback" not in text + capsys.readouterr().err


# --------------------------------------------------------------------- #
# Chaos property                                                         #
# --------------------------------------------------------------------- #


class TestChaos:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crashes=st.integers(min_value=0, max_value=2),
        stragglers=st.integers(min_value=0, max_value=1),
    )
    def test_random_faults_never_corrupt_state(self, seed, crashes,
                                               stragglers):
        mf_data = netflix_like(num_rows=16, num_cols=12, num_ratings=160,
                               seed=3)
        cluster = ClusterSpec(num_machines=2, workers_per_machine=2)
        epochs = 3

        clean = _program(mf_data, cluster)
        clean_history = clean.run(epochs)

        plan = FaultPlan.random(
            seed=seed, epochs=epochs, num_workers=cluster.num_workers,
            crashes=crashes, stragglers=stragglers,
        )
        program = _program(mf_data, cluster, LoopOptions(faults=plan))
        history = program.run(epochs)

        # Faults cost virtual time, never data.
        assert _states_equal(_final_state(clean), _final_state(program))
        assert history.final_loss == pytest.approx(clean_history.final_loss)
        assert history.total_time_s >= clean_history.total_time_s
        assert math.isfinite(history.total_time_s)
