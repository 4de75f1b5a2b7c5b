"""Tests for run persistence and regression detection (repro.obs.runstore).

Covers the RunRecord JSONL round trip, the loop signature (stable for
identical configurations, deliberately blind to fault plans), opt-in
recording through ``LoopOptions.run_store`` (bit-identical when off),
noise-aware regression verdicts, and the ``repro perf`` CLI.
"""

import io
import json
import sys

import numpy as np
import pytest

from repro.apps import MFHyper, build_sgd_mf
from repro.faults.plan import FaultPlan, Straggler
from repro.obs.runstore import (
    RunRecord,
    RunStore,
    check_store,
    compare_records,
    loop_signature,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


def _program(mf_small, cluster=None, **option_kwargs):
    cluster = cluster or ClusterSpec(num_machines=2, workers_per_machine=2)
    return build_sgd_mf(
        mf_small, cluster=cluster, hyper=MFHyper(rank=4), seed=3,
        options=LoopOptions(**option_kwargs),
    )


def _dense_arrays(program):
    return {
        name: array
        for name, array in program.arrays.items()
        if getattr(array, "_dense", None) is not None
    }


def _record(total_s=1.0, epochs=1, **overrides):
    fields = dict(
        label="mf:orion",
        signature="abcd1234",
        backend="simulated",
        clock="virtual",
        kernel_tier="hand",
        epochs=[
            {"epoch": i + 1, "epoch_time_s": total_s / epochs}
            for i in range(epochs)
        ],
    )
    fields.update(overrides)
    return RunRecord(**fields)


class TestRecording:
    def test_run_store_option_records_each_run(self, mf_small, tmp_path):
        store = RunStore(tmp_path / "rs")
        program = _program(mf_small, run_store=store, run_label="mf:test")
        program.run(2)
        records = store.load()
        assert len(records) == 2  # one loop.run() per pass
        first, second = records
        assert first.label == second.label == "mf:test"
        assert first.signature == second.signature
        assert (first.first_epoch, second.first_epoch) == (1, 2)
        for record in records:
            assert record.backend == "simulated"
            assert record.clock == "virtual"
            assert record.kernel_tier in ("scalar", "hand", "synth:vector",
                                          "synth:block-loop")
            assert record.total_time_s > 0
            assert record.plan["num_workers"] == 4
            assert not record.faulted

    def test_store_resolves_from_path_and_true(self, tmp_path):
        assert RunStore.resolve(True).root == RunStore().root
        assert RunStore.resolve(tmp_path / "x").root == tmp_path / "x"
        store = RunStore(tmp_path)
        assert RunStore.resolve(store) is store

    def test_disabled_recording_is_bit_identical(self, mf_small, tmp_path):
        plain = _program(mf_small)
        recorded = _program(
            mf_small, run_store=RunStore(tmp_path / "rs")
        )
        plain.run(2)
        recorded.run(2)
        for name, array in _dense_arrays(plain).items():
            assert np.array_equal(
                array.values, _dense_arrays(recorded)[name].values
            ), f"{name}: recording changed the results"

    def test_multiprocess_record_uses_real_clock(self, mf_small, tmp_path):
        store = RunStore(tmp_path / "rs")
        cluster = ClusterSpec(num_machines=1, workers_per_machine=2)
        program = _program(
            mf_small, cluster=cluster, run_store=store,
            backend="multiprocess",
        )
        try:
            program.run(1)
        finally:
            program.close()
        (record,) = store.load()
        assert record.backend == "multiprocess"
        assert record.clock == "real"
        assert record.runner["num_workers"] == 2


class TestRoundTrip:
    def test_json_round_trip(self, mf_small, tmp_path):
        store = RunStore(tmp_path / "rs")
        program = _program(mf_small, run_store=store)
        program.run(1)
        (record,) = store.load()
        payload = json.loads(json.dumps(record.to_json()))
        assert RunRecord.from_json(payload) == record

    def test_unknown_fields_are_ignored(self):
        payload = _record().to_json()
        payload["from_the_future"] = {"schema": 99}
        assert RunRecord.from_json(payload) == _record()
        # A v1 record written while the tuner existed: its top-level
        # ``tuning`` field is dropped, ``options["tune"]`` rides along in
        # the options dict, and it groups with a fresh record of the loop.
        payload["tuning"] = {"mode": "auto", "decisions": [{"epoch": 1}]}
        payload["options"] = {"tune": "auto"}
        old = RunRecord.from_json(payload)
        assert old == _record(options={"tune": "auto"})
        (verdict,) = check_store([old, _record()])
        assert verdict.num_baselines == 1 and not verdict.regressed

    def test_torn_and_incomplete_lines_are_skipped(self, tmp_path):
        """``append`` is a plain write: a run killed mid-append leaves a
        torn last line, which must not take the whole store down."""
        store = RunStore(tmp_path / "rs")
        store.append(_record())
        with store.path.open("a") as handle:
            handle.write('{"label": "x", "signature": "abc"\n')  # torn
            handle.write('{"label": "x", "signature": "abc"}\n')  # partial
            handle.write("[1, 2]\n")  # decodes, but is no record
            handle.write('{"label": "y", "signa')  # torn, no newline
        store.append(_record(total_s=2.0))  # must not be glued to it
        assert store.load() == [_record(), _record(total_s=2.0)]
        assert store.unreadable == [2, 3, 4, 5]


class TestSignature:
    def test_stable_across_identical_builds(self, mf_small):
        a = _program(mf_small).train_loop
        b = _program(mf_small).train_loop
        assert loop_signature(a) == loop_signature(b)

    @pytest.mark.skipif(
        not (3, 9) <= sys.version_info[:2] <= (3, 12),
        reason="the hex pins ast.dump's 3.9-3.12 output format",
    )
    def test_signature_survived_the_tuner_deletion(self, mf_small):
        """Pinned at the last commit that had ``LoopOptions.tune``: the
        payload never contained it, so recorded baselines keep matching."""
        loop = _program(mf_small).train_loop
        assert loop_signature(loop) == "923b330199b556aa"

    def test_excludes_fault_plan(self, mf_small):
        clean = _program(mf_small).train_loop
        slowed = _program(
            mf_small,
            faults=FaultPlan(
                stragglers=[Straggler(worker=0, epoch=1, slowdown=2.0)]
            ),
        ).train_loop
        assert loop_signature(clean) == loop_signature(slowed)

    def test_sensitive_to_cluster_size(self, mf_small):
        small = _program(mf_small).train_loop
        big = _program(
            mf_small,
            cluster=ClusterSpec(num_machines=4, workers_per_machine=2),
        ).train_loop
        assert loop_signature(small) != loop_signature(big)


class TestVerdicts:
    def test_identical_runs_pass(self):
        verdict = compare_records(_record(1.0), _record(1.0))
        assert not verdict.regressed
        assert verdict.ratio == 1.0

    def test_two_x_slowdown_is_flagged(self):
        verdict = compare_records(_record(1.0), _record(2.0))
        assert verdict.regressed
        assert "REGRESSION" in verdict.describe()

    def test_improvement_is_not_a_regression(self):
        verdict = compare_records(_record(1.0), _record(0.5))
        assert not verdict.regressed
        assert verdict.improved

    def test_signature_and_fault_notes(self):
        verdict = compare_records(
            _record(1.0), _record(1.0, signature="ffff0000", faulted=True)
        )
        assert any("signatures differ" in note for note in verdict.notes)
        assert any("fault injection" in note for note in verdict.notes)

    def test_check_store_groups_and_flags(self):
        clean = [_record(1.0), _record(1.0)]
        verdicts = check_store(clean)
        assert len(verdicts) == 1 and not verdicts[0].regressed
        (verdict,) = check_store(clean + [_record(2.0)])
        assert verdict.regressed
        assert verdict.num_baselines == 2

    def test_check_store_separates_clocks_and_epochs(self):
        records = [
            _record(1.0),
            _record(2.0, clock="real"),
            _record(2.0, first_epoch=2),
        ]
        # Three singleton groups: nothing to compare, nothing flagged.
        assert check_store(records) == []

    def test_noise_margin_widens_with_spread(self):
        # Baselines spread 0.8..1.2 around median 1.0: the default
        # noise factor 2.0 stretches the allowed ratio to 1.8.
        baselines = [_record(0.8), _record(1.0), _record(1.2)]
        verdicts = check_store(baselines + [_record(1.5)])
        assert not verdicts[0].regressed
        verdicts = check_store(baselines + [_record(2.0)])
        assert verdicts[0].regressed


class TestPerfCli:
    def _run(self, argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_end_to_end_regression_detection(self, tmp_path):
        store = str(tmp_path / "rs")
        base = ["slr", "--engine", "orion", "--epochs", "2",
                "--scale", "0.2", "--run-store", store]
        assert self._run(base)[0] == 0
        assert self._run(base)[0] == 0

        code, text = self._run(["perf", "show", "--store", store])
        assert code == 0 and "slr:orion" in text

        code, text = self._run(["perf", "compare", "--store", store])
        assert code == 0 and "per-epoch" in text

        code, text = self._run(["perf", "check", "--store", store])
        assert code == 0 and "REGRESSION" not in text

        assert self._run(base + ["--slow-factor", "2.5"])[0] == 0
        code, text = self._run(["perf", "check", "--store", store])
        assert code == 1 and "REGRESSION" in text

    def test_empty_store_behaviors(self, tmp_path):
        store = str(tmp_path / "empty")
        code, text = self._run(["perf", "show", "--store", store])
        assert code == 0 and "empty" in text
        code, _ = self._run(["perf", "compare", "--store", store])
        assert code == 2
        code, _ = self._run(["perf", "check", "--store", store])
        assert code == 0

    def test_torn_last_line_is_a_note_not_a_traceback(self, tmp_path):
        root = tmp_path / "rs"
        store = RunStore(root)
        store.append(_record())
        with store.path.open("a") as handle:
            handle.write('{"label": "x", "signature": "abc"\n')
        store.append(_record())
        note = f"note: skipped 1 unreadable line(s) in {store.path} (lines 2)"

        code, text = self._run(["perf", "show", "--store", str(root)])
        assert code == 0 and text.count("mf:orion") == 2
        assert text.count(note) == 1
        code, text = self._run(["perf", "check", "--store", str(root)])
        assert code == 0 and text.count(note) == 1
        assert "REGRESSION" not in text
        code, text = self._run(["perf", "compare", "--store", str(root)])
        assert code == 0 and text.count(note) == 1

    def test_slow_factor_needs_simulated_backend(self):
        code, text = self._run(
            ["mf", "--backend", "multiprocess", "--slow-factor", "2.0"]
        )
        assert code == 2 and "--backend simulated" in text

    def test_slow_factor_and_faults_are_rejected_together(self):
        code, text = self._run(
            ["mf", "--engine", "orion", "--epochs", "2", "--scale", "0.2",
             "--faults", "seed=1,crashes=0", "--slow-factor", "3"]
        )
        assert code == 2
        assert text == "--slow-factor and --faults cannot be combined\n"
