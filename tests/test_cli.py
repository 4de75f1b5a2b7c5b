"""Tests for the command-line runner (repro.cli)."""

import io

import pytest

from repro.cli import ENGINES, build_parser, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["mf"])
        assert args.engine == "orion"
        assert args.epochs == 5

    def test_engine_choices_cover_all(self):
        for engine in ENGINES:
            args = build_parser().parse_args(["mf", "--engine", engine])
            assert args.engine == engine

    def test_bad_app_rejected(self):
        from repro.cli import main

        # The adaptive tuner is gone: neither its subcommand nor its flag
        # parses any more.
        for argv in (["resnet"], ["tune", "mf"], ["mf", "--tune", "auto"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv


class TestSingleEngineRuns:
    def test_orion_mf(self):
        code, output = _run(
            ["mf", "--engine", "orion", "--epochs", "2", "--scale", "0.3",
             "--machines", "2", "--workers-per-machine", "2"]
        )
        assert code == 0
        assert "Orion SGD MF" in output
        assert "pass" in output
        assert output.count("\n") >= 4

    def test_serial_slr(self):
        code, output = _run(
            ["slr", "--engine", "serial", "--epochs", "2", "--scale", "0.2"]
        )
        assert code == 0
        assert "Serial" in output

    def test_bosen_lda(self):
        code, output = _run(
            ["lda", "--engine", "bosen", "--epochs", "1", "--scale", "0.3",
             "--machines", "1", "--workers-per-machine", "2"]
        )
        assert code == 0
        assert "Bosen" in output

    def test_gbt_orion(self):
        code, output = _run(
            ["gbt", "--engine", "orion", "--epochs", "1", "--scale", "0.2"]
        )
        assert code == 0
        assert "Orion GBT" in output

    def test_adarev_variant(self):
        code, output = _run(
            ["mf-adarev", "--engine", "orion", "--epochs", "1",
             "--scale", "0.2", "--machines", "1",
             "--workers-per-machine", "2"]
        )
        assert code == 0
        assert "AdaRev" in output


class TestUnsupportedCombos:
    def test_tux2_requires_mf(self):
        code, output = _run(["slr", "--engine", "tux2", "--epochs", "1",
                             "--scale", "0.2"])
        assert code == 2
        assert "does not support" in output

    def test_serial_requires_numpy_app(self):
        code, output = _run(["gbt", "--engine", "serial", "--epochs", "1",
                             "--scale", "0.2"])
        assert code == 2


class TestTypeErrorsPropagate:
    """No ``except TypeError`` probe for "this app has no ordered mode":
    every builder takes ``options``, so a TypeError is a real bug and
    must surface instead of printing "does not support app"."""

    def test_during_build(self, monkeypatch):
        def build(*args, **kwargs):
            raise TypeError("boom in build")

        monkeypatch.setattr("repro.cli.build_sgd_mf", build)
        with pytest.raises(TypeError, match="boom in build"):
            _run(["mf", "--engine", "orion-ordered", "--epochs", "1",
                  "--scale", "0.2"])

    def test_during_run(self, monkeypatch):
        class Program:
            def run(self, epochs):
                raise TypeError("boom in run")

        monkeypatch.setattr(
            "repro.cli.build_gbt", lambda *args, **kwargs: Program()
        )
        with pytest.raises(TypeError, match="boom in run"):
            _run(["gbt", "--engine", "orion-ordered", "--epochs", "1",
                  "--scale", "0.2"])

    def test_lint_ordered(self, monkeypatch):
        def build(*args, **kwargs):
            raise TypeError("boom in lint")

        monkeypatch.setattr("repro.cli.build_gbt", build)
        with pytest.raises(TypeError, match="boom in lint"):
            _run(["lint", "gbt", "--ordered", "--scale", "0.2"])

    def test_gbt_ordered_engine_runs(self):
        code, output = _run(["gbt", "--engine", "orion-ordered",
                             "--epochs", "1", "--scale", "0.2"])
        assert code == 0
        assert "Orion GBT" in output


class TestSanitizeFlag:
    """One sanitized mini-epoch of each strategy — 2D unordered (mf), 2D
    ordered, 1D (lda-1d), data parallelism (slr), multi-loop (gbt) — on
    the simulated backend, plus a multiprocess spot check.  Any S6xx
    violation raises."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mf"], ["lda-1d"], ["slr"], ["gbt"],
            ["mf", "--engine", "orion-ordered"],
            ["mf", "--backend", "multiprocess"],
        ],
        ids=" ".join,
    )
    def test_sanitized_epoch_is_clean(self, argv):
        code, output = _run(
            argv + ["--sanitize", "--epochs", "1", "--scale", "0.3"]
        )
        assert code == 0
        assert "execution path: scalar body" in output


class TestAllEnginesTable:
    def test_comparison_table(self):
        code, output = _run(
            ["mf", "--engine", "all", "--epochs", "1", "--scale", "0.2",
             "--machines", "1", "--workers-per-machine", "2"]
        )
        assert code == 0
        header = output.splitlines()[0]
        assert "final loss" in header
        for engine in ("serial", "orion", "bosen", "strads", "tux2"):
            assert engine in output


class TestPlotFlag:
    def test_plot_renders_curves(self):
        code, output = _run(
            ["mf", "--engine", "orion", "--epochs", "2", "--scale", "0.2",
             "--machines", "1", "--workers-per-machine", "2", "--plot"]
        )
        assert code == 0
        assert "epoch" in output
        assert "|" in output


class TestLda1d:
    def test_lda_one_d_runs(self):
        code, output = _run(
            ["lda-1d", "--engine", "orion", "--epochs", "1", "--scale", "0.2",
             "--machines", "1", "--workers-per-machine", "2"]
        )
        assert code == 0
        assert "Orion LDA" in output


class TestObservabilityFlags:
    def test_trace_and_report(self, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        code, output = _run(
            ["mf", "--engine", "orion", "--epochs", "2", "--scale", "0.2",
             "--machines", "1", "--workers-per-machine", "2",
             "--trace", str(trace_path), "--report"]
        )
        assert code == 0
        assert "execution path:" in output
        assert "util%" in output
        assert "== orion:" in output  # the straggler report section
        assert "== metrics ==" in output
        trace = json.loads(trace_path.read_text())
        assert validate_chrome_trace(trace) == []
        assert f"trace written to {trace_path}" in output

    def test_all_engines_share_one_trace(self, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        code, output = _run(
            ["mf", "--engine", "all", "--epochs", "1", "--scale", "0.2",
             "--machines", "1", "--workers-per-machine", "2",
             "--trace", str(trace_path)]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        processes = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        # Natively traced engines plus traffic tracks lifted from the rest.
        assert {"serial", "orion", "orion-ordered", "bosen"} <= processes
        assert "tf" in processes or "tux2" in processes

    def test_history_out(self, tmp_path):
        import json

        from repro.runtime.history import RunHistory

        history_path = tmp_path / "history.json"
        code, output = _run(
            ["mf", "--engine", "orion", "--epochs", "2", "--scale", "0.2",
             "--machines", "1", "--workers-per-machine", "2",
             "--history-out", str(history_path)]
        )
        assert code == 0
        assert f"histories written to {history_path}" in output
        payload = json.loads(history_path.read_text())
        assert payload["app"] == "mf"
        history = RunHistory.from_json(payload["histories"]["orion"])
        assert len(history.records) == 2
        assert history.records[0].utilization > 0.0
