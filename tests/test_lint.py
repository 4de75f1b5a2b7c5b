"""Tests for the structured diagnostics engine (repro.analysis.lint).

Each documented lint code gets a minimal offending loop body asserting
the code fires with a real source location pointing into this file (or
into lint_demo.py for the demo catalog).
"""

import io

import pytest

from repro.analysis.lint import (
    CODES,
    Diagnostic,
    LintReport,
    SourceLocation,
    run_lint,
)
from repro.api import OrionContext
from repro.cli import main as cli_main
from repro.runtime.cluster import ClusterSpec


def _ctx(seed=5):
    return OrionContext(
        cluster=ClusterSpec(num_machines=2, workers_per_machine=2), seed=seed
    )


def _space(ctx, n=8):
    space = ctx.from_entries([((i,), 1.0) for i in range(n)], shape=(n,))
    ctx.materialize(space)
    return space


class TestDiagnosticType:
    def test_severity_and_title_from_code(self):
        assert Diagnostic(code="E102", message="m").severity == "error"
        assert Diagnostic(code="W201", message="m").severity == "warning"
        assert Diagnostic(code="S601", message="m").severity == "violation"
        assert "arity" in Diagnostic(code="E102", message="m").title

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="E999", message="m")

    def test_describe_includes_location(self):
        diag = Diagnostic(
            code="W201",
            message="msg",
            location=SourceLocation(file="f.py", line=7),
            hint="do better",
        )
        text = diag.describe()
        assert text.startswith("f.py:7")
        assert "W201" in text and "msg" in text and "do better" in text

    def test_catalog_complete(self):
        # Every documented code family is present.
        assert {
            "E100", "E101", "E102", "E103", "E110",
            "W201", "W202", "W301", "W401",
            "S601", "S602", "S603", "S604",
        } <= set(CODES)


class TestLintCodes:
    """One minimal offending body per code."""

    def _sole_code(self, report: LintReport) -> str:
        assert report.diagnostics, report.describe()
        return report.diagnostics[0].code

    def test_e101_lambda_body(self):
        ctx = _ctx()
        space = _space(ctx)
        report = run_lint(lambda key, value: None, space)
        assert report.codes() == ["E101"]
        assert not report.ok

    def test_e102_arity_mismatch(self):
        ctx = _ctx()
        space = _space(ctx)
        grid = ctx.zeros(4, 4)
        ctx.materialize(grid)

        def body(key, value):
            grid[key[0]] = value

        report = run_lint(body, space)
        assert report.codes() == ["E102"]
        location = report.diagnostics[0].location
        assert location is not None
        assert location.file.endswith("test_lint.py")
        assert location.line > 0

    def test_e103_bad_signature(self):
        ctx = _ctx()
        space = _space(ctx)

        def body():
            pass

        report = run_lint(body, space)
        assert report.codes() == ["E103"]

    def test_e103_unmaterialized_space(self):
        ctx = _ctx()
        space = ctx.from_entries([((0,), 1.0)], shape=(1,))

        def body(key, value):
            pass

        report = run_lint(body, space)
        assert report.codes() == ["E103"]

    def test_e110_refused_parallelization(self):
        ctx = _ctx()
        space = _space(ctx)
        chain = ctx.zeros(16)
        ctx.materialize(chain)

        def body(key, value):
            chain[key[0]] = chain[key[0] + 1] + value

        report = run_lint(body, space, ordered=True)
        assert "E110" in report.codes()
        assert not report.ok

    def test_w201_data_dependent_subscript(self):
        ctx = _ctx()
        space = _space(ctx)
        table = ctx.zeros(100)
        ctx.materialize(table)
        acc = ctx.accumulator("sink", 0.0)

        def body(key, value):
            slot = int(value) % 100
            acc.add(table[slot])

        report = run_lint(body, space)
        assert "W201" in report.codes()
        assert report.ok  # warnings alone do not fail the lint
        assert report.plan_summary is not None

    def test_w202_aliased_arrays(self):
        ctx = _ctx()
        space = _space(ctx)
        params = ctx.zeros(8)
        ctx.materialize(params)
        alias = params

        def body(key, value):
            alias[key[0]] = params[key[0]] + value

        report = run_lint(body, space)
        assert "W202" in report.codes()
        message = next(
            d for d in report.diagnostics if d.code == "W202"
        ).message
        assert "alias" in message and "params" in message

    def test_w301_inherited_mutation(self):
        ctx = _ctx()
        space = _space(ctx)
        sink = ctx.zeros(8)
        ctx.materialize(sink)
        total = 0.0

        def body(key, value):
            nonlocal total
            sink[key[0]] = value
            total += value

        report = run_lint(body, space)
        assert "W301" in report.codes()

    def test_w401_global_randomness(self):
        import numpy as np

        ctx = _ctx()
        space = _space(ctx)
        noise = ctx.zeros(8)
        ctx.materialize(noise)

        def body(key, value):
            noise[key[0]] = value + np.random.uniform()

        report = run_lint(body, space)
        assert "W401" in report.codes()
        location = next(
            d for d in report.diagnostics if d.code == "W401"
        ).location
        assert location is not None
        assert location.file.endswith("test_lint.py")

    def test_clean_body_reports_nothing(self):
        ctx = _ctx()
        space = _space(ctx)
        out = ctx.zeros(8)
        ctx.materialize(out)

        def body(key, value):
            out[key[0]] = value * 2.0

        report = run_lint(body, space)
        assert report.codes() == []
        assert report.ok
        assert report.plan_summary is not None


class TestLoopDiagnostics:
    def test_compiled_loop_exposes_warnings(self):
        ctx = _ctx()
        space = _space(ctx)
        table = ctx.zeros(100)
        ctx.materialize(table)
        acc = ctx.accumulator("probe", 0.0)

        def body(key, value):
            acc.add(table[int(value) % 100])

        loop = ctx.parallel_for(space)(body)
        codes = [d.code for d in loop.diagnostics()]
        assert "W201" in codes
        # Compiled loops never carry error diagnostics — errors raise.
        assert all(code.startswith("W") for code in codes)

    def test_explain_includes_diagnostics(self):
        ctx = _ctx()
        space = _space(ctx)
        table = ctx.zeros(100)
        ctx.materialize(table)
        acc = ctx.accumulator("probe2", 0.0)

        def body(key, value):
            acc.add(table[int(value) % 100])

        loop = ctx.parallel_for(space)(body)
        text = loop.explain()
        assert "Diagnostics (lint)" in text
        assert "W201" in text


class TestDemoCatalog:
    def test_demo_covers_at_least_six_codes_with_locations(self):
        from repro.analysis.lint_demo import demo_reports

        codes = set()
        for _title, report in demo_reports():
            for diag in report.diagnostics:
                codes.add(diag.code)
                assert diag.location is not None, diag.describe()
                assert diag.location.file.endswith("lint_demo.py")
                assert diag.location.line > 0
        assert len(codes) >= 6
        assert codes <= set(CODES)


class TestLintCLI:
    def test_lint_demo_subcommand(self):
        out = io.StringIO()
        assert cli_main(["lint", "demo"], out=out) == 0
        text = out.getvalue()
        assert "demonstrated codes:" in text
        assert sum(code in text for code in CODES) >= 6

    @pytest.mark.parametrize(
        "app", ["mf", "mf-adarev", "lda", "lda-1d", "slr", "gbt"]
    )
    def test_every_bundled_app_lints_without_errors(self, app):
        out = io.StringIO()
        assert cli_main(["lint", app, "--scale", "0.25"], out=out) == 0
        assert f"== lint: {app} ==" in out.getvalue()

    def test_lint_app_subcommand_clean(self):
        out = io.StringIO()
        assert cli_main(["lint", "mf", "--scale", "0.25"], out=out) == 0
        assert "plan:" in out.getvalue()

    def test_lint_app_subcommand_warns(self):
        out = io.StringIO()
        # SLR legitimately carries a data-dependent subscript warning but
        # still lints clean (exit 0).
        assert cli_main(["lint", "slr", "--scale", "0.25"], out=out) == 0
        assert "W201" in out.getvalue()
