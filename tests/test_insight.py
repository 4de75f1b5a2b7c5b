"""Tests for the trace-consumption insight layer (repro.obs.insight).

The tentpole invariant: per-epoch time attribution — compute vs.
prefetch/flush waits vs. barrier vs. idle — tiles every worker's
timeline with no gaps or overlaps, so the attributed seconds sum *bit
for bit* to the epoch makespan on the virtual clock, for every bundled
application.  On top of that: bottleneck what-if estimates, critical
paths, and virtual-vs-real prediction error.
"""

import math

import pytest

from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    attribute_epochs,
    insight_report,
    paired_prediction,
    prediction_error,
)
from repro.obs.insight import BUSY_CATEGORIES, IDLE_CATEGORIES
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions

APPS = ["mf", "mf-adarev", "lda", "lda-1d", "slr", "gbt"]


def _build_program(app, data, cluster, tracer, metrics):
    from repro.apps import (
        LDAHyper,
        MFHyper,
        SLRHyper,
        build_gbt,
        build_lda,
        build_sgd_mf,
        build_slr,
    )

    options = LoopOptions(obs=Observability(tracer=tracer, metrics=metrics))
    if app == "mf":
        return build_sgd_mf(
            data, cluster=cluster, hyper=MFHyper(rank=4), seed=3,
            options=options,
        )
    if app == "mf-adarev":
        return build_sgd_mf(
            data, cluster=cluster,
            hyper=MFHyper(rank=4, adarev=True, adarev_step=0.15),
            seed=3, options=options,
        )
    if app == "lda":
        return build_lda(
            data, cluster=cluster, hyper=LDAHyper(num_topics=4), seed=3,
            parallelism="2d", options=options,
        )
    if app == "lda-1d":
        return build_lda(
            data, cluster=cluster, hyper=LDAHyper(num_topics=4), seed=3,
            parallelism="1d", options=options,
        )
    if app == "slr":
        return build_slr(
            data, cluster=cluster, hyper=SLRHyper(step_size=0.2), seed=3,
            options=options,
        )
    if app == "gbt":
        return build_gbt(data, cluster=cluster, options=options)
    raise AssertionError(app)


@pytest.fixture(scope="module")
def app_traces(mf_small, corpus_small, slr_small, table_small):
    """Every bundled app run for two traced epochs: app -> tracer."""
    data = {
        "mf": mf_small,
        "mf-adarev": mf_small,
        "lda": corpus_small,
        "lda-1d": corpus_small,
        "slr": slr_small,
        "gbt": table_small,
    }
    traces = {}
    for app in APPS:
        cluster = ClusterSpec(num_machines=2, workers_per_machine=2)
        tracer, metrics = Tracer(), MetricsRegistry()
        program = _build_program(app, data[app], cluster, tracer, metrics)
        program.run(2)
        traces[app] = tracer
    return traces


class TestExactAttribution:
    @pytest.mark.parametrize("app", APPS)
    def test_attribution_is_provably_exact(self, app_traces, app):
        """Acceptance: attributed time sums bit-exactly to the epoch
        makespan on the virtual clock, for every epoch of every app."""
        tracer = app_traces[app]
        attributions = attribute_epochs(tracer, "orion")
        assert attributions, f"{app}: no epochs attributed"
        for attribution in attributions:
            assert attribution.clock == "virtual"
            problems = attribution.verify_exact()
            assert problems == [], f"{app}: {problems}"
            for worker in attribution.workers.values():
                assert (
                    worker.attributed_seconds() == attribution.makespan
                ), f"{app}: attribution != makespan bit-for-bit"

    @pytest.mark.parametrize("app", APPS)
    def test_categories_cover_known_taxonomy(self, app_traces, app):
        attributions = attribute_epochs(app_traces[app], "orion")
        known = set(BUSY_CATEGORIES) | set(IDLE_CATEGORIES)
        for attribution in attributions:
            for worker in attribution.workers.values():
                by_cat = worker.seconds_by_category()
                assert set(by_cat) <= known
                assert all(value >= 0.0 for value in by_cat.values())

    @pytest.mark.parametrize("app", APPS)
    def test_totals_span_all_workers(self, app_traces, app):
        for attribution in attribute_epochs(app_traces[app], "orion"):
            totals = attribution.totals()
            capacity = attribution.makespan * len(attribution.workers)
            assert math.fsum(totals.values()) == pytest.approx(capacity)


class TestBottleneckAnalysis:
    def test_what_if_estimates_bound_actual(self, app_traces):
        for attribution in attribute_epochs(app_traces["mf"], "orion"):
            scenarios = attribution.what_if()
            assert scenarios["actual"] == attribution.makespan
            # Removing waits can only shrink the (estimated) makespan.
            assert 0.0 < scenarios["balanced"] <= scenarios["actual"]
            assert 0.0 < scenarios["comm_free"] <= scenarios["actual"]
            assert 0.0 < scenarios["perfect_prefetch"] <= scenarios["actual"]

    def test_critical_path_is_one_block_per_step(self, app_traces):
        attribution = attribute_epochs(app_traces["mf"], "orion")[-1]
        path = attribution.critical_path()
        assert path
        steps = [step for step, _name, _track, _duration in path]
        assert steps == sorted(set(steps))
        assert all(duration >= 0.0 for _s, _n, _t, duration in path)


class TestPredictionError:
    def test_signed_per_epoch_error(self):
        report = prediction_error([2.0, 1.0], [1.0, 1.0])
        assert [row["error_pct"] for row in report["epochs"]] == [100.0, 0.0]
        assert report["real_total_s"] == 3.0
        assert report["predicted_total_s"] == 2.0
        assert report["total_error_pct"] == pytest.approx(50.0)
        assert report["mean_abs_error_pct"] == pytest.approx(50.0)

    def test_empty_series(self):
        assert prediction_error([], [1.0]) == {}

    def test_paired_prediction_requires_wall_process(self, app_traces):
        # Virtual-clock-only traces have no @wall twin to pair with.
        assert paired_prediction(app_traces["mf"], "orion") is None


class TestInsightReport:
    def test_report_renders_and_is_exact(self, app_traces):
        report = insight_report(app_traces["mf"])
        assert "insight: orion (virtual clock)" in report
        assert "what-if" in report
        assert "yes" in report and " NO" not in report

    def test_report_carries_diagnostics(self, app_traces):
        report = insight_report(
            app_traces["mf"], diagnostics=["W501: no kernel for you"]
        )
        assert "W501" in report

    def test_empty_tracer_reports_nothing(self):
        assert "no traced epochs" in insight_report(Tracer())
