"""Integration tests for the driver API (repro.api)."""

import numpy as np
import pytest

from repro.api import OrionContext, ParallelLoop
from repro.apps import embeddings, gbt, lda, mlp, sgd_mf, slr
from repro.errors import (
    AccumulatorError,
    ExecutionError,
    ParallelizationError,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


def _ctx(seed=5):
    return OrionContext(
        cluster=ClusterSpec(num_machines=2, workers_per_machine=2), seed=seed
    )


class TestArrayCreation:
    def test_randn_seeded_reproducibly(self):
        a = OrionContext(seed=9).randn(4, 4).materialize()
        b = OrionContext(seed=9).randn(4, 4).materialize()
        assert np.array_equal(a.values, b.values)

    def test_randn_distinct_arrays_differ(self):
        ctx = _ctx()
        a = ctx.randn(4, 4).materialize()
        b = ctx.randn(4, 4).materialize()
        assert not np.array_equal(a.values, b.values)

    def test_from_entries_and_materialize(self):
        ctx = _ctx()
        array = ctx.from_entries([((0, 1), 2.0)], shape=(2, 2))
        ctx.materialize(array)
        assert array[(0, 1)] == 2.0

    def test_text_file(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("0 0 1.5\n")
        ctx = _ctx()
        array = ctx.text_file(str(path))
        ctx.materialize(array)
        assert array[(0, 0)] == 1.5

    def test_zeros_full_rand(self):
        ctx = _ctx()
        z = ctx.zeros(2, 2)
        f = ctx.full((2, 2), 3.0)
        r = ctx.rand(2, 2)
        ctx.materialize(z, f, r)
        assert z.values.sum() == 0.0
        assert f.values.sum() == 12.0
        assert 0.0 <= r.values.min() <= r.values.max() < 1.0


class TestAccumulators:
    def test_accumulator_through_loop(self):
        ctx = _ctx()
        space = ctx.from_entries(
            [((i,), float(i)) for i in range(8)], shape=(8,)
        )
        ctx.materialize(space)
        err = ctx.accumulator("err", 0.0)

        def body(key, value):
            err.add(value)

        loop = ctx.parallel_for(space)(body)
        loop.run()
        assert ctx.get_aggregated_value("err") == pytest.approx(sum(range(8)))

    def test_accumulator_persists_across_runs(self):
        ctx = _ctx()
        space = ctx.from_entries([((i,), 1.0) for i in range(4)], shape=(4,))
        ctx.materialize(space)
        total = ctx.accumulator("total", 0.0)

        def body(key, value):
            total.add(value)

        loop = ctx.parallel_for(space)(body)
        loop.run(epochs=3)
        assert ctx.get_aggregated_value("total") == pytest.approx(12.0)

    def test_reset_accumulator(self):
        ctx = _ctx()
        acc = ctx.accumulator("x", 0.0)
        acc.add(5.0)
        ctx.reset_accumulator("x")
        assert ctx.get_aggregated_value("x") == 0.0

    def test_unknown_accumulator_raises(self):
        with pytest.raises(AccumulatorError):
            _ctx().get_aggregated_value("nope")


class TestParallelFor:
    def test_returns_parallel_loop_with_plan(self):
        ctx = _ctx()
        space = ctx.from_entries(
            [((i, j), 1.0) for i in range(6) for j in range(6)], shape=(6, 6)
        )
        ctx.materialize(space)
        W = ctx.randn(2, 6)
        ctx.materialize(W)

        def body(key, value):
            W[:, key[0]] = W[:, key[0]] * 0.9

        loop = ctx.parallel_for(space)(body)
        assert isinstance(loop, ParallelLoop)
        assert loop.plan.space_dim == 0

    def test_run_advances_clock_and_traffic(self):
        ctx = _ctx()
        space = ctx.from_entries(
            [((i, j), 1.0) for i in range(6) for j in range(6)], shape=(6, 6)
        )
        ctx.materialize(space)
        W = ctx.randn(2, 6)
        H = ctx.randn(2, 6)
        ctx.materialize(W, H)

        def body(key, value):
            W[:, key[0]] = W[:, key[0]] + 0.1 * H[:, key[1]]
            H[:, key[1]] = H[:, key[1]] * 0.99

        loop = ctx.parallel_for(space)(body)
        assert ctx.now == 0.0
        loop.run(epochs=2)
        assert ctx.now > 0.0
        assert ctx.traffic.total_bytes > 0
        # Events were shifted into the global timeline.
        assert max(e.t_end for e in ctx.traffic.events) <= ctx.now * 1.5

    def test_callable_shorthand(self):
        ctx = _ctx()
        space = ctx.from_entries([((i,), 1.0) for i in range(4)], shape=(4,))
        ctx.materialize(space)
        vec = ctx.zeros(4)
        ctx.materialize(vec)

        def body(key, value):
            vec[key[0]] = value

        loop = ctx.parallel_for(space)(body)
        results = loop(epochs=2)
        assert len(results) == 2

    def test_unparallelizable_body_raises_at_decoration(self):
        ctx = _ctx()
        space = ctx.from_entries([((i,), 1.0) for i in range(4)], shape=(4,))
        ctx.materialize(space)
        cell = ctx.zeros(1)
        ctx.materialize(cell)

        def body(key, value):
            cell[0] = cell[0] + value

        with pytest.raises(ParallelizationError):
            ctx.parallel_for(space)(body)

    def test_ordered_flag_reaches_plan(self):
        ctx = _ctx()
        space = ctx.from_entries(
            [((i, j), 1.0) for i in range(6) for j in range(6)], shape=(6, 6)
        )
        ctx.materialize(space)
        W = ctx.randn(2, 6)
        H = ctx.randn(2, 6)
        ctx.materialize(W, H)

        def body(key, value):
            W[:, key[0]] = W[:, key[0]] + 0.1 * H[:, key[1]]
            H[:, key[1]] = H[:, key[1]] * 0.99

        loop = ctx.parallel_for(space, options=LoopOptions(ordered=True))(body)
        assert loop.plan.ordered

    def test_buffer_factory(self):
        ctx = _ctx()
        target = ctx.zeros(5)
        ctx.materialize(target)
        buf = ctx.dist_array_buffer(target, max_delay=7)
        assert buf.target is target
        assert buf.max_delay == 7

    def test_default_cluster_when_none(self):
        ctx = OrionContext()
        assert ctx.cluster.num_workers == 4


APPS = {
    "sgd_mf": sgd_mf, "lda": lda, "slr": slr, "gbt": gbt, "mlp": mlp,
    "embeddings": embeddings,
}


def _dataset_args(app, request):
    """The positional dataset arguments of one app's builder."""
    if app == "mlp":
        return mlp.make_blobs(num_samples=24, num_features=3, num_classes=2), 3, 2
    if app == "embeddings":
        return (embeddings.cooccurrence_corpus(vocab_size=20, num_tokens=400),)
    fixture = {
        "sgd_mf": "mf_small", "lda": "corpus_small", "slr": "slr_small",
        "gbt": "table_small",
    }[app]
    return (request.getfixturevalue(fixture),)


class TestOptionSurface:
    def test_parallel_for_takes_options_and_nothing_else(self):
        import inspect

        params = inspect.signature(OrionContext.parallel_for).parameters
        assert list(params) == ["self", "iteration_space", "options"]
        assert params["options"].default is None

    @pytest.mark.parametrize("app", APPS)
    def test_builders_take_options_and_no_loop_knob(self, app):
        import inspect

        params = inspect.signature(APPS[app].build_orion_program).parameters
        assert "options" in params and "ordered" not in params
        assert not any(
            param.kind is param.VAR_KEYWORD for param in params.values()
        )

    @pytest.mark.parametrize("app", APPS)
    def test_builders_honour_options_ordered(self, app, request, cluster_tiny):
        """``options=LoopOptions(ordered=True)`` reaches the analyzer from
        every builder (the SGD MF and LDA builders used to merge their own
        ``ordered=False`` default over the bundle)."""
        build = APPS[app].build_orion_program
        args = _dataset_args(app, request)
        program = build(
            *args, cluster=cluster_tiny, options=LoopOptions(ordered=True)
        )
        assert program.train_loop.info.ordered is True
        assert program.train_loop.plan.ordered is True
        default = build(*args, cluster=cluster_tiny)
        assert default.train_loop.info.ordered is False

    def test_loop_options_match_the_documented_table(self):
        """The option surface is pinned: every ``LoopOptions`` field is a
        row of the option table in ``docs/api.md`` and vice versa, so a
        new knob (or a removed one) shows up as a diff of this test."""
        import dataclasses
        import pathlib
        import re

        doc = pathlib.Path(__file__).parent.parent / "docs" / "api.md"
        table = doc.read_text().split("### `LoopOptions`", 1)[1]
        table = table.split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
        fields = [field.name for field in dataclasses.fields(LoopOptions)]
        assert documented == fields
        assert len(fields) == 16

    @pytest.mark.parametrize("depth", ["auto", 2.0])
    def test_pipeline_depth_is_a_plain_int(self, depth):
        """There is no tuner, so no ``"auto"`` spelling of the default:
        anything but an int is refused at loop construction."""
        ctx = OrionContext(seed=1)
        space = ctx.from_entries([((0, 0), 1.0)], name="pd", shape=(1, 1))
        x = ctx.zeros(1, name="pd_x")
        ctx.materialize(space, x)

        def body(key, value):
            x[key[0]] = value

        with pytest.raises(ExecutionError, match=r"int \(default 2\)"):
            ctx.parallel_for(
                space, options=LoopOptions(pipeline_depth=depth)
            )(body)
