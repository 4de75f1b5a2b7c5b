"""Backend parity: one compiled plan, two execution engines.

The contract of :mod:`repro.runtime.backend`: for dependence-preserving
plans, ``simulated`` (the virtual-clock oracle) and ``multiprocess``
(forked workers over shared memory) produce *bitwise identical* final
parameters.  Parametrized across the four plan shapes — 1D, 2D rotation,
data-parallel, and unimodular (skewed/interchanged) — plus worker-crash
behaviour.
"""

import numpy as np
import pytest

from repro.api import OrionContext
from repro.apps import MFHyper, build_sgd_mf
from repro.apps.sgd_mf import mf_cost_model
from repro.data import netflix_like
from repro.errors import ExecutionError
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import BACKENDS, LoopOptions


def _cluster() -> ClusterSpec:
    return ClusterSpec(num_machines=1, workers_per_machine=4)


def _build_one_d(backend):
    """Written array pinned by key[0] only → ONE_D plan."""
    ctx = OrionContext(cluster=_cluster(), seed=11)
    entries = [
        ((i, j), 0.01 * (3 * i + j + 1)) for i in range(32) for j in range(3)
    ]
    space = ctx.from_entries(entries, name="p1_space", shape=(32, 3))
    x = ctx.randn(32, name="p1_x")
    ctx.materialize(space, x)

    def body(key, value):
        x[key[0]] = x[key[0]] * 0.9 + value

    loop = ctx.parallel_for(space, options=LoopOptions(backend=backend))(body)
    return loop, {"x": x}


def _build_two_d(backend):
    """SGD matrix factorization: the canonical 2D rotation plan."""
    data = netflix_like(num_rows=24, num_cols=20, num_ratings=300, seed=31)
    program = build_sgd_mf(
        data,
        cluster=_cluster(),
        hyper=MFHyper(rank=3, step_size=0.05),
        seed=7,
        options=LoopOptions(backend=backend),
    )
    return program.train_loop, {
        "W": program.arrays["W"],
        "H": program.arrays["H"],
    }


def _build_data_parallel(backend):
    """Only buffered writes → DATA_PARALLEL plan.

    Every entry targets a distinct buffer key, so the combiner never adds
    two contributions and the result is bitwise order-independent.
    """
    ctx = OrionContext(cluster=_cluster(), seed=13)
    n = 48
    entries = []
    for i in range(n):
        entries.append(((i, 2 * i), 0.5 + 0.01 * i))
        entries.append(((i, 2 * i + 1), 1.5 - 0.01 * i))
    space = ctx.from_entries(entries, name="dp_space", shape=(n, 2 * n))
    y = ctx.zeros(2 * n, name="dp_y")
    ctx.materialize(space, y)
    y_buf = ctx.dist_array_buffer(y, name="dp_y_buf")

    def body(key, value):
        y_buf[key[1]] = value * 2.0

    loop = ctx.parallel_for(space, options=LoopOptions(backend=backend))(body)
    return loop, {"y": y}


def _build_unimodular(backend):
    """Diagonal recurrence → unimodular transform (loop interchange).

    4 columns over 4 time partitions keeps every time partition width 1,
    so same-step blocks are dependence-free and all backends may run them
    concurrently.
    """
    ctx = OrionContext(cluster=_cluster(), seed=17)
    entries = [((i, j), 1.0) for i in range(6) for j in range(4)]
    space = ctx.from_entries(entries, name="uni_space", shape=(6, 4))
    grid = ctx.randn(6, 4, name="uni_grid")
    ctx.materialize(space, grid)

    def body(key, value):
        left = grid[key[0], key[1] - 1]
        diag = grid[key[0] - 1, key[1] - 1]
        grid[key[0], key[1]] = 0.5 * (left + diag)

    loop = ctx.parallel_for(
        space, options=LoopOptions(ordered=True, backend=backend)
    )(body)
    return loop, {"grid": grid}


BUILDERS = {
    "one_d": _build_one_d,
    "two_d": _build_two_d,
    "data_parallel": _build_data_parallel,
    "unimodular": _build_unimodular,
}


class TestBitwiseParity:
    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("shape", list(BUILDERS))
    def test_final_parameters_identical(self, shape, backend):
        oracle_loop, oracle_arrays = BUILDERS[shape]("simulated")
        oracle_loop.run(2)
        oracle_loop.close()
        loop, arrays = BUILDERS[shape](backend)
        try:
            loop.run(2)
        finally:
            loop.close()
        for name, oracle in oracle_arrays.items():
            assert np.array_equal(oracle.values, arrays[name].values), (
                shape,
                backend,
                name,
            )

    def test_unimodular_plan_has_transform(self):
        loop, _arrays = BUILDERS["unimodular"]("simulated")
        assert loop.plan.transform is not None

    def test_backend_name_reported(self):
        for backend in BACKENDS:
            loop, _arrays = _build_one_d(backend)
            assert loop.backend.name == backend
            loop.close()


class TestDepthIndependence:
    """The canonical in-block order (``partition_2d(canonical_order=True)``)
    makes a worker's per-epoch entry sequence the same at every time
    tiling, so unordered-2D runs at different ``pipeline_depth`` end in
    bit-identical parameters on every backend; only the clock moves."""

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_depth_moves_clock_not_model(self, backend):
        data = netflix_like(num_rows=60, num_cols=50, num_ratings=1500, seed=5)
        hyper = MFHyper(rank=4, step_size=0.05)
        # Few workers, expensive inter-machine rotation: the regime where
        # pipeline depth visibly moves the virtual clock.
        cluster = ClusterSpec(
            num_machines=4, workers_per_machine=1, cost=mf_cost_model(hyper)
        )
        runs = {}
        for depth in (1, 3):
            program = build_sgd_mf(
                data, cluster=cluster, hyper=hyper, seed=3,
                options=LoopOptions(pipeline_depth=depth, backend=backend),
            )
            try:
                results = program.train_loop.run(3)
            finally:
                program.train_loop.close()
            assert program.train_loop.executor.pipeline_depth == depth
            runs[depth] = (program.arrays, results)
        for name in ("W", "H"):
            assert np.array_equal(
                runs[1][0][name].values, runs[3][0][name].values
            ), (backend, name)
        if backend == "simulated":
            assert (
                runs[1][1][-1].epoch_time_s != runs[3][1][-1].epoch_time_s
            )


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        ctx = OrionContext(cluster=_cluster(), seed=1)
        space = ctx.from_entries([((0, 0), 1.0)], name="bs", shape=(1, 1))
        x = ctx.zeros(1, name="bs_x")
        ctx.materialize(space, x)

        def body(key, value):
            x[key[0]] = value

        with pytest.raises(ExecutionError, match="unknown backend"):
            ctx.parallel_for(space, options=LoopOptions(backend="gpu"))(body)

    def test_threaded_is_not_a_backend(self):
        """Two backends, one list of their names: the executor validates
        against ``BACKENDS`` and the CLI offers exactly it, so a retired
        spelling is rejected everywhere at once."""
        from repro.cli import build_parser

        assert BACKENDS == ("simulated", "multiprocess")
        backend_flag = next(
            action for action in build_parser()._actions
            if action.dest == "backend"
        )
        assert tuple(backend_flag.choices) == BACKENDS
        ctx = OrionContext(cluster=_cluster(), seed=1)
        space = ctx.from_entries([((0, 0), 1.0)], name="bt", shape=(1, 1))
        x = ctx.zeros(1, name="bt_x")
        ctx.materialize(space, x)

        def body(key, value):
            x[key[0]] = value

        options = LoopOptions(backend="threaded")
        with pytest.raises(ExecutionError, match="unknown backend 'threaded'"):
            ctx.parallel_for(space, options=options)(body)

    def test_multiprocess_rejects_checkpointing(self, tmp_path):
        from repro.runtime.checkpoint import CheckpointConfig

        data = netflix_like(num_rows=12, num_cols=10, num_ratings=60, seed=3)
        options = LoopOptions(
            backend="multiprocess",
            checkpoint=CheckpointConfig(directory=str(tmp_path)),
        )
        with pytest.raises(ExecutionError, match="not supported"):
            build_sgd_mf(data, cluster=_cluster(), seed=7, options=options)


class TestWorkerCrash:
    def test_dead_worker_raises_and_close_reaps(self):
        from repro.runtime.distributed import MultiprocessRunner

        data = netflix_like(num_rows=24, num_cols=20, num_ratings=300, seed=31)
        program = build_sgd_mf(data, cluster=_cluster(), seed=7)
        runner = MultiprocessRunner(
            program.train_loop, shutdown_timeout=1.0
        )
        try:
            runner.run_epoch()
            victim = runner._processes[0]
            victim.terminate()
            victim.join(timeout=5)
            with pytest.raises(ExecutionError, match="worker"):
                runner.run_epoch()
        finally:
            survivors = list(runner._processes)
            runner.close()
        # The escalating shutdown must reap workers that were blocked on
        # rotation tokens from the dead peer.
        assert all(not p.is_alive() for p in survivors)
