"""Tests for sanitize mode (repro.sanitizer): seeded faults and clean runs.

The centerpiece planted fault: two variables aliasing one DistArray hide
a loop-carried dependence from the static analyzer (reads go through one
name, writes through the other, so Alg. 2 sees two independent arrays).
The loop compiles and runs silently — sanitize mode must catch the
actual write/read collision as S601 on both backends.
"""

from types import SimpleNamespace

import pytest

from repro.api import OrionContext
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import level_schedule
from repro.runtime.options import LoopOptions
from repro.sanitizer import (
    SanitizerError,
    check_epoch,
    normalize_index,
    verify_conflict_groups,
)


def _ctx(seed=5):
    return OrionContext(
        cluster=ClusterSpec(num_machines=2, workers_per_machine=2), seed=seed
    )


def _space(ctx, n=8):
    space = ctx.from_entries([((i,), 1.0) for i in range(n)], shape=(n,))
    ctx.materialize(space)
    return space


def _aliased_loop(ctx, options=None):
    """A loop whose loop-carried dependence hides behind an alias.

    ``reads`` and ``writes`` are the same DistArray under two names:
    iteration i reads element i and writes element i+1, a distance-(1)
    write/read dependence the analyzer cannot see (it treats the names
    as distinct arrays, and each name alone carries no dependence).
    """
    space = _space(ctx)
    writes = ctx.zeros(16)
    ctx.materialize(writes)
    reads = writes

    def body(key, value):
        writes[key[0] + 1] = reads[key[0]] + value

    return ctx.parallel_for(space, options=options)(body)


class TestPlantedMissedDependence:
    def test_analyzer_misses_it_statically(self):
        # The blind spot: the loop compiles, warns W202, and runs without
        # sanitize mode noticing anything.
        ctx = _ctx()
        loop = _aliased_loop(ctx)
        assert "W202" in [d.code for d in loop.diagnostics()]
        assert not any(
            vectors for vectors in loop.plan.dvecs_by_array.values()
        )
        loop.run()  # silently wrong without the sanitizer

    def test_sanitize_catches_s601_simulated(self):
        ctx = _ctx()
        loop = _aliased_loop(ctx, options=LoopOptions(sanitize=True))
        with pytest.raises(SanitizerError) as excinfo:
            loop.run()
        codes = [d.code for d in excinfo.value.diagnostics]
        assert "S601" in codes
        s601 = next(
            d for d in excinfo.value.diagnostics if d.code == "S601"
        )
        assert ("delta", (1,)) in s601.details
        assert "write/read" in s601.message

    def test_sanitize_catches_s601_multiprocess(self):
        ctx = _ctx()
        loop = _aliased_loop(
            ctx, options=LoopOptions(sanitize=True, backend="multiprocess")
        )
        try:
            with pytest.raises(SanitizerError) as excinfo:
                loop.run()
            assert "S601" in [d.code for d in excinfo.value.diagnostics]
        finally:
            loop.close()


class TestConflictGroupCheck:
    def test_planted_non_conflict_free_group(self):
        # Entries 0 and 2 share row 0 inside the claimed-free group.
        diagnostics = verify_conflict_groups(
            [[0, 1, 0, 2], [5, 6, 7, 8]],
            order=[0, 1, 2, 3],
            groups=[(0, 3), (3, 4)],
        )
        assert [d.code for d in diagnostics] == ["S602"]
        assert ("entries", (0, 2)) in diagnostics[0].details
        assert "claimed conflict-free" in diagnostics[0].message

    def test_shared_column_detected(self):
        diagnostics = verify_conflict_groups(
            [[0, 1], [4, 4]], order=[0, 1], groups=[(0, 2)]
        )
        assert [d.code for d in diagnostics] == ["S602"]
        assert "coordinate 4 on conflict dim 1" in diagnostics[0].message

    def test_planted_reordered_conflicting_pair(self):
        # Every group is conflict-free, but entry 2 (row 0) runs before
        # entry 0 (row 0): the schedule swapped two updates of one row.
        diagnostics = verify_conflict_groups(
            [[0, 1, 0, 2], [5, 6, 7, 8]],
            order=[2, 1, 3, 0],
            groups=[(0, 3), (3, 4)],
        )
        assert [d.code for d in diagnostics] == ["S602"]
        assert ("entries", (0, 2)) in diagnostics[0].details
        assert "reversed order" in diagnostics[0].message

    def test_legal_schedules_pass(self):
        seqs = [[0, 1, 2, 0], [3, 4, 5, 6]]
        # Entry order split into runs, and the level schedule that moves
        # nothing here because entry 3 already comes last.
        assert verify_conflict_groups(
            seqs, order=[0, 1, 2, 3], groups=[(0, 3), (3, 4)]
        ) == []
        assert verify_conflict_groups(seqs, *level_schedule(seqs)) == []
        # A permutation that moves only non-conflicting entries is legal.
        assert verify_conflict_groups(
            seqs, order=[2, 0, 1, 3], groups=[(0, 3), (3, 4)]
        ) == []


def _fake_loop(ordered=False, arrays=None, dvecs=None):
    info = SimpleNamespace(ordered=ordered, arrays=arrays or {})
    plan = SimpleNamespace(dvecs_by_array=dvecs or {})
    return info, plan


class TestCheckEpochUnits:
    def test_s603_buffered_write_aliases_direct_write(self):
        info, plan = _fake_loop()
        records = [
            ((0,), "X", normalize_index(3), "b"),
            ((1,), "X", normalize_index(3), "w"),
        ]
        codes = [d.code for d in check_epoch(info, plan, records)]
        assert codes == ["S603"]

    def test_disjoint_buffer_and_direct_writes_pass(self):
        info, plan = _fake_loop()
        records = [
            ((0,), "X", normalize_index(3), "b"),
            ((1,), "X", normalize_index(4), "w"),
        ]
        assert check_epoch(info, plan, records) == []

    def test_s604_read_outside_prefetch_footprint(self):
        info, plan = _fake_loop()
        records = [((0,), "S", normalize_index(5), "r")]
        diagnostics = check_epoch(
            info, plan, records,
            server_names=frozenset({"S"}),
            prefetch_fn=lambda key, value: [("S", 3)],
        )
        assert [d.code for d in diagnostics] == ["S604"]

    def test_prefetch_covering_read_passes(self):
        info, plan = _fake_loop()
        records = [((0,), "S", normalize_index(5), "r")]
        assert check_epoch(
            info, plan, records,
            server_names=frozenset({"S"}),
            prefetch_fn=lambda key, value: [("S", slice(0, 10))],
        ) == []

    def test_server_arrays_exempt_from_s601(self):
        # The parameter server linearizes cross-iteration conflicts on
        # server-placed arrays; only non-server arrays raise S601.
        info, plan = _fake_loop()
        records = [
            ((0,), "S", normalize_index(2), "w"),
            ((1,), "S", normalize_index(2), "r"),
        ]
        assert check_epoch(
            info, plan, records, server_names=frozenset({"S"})
        ) == []
        assert [
            d.code for d in check_epoch(info, plan, records)
        ] == ["S601"]

    def test_write_write_only_conflicts_when_ordered(self):
        records = [
            ((0,), "X", normalize_index(2), "w"),
            ((1,), "X", normalize_index(2), "w"),
        ]
        info, plan = _fake_loop(ordered=False)
        assert check_epoch(info, plan, records) == []
        info, plan = _fake_loop(ordered=True)
        assert [d.code for d in check_epoch(info, plan, records)] == ["S601"]

    def test_reported_vector_silences_s601(self):
        from repro.analysis.depvec import DepVector

        array = SimpleNamespace(name="X")
        info, plan = _fake_loop(
            arrays={"x": array},
            dvecs={"x": {DepVector(entries=(1,))}},
        )
        records = [
            ((0,), "X", normalize_index(2), "w"),
            ((1,), "X", normalize_index(2), "r"),
        ]
        assert check_epoch(info, plan, records) == []


class TestSanitizedAppsRunClean:
    def test_mf_sanitized_epoch_clean(self, mf_small, cluster_tiny):
        from repro.apps.sgd_mf import build_orion_program

        program = build_orion_program(
            mf_small, cluster=cluster_tiny, options=LoopOptions(sanitize=True)
        )
        history = program.run(1)
        assert len(history.records) == 1

    def test_slr_sanitized_epoch_clean(self, slr_small, cluster_tiny):
        # SLR exercises the buffered-write (data-parallel) path and the
        # prefetch-footprint check on server-placed weights.
        from repro.apps.slr import build_orion_program

        program = build_orion_program(
            slr_small, cluster=cluster_tiny, options=LoopOptions(sanitize=True)
        )
        history = program.run(1)
        assert len(history.records) == 1

    def test_sanitize_forces_scalar_path(self, mf_small, cluster_tiny):
        from repro.apps.sgd_mf import build_orion_program

        program = build_orion_program(
            mf_small, cluster=cluster_tiny, options=LoopOptions(sanitize=True)
        )
        history = program.run(1)
        assert history.meta.get("kernel_path") is False
