"""Automatic kernel synthesis (repro.analysis.synth).

A batched kernel promises bit-identical DistArray/buffer state and
identical accounting to the scalar interpreter, so these tests run every
bundled app under ``kernel="auto"`` (the synthesized kernel; LDA's
registered one) against ``kernel="off"`` on both backends and compare
exactly, exercise the built-in ``equivalence_check`` and sanitizer over
synthesized kernels, and pin the fallback story: bodies synthesis cannot
batch run scalar with a W50x diagnostic, never an error.
"""

import ast
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.api import OrionContext
from repro.apps import (
    build_gbt,
    build_glove,
    build_lda,
    build_mlp,
    build_sgd_mf,
    build_slr,
    cooccurrence_corpus,
)
from repro.apps.mlp import make_blobs
from repro.apps.sgd_mf import MFHyper
from repro.apps.slr import SLRHyper
from repro.analysis.synth import synth_report, synthesize_kernel
from repro.data.synthetic import (
    lda_corpus,
    netflix_like,
    regression_table,
    sparse_classification,
)
from repro.core.distarray import DistArray
from repro.runtime.cluster import ClusterSpec
from repro.runtime.executor import ExecutionError, kernel_batching_legal
from repro.runtime.kernels import scalar_pow
from repro.runtime.options import LoopOptions


# --------------------------------------------------------------------------- #
# app registry: builder(cluster, kernel, **option_fields) -> program
# --------------------------------------------------------------------------- #


def _options(kernel, opts):
    return LoopOptions(kernel=kernel, **opts)


def _mf(cluster, kernel, hyper=MFHyper(), **opts):
    data = netflix_like(num_rows=36, num_cols=28, num_ratings=320, seed=5)
    return build_sgd_mf(
        data, cluster=cluster, hyper=hyper, options=_options(kernel, opts)
    )


def _mf_adarev(cluster, kernel, **opts):
    return _mf(cluster, kernel, hyper=MFHyper(adarev=True), **opts)


def _mf_ordered(cluster, kernel, **opts):
    return _mf(cluster, kernel, ordered=True, **opts)


def _mf_adarev_ordered(cluster, kernel, **opts):
    return _mf(
        cluster, kernel, hyper=MFHyper(adarev=True), ordered=True, **opts
    )


def _glove(cluster, kernel, **opts):
    data = cooccurrence_corpus(vocab_size=36, num_tokens=1400, seed=6)
    return build_glove(data, cluster=cluster, options=_options(kernel, opts))


def _slr(cluster, kernel, hyper=SLRHyper(), **opts):
    data = sparse_classification(
        num_samples=110, num_features=70, nnz_per_sample=6, seed=7
    )
    return build_slr(
        data, cluster=cluster, hyper=hyper, options=_options(kernel, opts)
    )


def _slr_adarev(cluster, kernel, **opts):
    return _slr(cluster, kernel, hyper=SLRHyper(adarev=True), **opts)


def _slr_no_prefetch(cluster, kernel, **opts):
    return _slr(cluster, kernel, prefetch="none", **opts)


def _gbt(cluster, kernel, **opts):
    data = regression_table(num_samples=110, num_features=4, seed=8)
    return build_gbt(data, cluster=cluster, options=_options(kernel, opts))


def _lda(cluster, kernel, parallelism="2d", **opts):
    data = lda_corpus(
        num_docs=18, vocab_size=30, num_topics=4, doc_length=10, seed=9
    )
    return build_lda(
        data, cluster=cluster, parallelism=parallelism,
        options=_options(kernel, opts),
    )


def _lda_1d(cluster, kernel, **opts):
    return _lda(cluster, kernel, parallelism="1d", **opts)


def _mlp(cluster, kernel, **opts):
    data = make_blobs(num_samples=90, num_features=5, num_classes=3, seed=10)
    return build_mlp(
        data, 5, 3, cluster=cluster, options=_options(kernel, opts)
    )


APPS = {
    "mf": _mf,
    "mf-adarev": _mf_adarev,
    "mf-ordered": _mf_ordered,
    "mf-adarev-ordered": _mf_adarev_ordered,
    "glove": _glove,
    "slr": _slr,
    "slr-adarev": _slr_adarev,
    "slr-no-prefetch": _slr_no_prefetch,
    "gbt": _gbt,
    "lda": _lda,
    "lda-1d": _lda_1d,
    "mlp": _mlp,
}

#: Apps whose body synthesis must batch, with the expected tier.
ENGAGES = {
    "mf": "vector",
    "mf-adarev": "vector",
    "mf-ordered": "vector",
    "mf-adarev-ordered": "vector",
    "glove": "vector",
    "slr": "segmented",
    "slr-adarev": "segmented",
    "slr-no-prefetch": "segmented",
    "gbt": "block-loop",
}
#: Apps whose body synthesis declines with a W50x diagnostic.
FALLS_BACK = ("lda", "lda-1d", "mlp")


def _cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


def _state(program):
    """Every mutable array's contents: dense values, and sparse arrays of
    ndarray entries (LDA's assignments) entry by entry.  The remaining
    sparse arrays are the immutable iteration spaces."""
    state = {}
    for name, array in program.arrays.items():
        if not array.sparse:
            state[name] = array.values.copy()
            continue
        for key, value in array.entries():
            if isinstance(value, np.ndarray):
                state[f"{name}{key}"] = value.copy()
    return state


def _assert_same_state(ref, got):
    assert set(ref) == set(got)
    for name in ref:
        assert np.array_equal(ref[name], got[name]), name


def _epoch_signature(batches, real_clock=False):
    """Every accounting field of every EpochResult.  The real clock
    measures the host, so only its counts are comparable."""
    if real_clock:
        return [(r.bytes_sent, r.num_tasks) for batch in batches for r in batch]
    return [
        (r.epoch_time_s, r.bytes_sent, r.num_tasks, r.utilization, r.events)
        for batch in batches
        for r in batch
    ]


#: kernel_tier each builder reports under kernel="auto": the synthesized
#: tier where synthesis engages, LDA's registered kernel ("hand"), or the
#: scalar interpreter where synthesis declines and there is no other path.
AUTO_TIER = {name: f"synth:{tier}" for name, tier in ENGAGES.items()}
AUTO_TIER.update({"lda": "hand", "lda-1d": "hand", "mlp": "scalar"})


# --------------------------------------------------------------------------- #
# LoopOptions.kernel is the only switch, and builders pass it through
# --------------------------------------------------------------------------- #


class TestKernelOption:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_off_runs_scalar(self, app):
        program = APPS[app](_cluster(), "off")
        executor = program.train_loop.executor
        assert executor.kernel_tier == "scalar"
        assert executor.kernel is None
        assert program.train_loop.synthesis() is None

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_auto_runs_the_derived_kernel(self, app):
        program = APPS[app](_cluster(), "auto")
        assert program.train_loop.executor.kernel_tier == AUTO_TIER[app]

    def test_default_is_auto(self):
        assert LoopOptions().kernel == "auto"
        data = netflix_like(num_rows=36, num_cols=28, num_ratings=320, seed=5)
        program = build_sgd_mf(data, cluster=_cluster())
        assert program.train_loop.executor.kernel_tier == "synth:vector"

    @pytest.mark.parametrize("app", ["mf", "glove", "slr", "gbt", "lda", "mlp"])
    def test_callable_is_the_kernel_that_runs(self, app):
        def kernel(block, kctx):
            raise AssertionError("never run: the loop is only built")

        program = APPS[app](_cluster(), kernel)
        assert program.train_loop.executor.kernel is kernel
        assert program.train_loop.synthesis() is None


# --------------------------------------------------------------------------- #
# engagement / fallback
# --------------------------------------------------------------------------- #


class TestEngagement:
    @pytest.mark.parametrize("app", sorted(ENGAGES))
    def test_batchable_apps_synthesize(self, app):
        program = APPS[app](_cluster(), "auto")
        synth = program.train_loop.synthesis()
        assert synth.engaged
        assert synth.tier == ENGAGES[app]
        assert "_synth_kernel" in synth.source
        assert not synth.diagnostics
        assert callable(program.train_loop.executor.kernel)

    def test_unbatchable_app_falls_back_with_diagnostic(self):
        program = _mlp(_cluster(), "auto")
        synth = program.train_loop.synthesis()
        assert not synth.engaged
        assert synth.kernel is None
        codes = {d.code for d in synth.diagnostics}
        assert codes and codes <= {"W501", "W502"}
        # The fallback surfaces through the loop's lint diagnostics too.
        assert codes <= {d.code for d in program.train_loop.diagnostics()}

    @pytest.mark.parametrize("app", ["lda", "lda-1d"])
    def test_lda_registers_its_kernel_because_synthesis_declines(self, app):
        program = APPS[app](_cluster(), "auto")
        loop = program.train_loop
        declined = synthesize_kernel(loop.body, loop.info)
        assert not declined.engaged
        assert {d.code for d in declined.diagnostics} == {"W501"}
        assert callable(loop.executor.kernel)
        assert loop.executor.kernel_path


# --------------------------------------------------------------------------- #
# bit-identity: kernel="auto" vs the scalar interpreter, both backends
# --------------------------------------------------------------------------- #


class TestAutoMatchesScalar:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_simulated(self, app):
        scalar = APPS[app](_cluster(), "off", validate=True)
        auto = APPS[app](_cluster(), "auto", validate=True)
        scalar_results = [scalar.epoch_fn() for _ in range(3)]
        auto_results = [auto.epoch_fn() for _ in range(3)]
        _assert_same_state(_state(scalar), _state(auto))
        assert _epoch_signature(scalar_results) == _epoch_signature(
            auto_results
        )
        assert scalar.loss_fn() == auto.loss_fn()

    # gbt is absent: its boosting round interleaves three loops over the
    # same arrays, which backend="multiprocess" refuses (see below).
    @pytest.mark.parametrize("app", sorted(set(APPS) - {"gbt"}))
    def test_multiprocess(self, app):
        scalar = APPS[app](_cluster(), "off", backend="multiprocess")
        auto = APPS[app](_cluster(), "auto", backend="multiprocess")
        with scalar, auto:  # releases forked workers + shared memory
            scalar_results = [scalar.epoch_fn()]
            auto_results = [auto.epoch_fn()]
        _assert_same_state(_state(scalar), _state(auto))
        assert _epoch_signature(scalar_results, real_clock=True) == \
            _epoch_signature(auto_results, real_clock=True)

    def test_multiprocess_refuses_interleaved_multi_loop(self):
        """GBT's round interleaves three loops over shared arrays; the
        shared-memory pool raises rather than splitting forked workers
        across stale segments."""
        program = _gbt(_cluster(), "auto", backend="multiprocess")
        with program, pytest.raises(ExecutionError, match="already shared"):
            program.epoch_fn()

    # slr-adarev is absent: its apply UDF keeps AdaGrad state outside the
    # DistArrays, which the check's rewind cannot restore.
    @pytest.mark.parametrize("app", sorted(set(ENGAGES) - {"slr-adarev"}))
    def test_equivalence_checked_epoch(self, app):
        """The executor's own bitwise check passes over synthesized kernels."""
        program = APPS[app](
            _cluster(), "auto", validate=True, equivalence_check=True
        )
        program.epoch_fn()

    @pytest.mark.parametrize("app", ["mf", "slr"])
    @pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
    def test_sanitized_run_clean(self, app, backend):
        """Sanitized runs (S601-S604) stay clean with kernel='auto'."""
        program = APPS[app](_cluster(), "auto", sanitize=True, backend=backend)
        with program:
            program.epoch_fn()


# --------------------------------------------------------------------------- #
# hypothesis: synthesis never changes results when it engages
# --------------------------------------------------------------------------- #


@st.composite
def _mf_instances(draw):
    rows = draw(st.integers(min_value=3, max_value=12))
    cols = draw(st.integers(min_value=3, max_value=12))
    num = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    step = draw(st.floats(min_value=1e-4, max_value=0.5))
    return rows, cols, num, seed, step


@given(_mf_instances())
@settings(max_examples=12, deadline=None)
def test_property_synthesis_never_changes_results(instance):
    """For random MF-like programs, an engaged synthesized kernel is
    bit-identical to the scalar interpreter — state and traffic stats —
    with each schedule step of the 2x2 cluster fused into one call."""
    rows, cols, num, seed, step = instance
    rng = np.random.default_rng(seed)
    keys = {
        (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
        for _ in range(num)
    }
    entries = [(key, float(rng.standard_normal())) for key in sorted(keys)]
    init_w = rng.standard_normal((4, rows)) * 0.1
    init_h = rng.standard_normal((4, cols)) * 0.1

    def build(kernel):
        ctx = OrionContext(cluster=ClusterSpec(2, 2), seed=0)
        space = ctx.from_entries(entries, name="space", shape=(rows, cols))
        ctx.materialize(space)
        W = ctx.zeros(4, rows, name="W")
        H = ctx.zeros(4, cols, name="H")
        ctx.materialize(W, H)
        W.values[:] = init_w
        H.values[:] = init_h

        def body(key, value):
            w = W[:, key[0]]
            h = H[:, key[1]]
            diff = value - w @ h
            W[:, key[0]] = w + step * diff * h
            H[:, key[1]] = h + step * diff * w

        loop = ctx.parallel_for(space, options=LoopOptions(kernel=kernel))(body)
        return loop, W, H

    scalar_loop, sw, sh = build("off")
    auto_loop, aw, ah = build("auto")
    assert auto_loop.synthesis().engaged
    # `step * diff`, which both updates spell out, is evaluated once in
    # the replay arm and once in the vector arm.
    source = auto_loop.synthesis().source
    assert source.count("step * _s_diff") == 1
    assert source.count("step * _v_diff") == 1
    assert auto_loop.synthesis().fusable
    calls = []
    kernel = auto_loop.executor.kernel
    auto_loop.executor.kernel = lambda block, kctx: (
        calls.append(len(kctx.records)), kernel(block, kctx)
    )
    scalar_results = scalar_loop.run()
    auto_results = auto_loop.run()
    steps = auto_loop.executor.steps
    assert calls == [len(step) for step in steps]
    assert max(calls) >= 3  # every step really is several blocks
    assert np.array_equal(sw.values, aw.values)
    assert np.array_equal(sh.values, ah.values)
    assert [r.bytes_sent for r in scalar_results] == [
        r.bytes_sent for r in auto_results
    ]


# --------------------------------------------------------------------------- #
# the segmented tier: ragged inner loops over buffered writes
# --------------------------------------------------------------------------- #


def _ragged_entries(rng, num_samples, num_ids, max_len=9, empty_every=5):
    """SLR-shaped entries whose feature lists have 0..max_len items over
    ``num_ids`` ids (duplicates inside a sample included)."""
    entries = []
    for sample in range(num_samples):
        length = 0 if sample % empty_every == 0 else \
            int(rng.integers(0, max_len + 1))
        features = [
            (int(rng.integers(0, num_ids)), float(rng.standard_normal()))
            for _ in range(length)
        ]
        entries.append(((sample,), (features, int(rng.integers(0, 2)))))
    return entries


class _Ragged:
    """One SLR-shaped loop over hand-made entries: ``make_body(weights,
    weight_buf)`` returns the body, so each test spells its own."""

    def __init__(self, entries, extent, num_ids, make_body, kernel,
                 workers=4, combiner=None, **opts):
        ctx = OrionContext(cluster=ClusterSpec(1, workers), seed=0)
        samples = ctx.from_entries(entries, name="samples", shape=(extent,))
        ctx.materialize(samples)
        self.weights = ctx.zeros(num_ids, name="weights")
        ctx.materialize(self.weights)
        self.weights.values[:] = np.linspace(-1.0, 1.0, num_ids)
        self.buffer = ctx.dist_array_buffer(
            self.weights, combiner=combiner, name="weight_buf"
        )
        self.loop = ctx.parallel_for(
            samples,
            options=LoopOptions(kernel=kernel, balance=False, **opts),
        )(make_body(self.weights, self.buffer))
        self.executor = self.loop.executor

    def run_blocks(self, flush_local=True):
        """One pass through ``run_blocks`` directly, step by step."""
        executor = self.executor
        return [
            record for step in executor.steps
            for record in executor.run_blocks(
                step, executor._server_ids, flush_local=flush_local
            )
        ]

    def tiers(self):
        """Which path each block that ran took: the cached prep is a
        tuple where the segmented kernel ran, the guard's reason where
        the block was demoted to block-loop."""
        return {
            keys[0]: "block-loop" if isinstance(cache["_seg"], str)
            else "segmented"
            for keys, cache in self.executor._kernel_caches.items()
        }


def _slr_body(weights, weight_buf):
    def body(key, sample):
        features, target = sample
        margin = 0.0
        for fid, fval in features:
            margin = margin + weights[fid] * fval
        prob = 1.0 / (1.0 + np.exp(-margin))
        grad_scale = prob - target
        for fid, fval in features:
            weight_buf[fid] = -0.1 * grad_scale * fval

    return body


def _record_fields(record):
    """Every ``TaskRecord`` field two paths must agree on: all of them
    but ``kernel_calls`` (which path ran) and the real-clock window."""
    return {
        "block": record.task.block_key,
        "entries": record.entries,
        "server_reads": record.server_reads,
        "server_read_bytes": record.server_read_bytes,
        "flush_bytes": record.flush_bytes,
        "accesses": sorted(record.accesses),
        "shadow": record.shadow,
        # Insertion order is flush order; hex is bit-identity.
        "pending": {
            name: [(key, float(value).hex()) for key, value in slot.items()]
            for name, slot in record.pending.items()
        },
    }


def _assert_ragged_paths_agree(build, epochs=2):
    """``build(kernel)`` twice; block records and weights must match bit
    for bit whether buffers flush locally or hand their writes over."""
    for flush_local in (True, False):
        scalar, auto = build("off"), build("auto")
        for _ in range(epochs):
            ref = scalar.run_blocks(flush_local)
            got = auto.run_blocks(flush_local)
            assert [r.kernel_calls for r in got] == [1] * len(got)
            assert [_record_fields(r) for r in ref] == \
                [_record_fields(r) for r in got]
            assert np.array_equal(scalar.weights.values, auto.weights.values)
            assert scalar.buffer.pending_count() == auto.buffer.pending_count()
    return scalar, auto


class TestSegmentedTier:
    def test_ragged_edge_cases_match_scalar_block_by_block(self):
        """Empty feature lists, a one-entry block, an empty block, an id
        repeated inside a sample and one id in every sample — records
        (validation accesses included) and state, through ``run_blocks``."""
        rng = np.random.default_rng(1)
        entries = [
            entry for entry in _ragged_entries(rng, 40, 9)
            # block 1 (samples 10..19) keeps one entry, block 2 none
            if not 10 <= entry[0][0] < 30 or entry[0][0] == 13
        ]
        entries = [
            (key, (features + [(2, 0.5)], label)) if features else
            (key, (features, label))
            for key, (features, label) in entries
        ]  # id 2 in every non-empty sample
        key, (features, label) = entries[1]
        entries[1] = (key, ([(4, 1.5), (4, -0.25), (4, 2.0)] + features, label))

        def build(kernel):
            return _Ragged(entries, 40, 9, _slr_body, kernel, validate=True)

        _scalar, auto = _assert_ragged_paths_agree(build)
        sizes = [len(auto.executor.partitions.block(w, 0)) for w in range(4)]
        assert sizes[1:3] == [1, 0] and min(sizes[0], sizes[3]) > 1
        assert auto.executor.kernel_tier == "synth:segmented"
        assert set(auto.tiers().values()) == {"segmented"}
        assert any(not features for _key, (features, _l) in entries)

    def test_nonzero_init_two_reductions_and_entry_level_reads(self):
        """A reduction that starts from a non-zero expression, a second
        reduction in the same loop, an element-level temporary, ``+=``,
        and a point read subscripted by the loop index."""
        rng = np.random.default_rng(2)
        entries = _ragged_entries(rng, 24, 24)

        def make_body(weights, weight_buf):
            def body(key, sample):
                features, target = sample
                margin = 0.5 - target
                norm = 1.0
                for fid, fval in features:
                    term = weights[fid] * fval
                    margin = margin + term
                    norm += fval * fval
                scale = np.tanh(margin) / norm + weights[key[0]]
                for fid, fval in features:
                    weight_buf[fid] = scale * fval

            return body

        def build(kernel):
            return _Ragged(entries, 24, 24, make_body, kernel, validate=True)

        _scalar, auto = _assert_ragged_paths_agree(build)
        assert auto.executor.kernel_tier == "synth:segmented"
        source = auto.loop.synthesis().source
        assert source.count("for _alive, _pos in") == 1  # one level loop
        assert source.count("[_alive] + ") == 2          # two reductions

    @pytest.mark.parametrize("construct", [
        "foreign-iterable", "product-reduction", "branch", "combiner",
        "array-write",
    ])
    def test_declines_fall_to_block_loop_with_a_note(self, construct):
        rng = np.random.default_rng(3)
        entries = _ragged_entries(rng, 24, 24)
        extra = [(1, 0.5), (3, -1.0)]

        def make_body(weights, weight_buf):
            def foreign_iterable(key, sample):
                features, target = sample
                margin = 0.0
                for fid, fval in extra:
                    margin = margin + weights[fid] * fval
                for fid, fval in features:
                    weight_buf[fid] = (margin - target) * fval

            def product_reduction(key, sample):
                features, target = sample
                margin = 1.0
                for fid, fval in features:
                    margin = margin * (1.0 + 0.1 * weights[fid] * fval)
                for fid, fval in features:
                    weight_buf[fid] = (margin - target) * fval

            def branch(key, sample):
                features, target = sample
                margin = 0.0
                for fid, fval in features:
                    if fval > 0.0:
                        margin = margin + weights[fid] * fval
                for fid, fval in features:
                    weight_buf[fid] = (margin - target) * fval

            def array_write(key, sample):
                features, target = sample
                margin = 0.0
                for fid, fval in features:
                    margin = margin + fval
                weights[key[0]] = margin - target

            return {
                "foreign-iterable": foreign_iterable,
                "product-reduction": product_reduction,
                "branch": branch,
                "combiner": _slr_body(weights, weight_buf),
                "array-write": array_write,
            }[construct]

        def build(kernel):
            combiner = (lambda a, b: a + b) if construct == "combiner" else None
            return _Ragged(
                entries, 24, 24, make_body, kernel, combiner=combiner
            )

        auto = build("auto")
        synth = auto.loop.synthesis()
        assert synth.tier == "block-loop" and synth.fallback_source is None
        (reason,) = [
            note for note in synth.notes
            if note.startswith("segmented tier unavailable: ")
        ]
        assert {
            "foreign-iterable": "not a ragged field",
            "product-reduction": "not a `+` reduction",
            "branch": "branch inside an inner loop",
            "combiner": "custom combiner",
            "array-write": "direct write to DistArray",
        }[construct] in reason
        if construct == "array-write":
            # A 1D plan whose shared write is direct does not batch at all.
            assert auto.executor.kernel_tier == "scalar"
            return
        scalar = build("off")
        scalar.loop.run(2)
        auto.loop.run(2)
        assert np.array_equal(scalar.weights.values, auto.weights.values)

    def test_data_guard_demotes_only_the_block_that_fails_it(self):
        """What analysis cannot see is checked per block, once: a negative
        id (NumPy wraps it; the extent check does not) and a float32
        value each send their own block to the block-loop kernel of the
        same body, the clean blocks (one with an ``np.int64`` id) stay
        segmented, and the result is the scalar interpreter's, bit for
        bit."""
        rng = np.random.default_rng(4)
        entries = _ragged_entries(rng, 40, 9)
        spoil = {
            3: (-1, 0.75), 14: (5, np.float32(0.5)), 25: (np.int64(3), 1.0),
        }
        entries = [
            (key, (features + [spoil[key[0]]], label))
            if key[0] in spoil else (key, (features, label))
            for key, (features, label) in entries
        ]

        def build(kernel):
            return _Ragged(entries, 40, 9, _slr_body, kernel, validate=True)

        _scalar, auto = _assert_ragged_paths_agree(build)
        assert auto.tiers() == {
            (0, 0): "block-loop", (1, 0): "block-loop",
            (2, 0): "segmented", (3, 0): "segmented",
        }
        notes = [
            note for note in auto.loop.synthesis().notes if "demoted" in note
        ]
        assert len(notes) == 2
        assert any("outside the array extent" in note for note in notes)
        assert any("not a real number" in note for note in notes)

    def test_wrong_arity_item_raises_what_the_scalar_body_raises(self):
        """A 3-tuple among the pairs must not be flattened into shifted
        columns: the guard hands the block to block-loop, which fails
        the unpacking exactly as the interpreter does."""
        entries = _ragged_entries(np.random.default_rng(5), 12, 6)
        key, (features, label) = entries[2]
        entries[2] = (key, (features + [(1, 0.5, 9.0)], label))
        for kernel in ("off", "auto"):
            ragged = _Ragged(entries, 12, 6, _slr_body, kernel, workers=2)
            with pytest.raises(ValueError, match="too many values to unpack"):
                ragged.run_blocks()
        assert ragged.tiers()[(0, 0)] == "block-loop"
        assert "does not unpack into 2 names" in " ".join(
            ragged.loop.synthesis().notes
        )

    def test_integer_data_in_integer_arithmetic_is_demoted(self):
        """``count * fval`` is exact in Python when both are ints and
        rounds in float64 past 2**53: integers are accepted where the
        other operand is a float (the label in SLR), demoted where the
        body would do integer arithmetic on them."""
        big = 2**27 + 1
        entries = [
            ((0,), ([(1, big), (2, big)], 1)),
            ((1,), ([(0, 3), (1, -big)], 0)),
            ((2,), ([(1, 0.5)], 1.0)),
            ((3,), ([(2, 1.5), (0, -2.0)], 0.0)),
        ]

        def make_body(weights, weight_buf):
            def body(key, sample):
                features, count = sample
                total = 0.0
                for fid, fval in features:
                    total = total + fval * fval * fval
                for fid, fval in features:
                    weight_buf[fid] = total * (count + 1)

            return body

        def build(kernel):
            return _Ragged(entries, 4, 3, make_body, kernel, workers=2)

        _scalar, auto = _assert_ragged_paths_agree(build)
        assert auto.tiers() == {(0, 0): "block-loop", (1, 0): "segmented"}
        # The case the guard is for: float64 rounds twice, Python once.
        assert float(big) * float(big) * float(big) != float(big**3)

    def test_steady_state_never_iterates_the_block(self, monkeypatch):
        """After a block's first call everything the kernel needs is in
        ``kctx.cache``: hand it blocks whose ``__iter__`` raises."""
        entries = _ragged_entries(np.random.default_rng(6), 40, 9)
        scalar = _Ragged(entries, 40, 9, _slr_body, "off")
        auto = _Ragged(entries, 40, 9, _slr_body, "auto")
        scalar.loop.run(3)
        auto.loop.run(1)

        class Opaque(list):
            def __iter__(self):
                raise AssertionError("the steady-state kernel iterated block")

        blocks = auto.executor.partitions.blocks
        monkeypatch.setattr(
            auto.executor.partitions, "block",
            lambda space, time: Opaque(blocks.get((space, time), [])),
        )
        auto.loop.run(2)
        assert np.array_equal(scalar.weights.values, auto.weights.values)
        body_lines = [
            line for line in auto.loop.synthesis().source.splitlines()[1:]
            if "block" in line
        ]
        assert [line.strip() for line in body_lines] == [
            "_prep = kctx.cache['_seg'] = _segment(block)",
            "return _block_loop(block, kctx)",
        ]

    def test_fold_is_the_ordered_merge_hex_for_hex(self):
        """``direct_buffer_fold`` against N ``direct_buffer_write`` calls:
        duplicate-heavy keys, a lone ``-0.0``, cancellation — on an empty
        slot (one ``np.add.at``) and on a pre-seeded one (ordered
        merge)."""
        from repro.core import access
        from repro.core.buffers import DistArrayBuffer
        from repro.runtime.kernels import fold_slots

        rng = np.random.default_rng(7)
        target = DistArray.zeros(16, name="fold_target")
        target.materialize()
        for trial in range(60):
            size = int(rng.integers(1, 40))
            ids = rng.integers(0, 5, size=size)
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8)
            ids[-1], values[-1] = 15, -0.0       # a key written once, -0.0
            values[rng.integers(0, size - 1) if size > 1 else 0] = -0.0
            keys, slot_of = fold_slots(ids)
            for seeded in (False, True):
                one, many = DistArrayBuffer(target), DistArrayBuffer(target)
                with access.worker_scope(2):
                    if seeded:
                        one.direct_buffer_write(int(ids[0]), 0.3)
                        many.direct_buffer_write(int(ids[0]), 0.3)
                    for index, value in zip(ids.tolist(), values.tolist()):
                        one.direct_buffer_write(index, value)
                    many.direct_buffer_fold(keys, slot_of, values)
                ref, got = one.take_pending(2), many.take_pending(2)
                assert list(ref) == list(got)  # same insertion order
                assert [float(v).hex() for v in ref.values()] == \
                    [float(v).hex() for v in got.values()], (trial, seeded)


@st.composite
def _slr_instances(draw):
    samples = draw(st.integers(min_value=1, max_value=30))
    num_ids = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    step = draw(st.floats(min_value=1e-3, max_value=0.5))
    return samples, num_ids, seed, step


@given(_slr_instances())
@settings(max_examples=12, deadline=None)
def test_property_segmented_synthesis_never_changes_results(instance):
    """The ragged twin of the MF property: for random SLR-shaped data —
    feature lists of 0-9 items over at most 12 ids, so duplicates inside
    a sample and across a block dominate — the segmented kernel is
    bit-identical to the scalar interpreter, state and traffic."""
    samples, num_ids, seed, step = instance
    rng = np.random.default_rng(seed)
    entries = _ragged_entries(rng, samples, num_ids, empty_every=4)

    def make_body(weights, weight_buf):
        def body(key, sample):
            features, target = sample
            margin = 0.0
            for fid, fval in features:
                margin = margin + weights[fid] * fval
            prob = 1.0 / (1.0 + np.exp(-margin))
            for fid, fval in features:
                weight_buf[fid] = -step * (prob - target) * fval

        return body

    def build(kernel):
        return _Ragged(
            entries, samples, num_ids, make_body, kernel, workers=3,
            validate=True,
        )

    scalar, auto = build("off"), build("auto")
    assert auto.executor.kernel_tier == "synth:segmented"
    scalar_results = scalar.loop.run(2)
    auto_results = auto.loop.run(2)
    assert set(auto.tiers().values()) <= {"segmented"}
    assert np.array_equal(scalar.weights.values, auto.weights.values)
    assert _epoch_signature([scalar_results]) == \
        _epoch_signature([auto_results])


# --------------------------------------------------------------------------- #
# what the vector tier emits: each scalar once, each index bound once
# --------------------------------------------------------------------------- #


class TestGeneratedSource:
    def test_mf_scalars_evaluated_once(self):
        source = _mf(_cluster(), "auto").train_loop.synthesis().source
        prologue, group_loop = source.split("for _lo, _hi in _groups:")
        # The loop-invariant product leaves the group loop ...
        assert "= step_size * 2.0" in prologue
        assert "step_size" not in group_loop
        # ... the scalar both updates share is computed once per arm ...
        assert group_loop.count("* _s_diff") == 1
        assert group_loop.count("* _v_diff") == 1
        # ... and the replay arm reads each loop index once per entry.
        assert group_loop.count("_k0[_lo]") == 1
        assert group_loop.count("_k1[_lo]") == 1

    def test_index_aliases_and_offsets_replay_exactly(self):
        """``i, j = key``, an alias of an alias and ``i + 1`` all resolve
        to the per-entry index scalars, in both arms; a shared scalar
        built on a local stays inside the group loop."""
        rng = np.random.default_rng(3)
        keys = sorted({
            (int(rng.integers(0, 9)), int(rng.integers(0, 7)))
            for _ in range(45)
        })
        entries = [(key, float(rng.standard_normal())) for key in keys]
        side = rng.standard_normal((3, 10))

        def build(kernel):
            ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
            space = ctx.from_entries(entries, name="space", shape=(9, 7))
            ctx.materialize(space)
            W = ctx.randn(3, 9, name="W", scale=0.1)
            H = ctx.randn(3, 7, name="H", scale=0.1)
            S = ctx.zeros(3, 10, name="S")
            ctx.materialize(W, H, S)
            S.values[:] = side

            step = 0.2

            def body(key, value):
                i, j = key
                col = j
                rate = step * 0.5
                shifted = S[:, i + 1]
                W[:, i] = W[:, i] + rate * 2.0 * value * shifted
                H[:, col] = H[:, col] + rate * 2.0 * value * shifted

            loop = ctx.parallel_for(
                space,
                options=LoopOptions(kernel=kernel, equivalence_check=True),
            )(body)
            return loop, W, H

        scalar_loop, sw, sh = build("off")
        auto_loop, aw, ah = build("auto")
        source = auto_loop.synthesis().source
        assert auto_loop.executor.kernel_tier == "synth:vector"
        assert "_nd_S[:, _s_i0 + 1]" in source
        assert "_nd_H[:, _s_i1]" in source
        prologue, group_loop = source.split("for _lo, _hi in _groups:")
        assert "= step * 0.5" in prologue
        assert group_loop.count("_s_rate * 2.0") == 1
        scalar_loop.run(2)
        auto_loop.run(2)
        assert np.array_equal(sw.values, aw.values)
        assert np.array_equal(sh.values, ah.values)


def _bound_names(tree):
    """Every name a module or function binds: stores, parameters, defs."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


class TestGeneratedNames:
    """A name the generated source binds must never be one the body binds
    or reads: the generator reserves every name it emits."""

    @pytest.mark.parametrize("app", sorted(ENGAGES))
    def test_every_generated_name_is_reserved(self, app):
        from repro.analysis.synth import _is_reserved

        loop = APPS[app](_cluster(), "auto").train_loop
        synth = loop.synthesis()
        own = _bound_names(loop.info.tree)
        for source in (synth.source, synth.fallback_source):
            for name in _bound_names(ast.parse(source or "")) - own:
                assert _is_reserved(name), (app, name)

    def test_body_local_named_like_a_block_loop_temporary(self):
        """Block-loop binds each store's value to ``_v{n}``: a body local
        ``_v1`` must not be overwritten by the first store's value."""
        entries = [((i, j), float(i + j)) for i in range(8) for j in range(6)]

        def build(kernel):
            ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
            space = ctx.from_entries(entries, name="space", shape=(8, 6))
            W = ctx.zeros(8, name="W")
            H = ctx.zeros(6, name="H")
            ctx.materialize(space, W, H)
            hb = ctx.dist_array_buffer(H)

            def body(key, value):
                _v1 = value * 2.0
                W[key[0]] = value + 1.0
                if value > 3.0:
                    pass
                hb[key[1]] = _v1

            loop = ctx.parallel_for(
                space, options=LoopOptions(kernel=kernel)
            )(body)
            loop.run(1)
            return loop, W, H

        _scalar, sw, sh = build("off")
        auto, aw, ah = build("auto")
        assert np.array_equal(sh.values, 56.0 + 16.0 * np.arange(6))
        assert np.array_equal(sh.values, ah.values)
        assert np.array_equal(sw.values, aw.values)
        (diag,) = auto.synthesis().diagnostics
        assert diag.code == "W501" and "_v1" in diag.message


def _boundary_body(name, W, H, V, U, buf):
    """Bodies on the edge between the NumPy emitters and block-loop."""

    def fields_and_direct_write(key, value):
        a, b = value
        V[key[0]] = V[key[0]] + a * b
        U[key[1]] = U[key[1]] + a - b

    def buffered_write_no_inner_loop(key, value):
        buf[key[0]] = value * 2.0

    def rebound_local(key, value):
        d = value
        d = d + 1.0
        W[:, key[0]] = W[:, key[0]] + 0.1 * d * H[:, key[1]]
        H[:, key[1]] = H[:, key[1]] - 0.1 * d * W[:, key[0]]

    def augmented_local(key, value):
        d = value
        d += 1.0
        W[:, key[0]] = W[:, key[0]] + 0.1 * d * H[:, key[1]]
        H[:, key[1]] = H[:, key[1]] - 0.1 * d * W[:, key[0]]

    def augmented_array(key, value):
        W[:, key[0]] += 0.1 * value * H[:, key[1]]
        H[:, key[1]] += 0.1 * value * W[:, key[0]]

    return {
        "fields_and_direct_write": fields_and_direct_write,
        "buffered_write_no_inner_loop": buffered_write_no_inner_loop,
        "rebound_local": rebound_local,
        "augmented_local": augmented_local,
        "augmented_array": augmented_array,
    }[name]


class TestTierBoundary:
    """Where the one lowering hands a body to block-loop: each row is a
    body, the tier it must get, and ``auto`` bitwise equal to ``off``."""

    @pytest.mark.parametrize("body,tier", [
        ("fields_and_direct_write", "block-loop"),
        ("buffered_write_no_inner_loop", "block-loop"),
        ("rebound_local", "block-loop"),
        ("augmented_local", "block-loop"),
        ("augmented_array", "block-loop"),
    ])
    def test_tier_and_bitwise_equal_to_off(self, body, tier):
        rng = np.random.default_rng(12)
        keys = sorted({
            (int(rng.integers(0, 8)), int(rng.integers(0, 6)))
            for _ in range(36)
        })
        tuples = body == "fields_and_direct_write"
        entries = [
            (key, (float(rng.standard_normal()), float(rng.standard_normal()))
             if tuples else float(rng.standard_normal()))
            for key in keys
        ]

        def build(kernel):
            ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
            space = ctx.from_entries(entries, name="space", shape=(8, 6))
            W = ctx.randn(3, 8, name="W", scale=0.1)
            H = ctx.randn(3, 6, name="H", scale=0.1)
            V = ctx.zeros(8, name="V")
            U = ctx.zeros(6, name="U")
            ctx.materialize(space, W, H, V, U)
            buf = ctx.dist_array_buffer(V)
            loop = ctx.parallel_for(space, options=LoopOptions(
                kernel=kernel
            ))(_boundary_body(body, W, H, V, U, buf))
            loop.run(2)
            return loop, (W, H, V, U)

        _scalar, want = build("off")
        auto, got = build("auto")
        assert auto.synthesis().tier == tier
        assert auto.executor.kernel_tier == f"synth:{tier}"
        for ref, array in zip(want, got):
            assert np.array_equal(ref.values, array.values), array.name

    def test_return_inside_an_inner_loop_leaves_the_entry(self):
        """A bare ``return`` in an inner loop ends the entry, not the
        loop's current element: synthesis must not turn it into the
        block loop's ``continue`` of that inner loop."""
        rng = np.random.default_rng(13)
        entries = [
            ((sample,), [
                (int(rng.integers(0, 9)), float(rng.standard_normal()))
                for _ in range(int(rng.integers(1, 6)))
            ])
            for sample in range(24)
        ]

        def make_body(weights, weight_buf):
            def body(key, features):
                for fid, fval in features:
                    if fval < 0.0:
                        return
                    weight_buf[fid] = fval * weights[fid]

            return body

        scalar = _Ragged(entries, 24, 9, make_body, "off")
        auto = _Ragged(entries, 24, 9, make_body, "auto")
        scalar.loop.run(1)
        auto.loop.run(1)
        assert np.array_equal(scalar.weights.values, auto.weights.values)
        (diag,) = auto.loop.synthesis().diagnostics
        assert diag.code == "W501"
        assert "return inside an inner loop" in diag.message


# --------------------------------------------------------------------------- #
# diagnostics, explain, options plumbing
# --------------------------------------------------------------------------- #


class TestReporting:
    def test_explain_shows_generated_source(self):
        program = _mf(_cluster(), "auto")
        report = program.train_loop.explain()
        assert "Kernel synthesis" in report
        assert "synthesized kernel (tier: vector)" in report
        assert "_synth_kernel" in report

    def test_explain_shows_fallback(self):
        program = _mlp(_cluster(), "auto")
        report = program.train_loop.explain()
        assert "fell back to the scalar interpreter" in report
        assert "W501" in report

    def test_explain_without_synthesis_has_no_section(self):
        program = _mf(_cluster(), "off")
        assert "Kernel synthesis" not in program.train_loop.explain()

    def test_w503_when_plan_refuses_batching(self):
        """A vectorizable 1-D body with direct shared writes synthesizes,
        but the 1D plan cannot batch it — surfaced as W503."""
        ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
        space = ctx.from_entries(
            [((i,), float(i)) for i in range(8)], name="space", shape=(8,)
        )
        ctx.materialize(space)
        out = ctx.zeros(8, name="out")
        ctx.materialize(out)

        def body(key, value):
            out[key[0]] = value * 2.0

        loop = ctx.parallel_for(space)(body)
        assert loop.synthesis().engaged
        assert "W503" in {d.code for d in loop.diagnostics()}
        # The plan gate is the reason, not the synthesis itself.
        legal, reason = kernel_batching_legal(
            loop.info, loop.plan
        )
        assert not legal and "buffer" in reason

    def test_synth_report_helper(self):
        space = DistArray.from_entries(
            [((i,), 1.0) for i in range(4)], name="s", shape=(4,)
        )
        space.materialize()
        out = DistArray.zeros(4, name="out_sr")
        out.materialize()

        def body(key, value):
            out[key[0]] = value

        result, diagnostics = synth_report(body, space)
        assert result.engaged
        assert "W503" in {d.code for d in diagnostics}


class TestOptionPlumbing:
    def _space(self):
        ctx = OrionContext(cluster=ClusterSpec(1, 2), seed=0)
        space = ctx.from_entries(
            [((i,), 1.0) for i in range(4)], name="space", shape=(4,)
        )
        ctx.materialize(space)
        return ctx, space

    def test_executor_rejects_unknown_strings(self):
        ctx, space = self._space()

        def body(key, value):
            pass

        with pytest.raises(ExecutionError, match="unknown kernel mode"):
            ctx.parallel_for(space, options=LoopOptions(kernel="bogus"))(body)

    @pytest.mark.parametrize("off", ["off", None])
    def test_kernel_off(self, off):
        ctx, space = self._space()

        def body(key, value):
            pass

        loop = ctx.parallel_for(space, options=LoopOptions(kernel=off))(body)
        assert loop.executor.kernel is None
        assert loop.synthesis() is None


# --------------------------------------------------------------------------- #
# the vector tier's level schedule, end to end
# --------------------------------------------------------------------------- #


class TestLevelScheduledKernel:
    """Blocks big enough that the level schedule really moves entries
    (the app matrix above runs ~20-entry blocks)."""

    @staticmethod
    def _mf(kernel, **opts):
        data = netflix_like(
            num_rows=240, num_cols=192, num_ratings=8000, seed=5
        )
        return build_sgd_mf(
            data,
            cluster=ClusterSpec(num_machines=1, workers_per_machine=2),
            options=LoopOptions(kernel=kernel, pipeline_depth=1, **opts),
        )

    @pytest.mark.parametrize("backend", ["simulated", "multiprocess"])
    def test_mf_groups_are_wide_and_reported(self, backend):
        """Count-only guard: with the canonical in-block order a ~2000
        entry block of shuffled ratings schedules into groups tens of
        entries wide.  At 1.0x (every group a single entry) the "vector"
        kernel is a scalar interpreter with extra steps — the regime
        that consecutive-run grouping produced unnoticed."""
        with self._mf("auto", backend=backend) as program:
            loop = program.train_loop
            assert loop.run_summary()["level_schedule"] is None
            assert "level schedule:" not in loop.explain()
            loop.run(1)
            stats = loop.run_summary()["level_schedule"]
            assert stats["entries"] == 8000
            assert stats["mean_group_size"] >= 8
            assert stats["single_entry_share"] <= 0.1
            assert stats["groups"] * stats["mean_group_size"] == \
                pytest.approx(8000)
            assert (
                f"level schedule: 8000 entries in {stats['groups']} groups"
                in loop.explain()
            )
            loop.run(1)  # the report is of the schedule, not of the epochs
            assert loop.run_summary()["level_schedule"] == stats

    def test_ordered_2d_auto_matches_off_bitwise(self):
        """An ordered plan keeps dataset order inside a block, so the
        level schedule reorders heavily — and must not show."""
        with self._mf("off", ordered=True) as ref, \
                self._mf("auto", ordered=True) as got:
            assert got.train_loop.executor.kernel_tier == "synth:vector"
            for _ in range(2):
                ref.train_loop.run(1)
                got.train_loop.run(1)
                _assert_same_state(_state(ref), _state(got))
            stats = got.train_loop.run_summary()["level_schedule"]
            assert stats["groups"] < stats["entries"] / 2

    def test_equivalence_checked_epoch(self):
        with self._mf("auto", ordered=True, equivalence_check=True) as program:
            program.train_loop.run(1)

    def test_first_call_that_raises_can_be_run_again(self, monkeypatch):
        """The entry-order index arrays the accounting declarations read
        exist only on a block's first call, so the schedule is memoized
        after them: a first call that dies once the schedule is built
        must leave a cache the next call can start over from."""
        with self._mf("off") as ref, self._mf("auto") as got:
            H, values, armed = got.arrays["H"], DistArray.values.fget, [True]

            def interrupted_once(array):
                if array is H and armed:
                    armed.clear()
                    raise KeyboardInterrupt
                return values(array)

            monkeypatch.setattr(
                DistArray, "values", property(interrupted_once)
            )
            with pytest.raises(KeyboardInterrupt):
                got.train_loop.run(1)
            _assert_same_state(_state(ref), _state(got))  # nothing written
            ref.train_loop.run(1)
            got.train_loop.run(1)
            _assert_same_state(_state(ref), _state(got))
            assert got.train_loop.run_summary()["level_schedule"]["entries"] \
                == 8000


# --------------------------------------------------------------------------- #
# synthesis primitives
# --------------------------------------------------------------------------- #


class TestPrimitives:
    def test_scalar_pow_matches_python_pow_bitwise(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.01, 4.0, size=200)
        out = scalar_pow(base, 0.75)
        expected = np.array([b ** 0.75 for b in base])
        assert np.array_equal(out, expected)

    def test_scalar_pow_broadcasts(self):
        out = scalar_pow(np.array([[1.0, 2.0], [3.0, 4.0]]), 2.0)
        assert out.shape == (2, 2)
        assert np.array_equal(out, np.array([[1.0, 4.0], [9.0, 16.0]]))

    def test_synthesize_kernel_requires_recoverable_source(self):
        from repro.analysis.loop_info import analyze_loop_body

        space = DistArray.from_entries(
            [((i,), 1.0) for i in range(4)], name="s2", shape=(4,)
        )
        space.materialize()
        out = DistArray.zeros(4, name="out_ns")
        out.materialize()

        def body(key, value):
            out[key[0]] = value

        info = analyze_loop_body(body, space)
        info.tree = None
        result = synthesize_kernel(body, info)
        assert not result.engaged
        assert result.diagnostics[0].code == "W501"


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


class TestSynthCLI:
    def test_synth_mf_prints_kernel(self):
        out = io.StringIO()
        code = cli.main(["synth", "mf", "--scale", "0.2"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "synthesized kernel (tier: vector)" in text
        assert "_synth_kernel" in text

    def test_synth_check_runs_equivalence_epoch(self):
        out = io.StringIO()
        code = cli.main(["synth", "slr", "--scale", "0.2", "--check"], out=out)
        assert code == 0
        assert "equivalence check" in out.getvalue()

    @pytest.mark.parametrize(
        "app", ["mf", "mf-adarev", "glove", "slr", "gbt"]
    )
    def test_batchable_apps_survive_an_equivalence_checked_epoch(self, app):
        out = io.StringIO()
        code = cli.main(["synth", app, "--scale", "0.25", "--check"], out=out)
        assert code == 0
        assert "equivalence check: one epoch ran" in out.getvalue()

    @pytest.mark.parametrize("app", ["lda", "lda-1d"])
    def test_lda_declines_cleanly(self, app):
        out = io.StringIO()
        assert cli.main(["synth", app, "--scale", "0.25"], out=out) == 1
        assert "fell back" in out.getvalue()

    def test_synth_fallback_exits_nonzero(self):
        out = io.StringIO()
        code = cli.main(["synth", "lda", "--scale", "0.2"], out=out)
        assert code == 1
        assert "fell back" in out.getvalue()

    def test_lint_demo_covers_synthesis_codes(self):
        out = io.StringIO()
        cli.main(["lint", "demo"], out=out)
        text = out.getvalue()
        for code in ("W501", "W502", "W503"):
            assert code in text


# --------------------------------------------------------------------------- #
# columnar blocks: the synthesized tiers read block.keys / block.values
# --------------------------------------------------------------------------- #


class TestColumnarBlocks:
    """The vector and segmented tiers take a block's columns: no kernel
    call — first or steady-state — walks ``(key, value)`` tuples, and a
    plain list of entries is converted on entry."""

    APPS = ("mf", "mf-adarev", "glove", "slr-no-prefetch")

    @staticmethod
    def _seal(monkeypatch):
        from repro.runtime.partition import Block

        def walked(self, *_args):
            raise AssertionError("a kernel walked a block entry by entry")

        monkeypatch.setattr(Block, "__iter__", walked)
        monkeypatch.setattr(Block, "__getitem__", walked)

    # Forked workers inherit the sealed Block, so on multiprocess the
    # one-block vector dispatch is checked too.
    @pytest.mark.parametrize("app,backend", [
        *((app, "simulated") for app in APPS),
        *((app, "multiprocess") for app in ("mf", "mf-adarev", "glove")),
    ])
    def test_kernels_never_walk_a_block(self, app, backend, monkeypatch):
        reference = APPS[app](_cluster(), "auto", backend=backend)
        sealed = APPS[app](_cluster(), "auto", backend=backend)
        assert sealed.train_loop.executor.kernel_tier == AUTO_TIER[app]
        with reference, sealed:
            want = [reference.epoch_fn() for _ in range(3)]
            self._seal(monkeypatch)  # partitioning is done; now no walks
            got = [sealed.epoch_fn() for _ in range(3)]
            monkeypatch.undo()
        _assert_same_state(_state(reference), _state(sealed))
        if backend == "simulated":
            assert _epoch_signature(want) == _epoch_signature(got)
        if "slr" in app:
            caches = sealed.train_loop.executor._kernel_caches.values()
            assert all(isinstance(c["_seg"], tuple) for c in caches)

    @pytest.mark.parametrize("app", APPS)
    def test_a_plain_list_of_entries_still_works(self, app):
        reference = APPS[app](_cluster(), "auto", validate=True)
        listed = APPS[app](_cluster(), "auto", validate=True)
        blocks = listed.train_loop.executor.partitions.blocks
        for block_key, block in list(blocks.items()):
            blocks[block_key] = list(block)
        # One block per kernel call: a fused unit is concatenated columns.
        listed.train_loop.executor.synth.fusable = False
        want = [reference.epoch_fn() for _ in range(2)]
        got = [listed.epoch_fn() for _ in range(2)]
        _assert_same_state(_state(reference), _state(listed))
        assert _epoch_signature(want) == _epoch_signature(got)

    def test_blocks_hand_the_scalar_body_the_same_tuples(self):
        """kernel="off": every ``(key, value)`` the body, the validator
        and the sanitizer see is the dataset's, in value and type."""
        data = sparse_classification(
            num_samples=40, num_features=30, nnz_per_sample=4, seed=2
        )
        want = dict(data.entries)
        seen = {}
        ctx = OrionContext(cluster=_cluster(), seed=0)
        samples = ctx.from_entries(data.entries, name="s", shape=data.shape)
        hits = ctx.zeros(40, name="hits")
        ctx.materialize(samples, hits)

        def body(key, sample):
            seen[key] = sample
            hits[key[0]] = 1.0

        loop = ctx.parallel_for(samples, options=LoopOptions(
            kernel="off", validate=True, sanitize=True
        ))(body)
        loop.run(1)
        assert seen == want and hits.values.sum() == 40
        for key, sample in seen.items():
            assert type(key) is tuple and type(key[0]) is int
            assert sample is want[key]  # the very value objects
