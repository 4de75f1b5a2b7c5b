"""Tests for the LDA application (repro.apps.lda)."""

import inspect

import numpy as np
import pytest

from repro.analysis.strategy import PlacementKind, Strategy
from repro.apps import lda as lda_module
from repro.apps.lda import (
    LDAApp,
    LDAHyper,
    _initial_assignments,
    build_orion_program,
    lda_log_likelihood,
)
from repro.data.synthetic import CorpusDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


def _count_invariants(doc_topic, word_topic, topic_sum, total_tokens):
    assert doc_topic.sum() == pytest.approx(total_tokens)
    assert word_topic.sum() == pytest.approx(total_tokens)
    assert topic_sum.sum() == pytest.approx(total_tokens)
    assert (doc_topic >= 0).all()
    assert (word_topic >= 0).all()
    assert (topic_sum >= 0).all()


class TestOrionProgram:
    def test_plan_is_two_d_unordered(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        assert program.plan.strategy is Strategy.TWO_D
        assert not program.plan.ordered

    def test_topic_sum_on_server(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        assert program.plan.placements["topic_sum"].kind is PlacementKind.SERVER
        assert program.plan.uses_buffers

    def test_counts_stay_consistent_after_epochs(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        program.run(3)
        _count_invariants(
            program.arrays["doc_topic"].values,
            program.arrays["word_topic"].values,
            program.arrays["topic_sum"].values,
            corpus_small.total_tokens,
        )

    def test_likelihood_improves(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=LDAHyper(num_topics=4)
        )
        history = program.run(5)
        assert history.final_loss < history.meta["initial_loss"]

    def test_validation_clean(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            options=LoopOptions(validate=True),
        )
        program.run(2)


class TestSerialApp:
    def test_apply_entry_preserves_counts(self, corpus_small):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        state = app.init_state(0)
        for key, value in app.entries()[:20]:
            app.apply_entry(state, key, value)
        _count_invariants(
            state["doc_topic"],
            state["word_topic"],
            state["topic_sum"],
            corpus_small.total_tokens,
        )

    def test_serial_pass_improves_likelihood(self, corpus_small):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        state = app.init_state(0)
        before = app.loss(state)
        for _ in range(3):
            for key, value in app.entries():
                app.apply_entry(state, key, value)
        assert app.loss(state) < before

    def test_init_state_resets_assignments(self, corpus_small):
        app = LDAApp(corpus_small, LDAHyper(num_topics=4))
        state = app.init_state(0)
        for key, value in app.entries():
            app.apply_entry(state, key, value)
        fresh = app.init_state(0)
        _count_invariants(
            fresh["doc_topic"],
            fresh["word_topic"],
            fresh["topic_sum"],
            corpus_small.total_tokens,
        )

    def test_entry_cost_scales_with_topics(self, corpus_small):
        few = LDAApp(corpus_small, LDAHyper(num_topics=4))
        many = LDAApp(corpus_small, LDAHyper(num_topics=16))
        assert many.entry_cost_factor > few.entry_cost_factor


class TestOneDVariant:
    """Table 2 lists LDA as "2D Unordered, 1D": the 1D program partitions
    over documents and buffers the word-topic updates too."""

    def test_plan_is_one_d_over_docs(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        assert program.plan.strategy is Strategy.ONE_D
        assert program.plan.space_dim == 0

    def test_word_topic_buffered_to_server(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        assert program.plan.placements["word_topic"].kind is PlacementKind.SERVER
        assert program.plan.placements["doc_topic"].kind is PlacementKind.LOCAL

    def test_converges(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        history = program.run(4)
        assert history.final_loss < history.meta["initial_loss"]

    def test_counts_stay_consistent(self, corpus_small, cluster_tiny):
        program = build_orion_program(
            corpus_small,
            cluster=cluster_tiny,
            hyper=LDAHyper(num_topics=4),
            parallelism="1d",
        )
        program.run(2)
        _count_invariants(
            program.arrays["doc_topic"].values,
            program.arrays["word_topic"].values,
            program.arrays["topic_sum"].values,
            corpus_small.total_tokens,
        )

    def test_unknown_parallelism_rejected(self, corpus_small, cluster_tiny):
        with pytest.raises(ValueError):
            build_orion_program(
                corpus_small, cluster=cluster_tiny, parallelism="3d"
            )


# --------------------------------------------------------------------- #
# The block sampler (the kernel both parallelisms register) against the  #
# scalar body, and the vectorized helpers against the loops they were.   #
# --------------------------------------------------------------------- #


def _corpus(num_docs, vocab_size, pairs, max_count, seed):
    """A hand-made corpus: ``pairs`` distinct (doc, word) cells, key
    ordered, with counts 1..max_count."""
    rng = np.random.default_rng(seed)
    cells = rng.choice(num_docs * vocab_size, size=pairs, replace=False)
    counts = rng.integers(1, max_count + 1, size=pairs).tolist()
    entries = [
        ((int(cell) // vocab_size, int(cell) % vocab_size), count)
        for cell, count in sorted(zip(cells.tolist(), counts))
    ]
    return CorpusDataset(
        entries=entries, num_docs=num_docs, vocab_size=vocab_size,
        num_topics=0, total_tokens=sum(counts),
    )


def _build(corpus, kernel, parallelism, hyper):
    program = build_orion_program(
        corpus,
        cluster=ClusterSpec(num_machines=1, workers_per_machine=3),
        hyper=hyper,
        parallelism=parallelism,
        seed=3,
        options=LoopOptions(kernel=kernel, validate=True),
    )
    assert program.train_loop.executor.kernel_path == (kernel != "off")
    return program


def _run_blocks(program):
    """One pass, step by step, returning every block's record."""
    executor = program.train_loop.executor
    return [
        record for step in executor.steps
        for record in executor.run_blocks(step, executor._server_ids)
    ]


def _record_fields(record):
    return (
        record.task.block_key, record.entries, record.server_reads,
        record.server_read_bytes, record.flush_bytes,
        sorted(record.accesses), record.pending,
    )


def _sampler_rng(program):
    return inspect.getclosurevars(program.train_loop.body).nonlocals["rng"]


def _assert_same_state(scalar, auto):
    for name in ("doc_topic", "word_topic", "topic_sum"):
        assert np.array_equal(
            scalar.arrays[name].values, auto.arrays[name].values
        ), name
    ref = dict(scalar.arrays["assignments"].entries())
    got = dict(auto.arrays["assignments"].entries())
    assert ref.keys() == got.keys()
    assert all(np.array_equal(ref[key], got[key]) for key in ref)
    assert _sampler_rng(scalar).bit_generator.state == \
        _sampler_rng(auto).bit_generator.state


class TestBlockSampler:
    # NumPy's pairwise sum changes shape at 8 and at 128 addends.
    @pytest.mark.parametrize("num_topics", [3, 8, 9, 130])
    @pytest.mark.parametrize("parallelism", ["2d", "1d"])
    def test_bitwise_equal_to_scalar_body(self, parallelism, num_topics):
        corpus = _corpus(18, 14, 90, 10, seed=num_topics)
        assert max(count for _key, count in corpus.entries) == 10
        hyper = LDAHyper(num_topics=num_topics)
        scalar = _build(corpus, "off", parallelism, hyper)
        auto = _build(corpus, "auto", parallelism, hyper)
        for _epoch in range(2):
            ref, got = _run_blocks(scalar), _run_blocks(auto)
            assert [_record_fields(r) for r in ref] == \
                [_record_fields(r) for r in got]
            assert any(r.server_reads and r.flush_bytes for r in got)
            _assert_same_state(scalar, auto)
        fresh = np.random.default_rng(3 + 1).bit_generator.state
        assert _sampler_rng(auto).bit_generator.state != fresh

    @pytest.mark.parametrize("kernel", ["off", "auto"])
    @pytest.mark.parametrize("parallelism", ["2d", "1d"])
    def test_zero_mass_token_keeps_its_topic_and_draws_nothing(
        self, parallelism, kernel
    ):
        """With ``beta=0`` a word that occurs once has no mass on any
        topic once its token is taken out: ``scale <= 0``."""
        entries = [((doc, doc * 6 + j), 1) for doc in range(8) for j in range(6)]
        corpus = CorpusDataset(
            entries=entries, num_docs=8, vocab_size=48, num_topics=0,
            total_tokens=48,
        )
        program = _build(
            corpus, kernel, parallelism, LDAHyper(num_topics=2, beta=0.0)
        )
        # Every topic keeps tokens, so no 0/0 turns the zero mass into NaN.
        assert program.arrays["topic_sum"].values.min() >= 2
        before = program.arrays["assignments"].snapshot()
        counts = program.arrays["doc_topic"].values.copy()
        program.train_loop.run()
        after = dict(program.arrays["assignments"].entries())
        assert all(np.array_equal(before[key], after[key]) for key in before)
        assert np.array_equal(program.arrays["doc_topic"].values, counts)
        assert _sampler_rng(program).bit_generator.state == \
            np.random.default_rng(3 + 1).bit_generator.state

    def test_mixed_zero_and_positive_mass_matches_scalar(self):
        """Singleton words (zero mass, clipped zeros in ``probs``) beside
        shared ones that do draw."""
        entries = sorted(
            [((doc, doc), 1) for doc in range(10)]
            + [((doc, 10 + doc % 3), 2 + doc % 4) for doc in range(10)]
        )
        corpus = CorpusDataset(
            entries=entries, num_docs=10, vocab_size=13, num_topics=0,
            total_tokens=sum(count for _key, count in entries),
        )
        hyper = LDAHyper(num_topics=3, beta=0.0)
        for parallelism in ("2d", "1d"):
            scalar = _build(corpus, "off", parallelism, hyper)
            auto = _build(corpus, "auto", parallelism, hyper)
            for _epoch in range(2):
                assert [_record_fields(r) for r in _run_blocks(scalar)] == \
                    [_record_fields(r) for r in _run_blocks(auto)]
                _assert_same_state(scalar, auto)


def _initial_assignments_loop(dataset, num_topics, seed):
    """``_initial_assignments`` as it was: one draw call per entry, three
    scalar increments per token."""
    rng = np.random.default_rng(seed)
    doc_topic = np.zeros((dataset.num_docs, num_topics))
    word_topic = np.zeros((dataset.vocab_size, num_topics))
    topic_sum = np.zeros(num_topics)
    assignments = {}
    for (doc, word), count in dataset.entries:
        topics = rng.integers(0, num_topics, size=int(count))
        assignments[(doc, word)] = topics
        for topic in topics:
            doc_topic[doc, topic] += 1
            word_topic[word, topic] += 1
            topic_sum[topic] += 1
    return assignments, doc_topic, word_topic, topic_sum


def _log_likelihood_loop(doc_topic, word_topic, entries, alpha, beta):
    """``lda_log_likelihood`` as it was: one dot product per entry."""
    theta = doc_topic + alpha
    theta /= theta.sum(axis=1, keepdims=True)
    phi = word_topic + beta
    phi /= phi.sum(axis=0, keepdims=True)
    total = 0.0
    tokens = 0
    for (doc, word), count in entries:
        p = float(theta[doc] @ phi[word])
        total += count * np.log(max(p, 1e-300))
        tokens += count
    return total / max(tokens, 1)


class TestVectorizedHelpers:
    @pytest.mark.parametrize("seed", range(10))
    def test_initial_assignments_match_the_per_entry_loop(self, seed):
        corpus = _corpus(12, 9, 50, 10, seed=100 + seed)
        num_topics = (7, 8, 10)[seed % 3]
        ref = _initial_assignments_loop(corpus, num_topics, seed)
        got = _initial_assignments(corpus, num_topics, seed)
        assert list(ref[0]) == list(got[0])  # same keys, same order
        for key, topics in ref[0].items():
            assert topics.dtype == got[0][key].dtype
            assert np.array_equal(topics, got[0][key])
        for ref_counts, got_counts in zip(ref[1:], got[1:]):
            assert ref_counts.dtype == got_counts.dtype
            assert np.array_equal(ref_counts, got_counts)

    @pytest.mark.parametrize("seed", range(10))
    def test_one_draw_call_is_the_per_entry_stream(self, seed):
        """What the rewrite rests on: bounded integers come off the
        generator one at a time, so one call of the total size draws what
        per-entry calls draw and leaves the generator where they do."""
        counts = np.random.default_rng(seed).integers(0, 11, size=40)
        for num_topics in (7, 8, 10):
            each, once = np.random.default_rng(seed), np.random.default_rng(seed)
            parts = [each.integers(0, num_topics, size=int(c)) for c in counts]
            whole = once.integers(0, num_topics, size=int(counts.sum()))
            assert np.array_equal(np.concatenate(parts), whole)
            assert each.bit_generator.state == once.bit_generator.state
            assert each.random() == once.random()

    @pytest.mark.parametrize("num_topics", [4, 8, 11])
    def test_log_likelihood_hex_equal_to_the_per_entry_loop(
        self, corpus_small, cluster_tiny, num_topics
    ):
        hyper = LDAHyper(num_topics=num_topics)
        program = build_orion_program(
            corpus_small, cluster=cluster_tiny, hyper=hyper
        )
        app = LDAApp(corpus_small, hyper)
        for epochs in (0, 1, 4):  # after 0, 1 and 5 epochs
            for _ in range(epochs):
                program.train_loop.run()
            dt = program.arrays["doc_topic"].values
            wt = program.arrays["word_topic"].values
            ref = _log_likelihood_loop(
                dt, wt, corpus_small.entries, hyper.alpha, hyper.beta
            )
            assert float(ref).hex() == float(lda_log_likelihood(
                dt, wt, corpus_small.entries, hyper.alpha, hyper.beta
            )).hex()
            assert float(-ref).hex() == float(program.loss_fn()).hex()
            state = {"doc_topic": dt, "word_topic": wt}
            assert float(-ref).hex() == float(app.loss(state)).hex()

    def test_log_likelihood_across_slab_boundaries(self):
        corpus = _corpus(120, 90, 2 * lda_module._SLAB + 17, 3, seed=5)
        _assign, dt, wt, _ts = _initial_assignments(corpus, 9, seed=2)
        ref = _log_likelihood_loop(dt, wt, corpus.entries, 0.5, 0.1)
        got = lda_log_likelihood(dt, wt, corpus.entries, 0.5, 0.1)
        assert float(ref).hex() == float(got).hex()

    def test_log_likelihood_of_an_empty_corpus(self):
        assert lda_log_likelihood(np.ones((2, 3)), np.ones((4, 3)), [], 0.5, 0.1) == 0.0
