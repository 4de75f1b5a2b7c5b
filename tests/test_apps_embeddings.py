"""Tests for the GloVe word-embedding application (repro.apps.embeddings)."""

import numpy as np
import pytest

from repro.analysis.strategy import PlacementKind, Strategy
from repro.apps.embeddings import (
    GloVeApp,
    GloVeHyper,
    build_orion_program,
    cooccurrence_corpus,
    glove_cost_model,
    glove_loss,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions


@pytest.fixture(scope="module")
def cooc():
    return cooccurrence_corpus(vocab_size=70, num_tokens=3500, seed=71)


@pytest.fixture
def cluster():
    return ClusterSpec(num_machines=2, workers_per_machine=2)


class TestCorpusGenerator:
    def test_symmetric_canonical_pairs(self, cooc):
        for (i, j), _count in cooc.entries:
            assert i <= j

    def test_counts_positive(self, cooc):
        assert all(count > 0 for _k, count in cooc.entries)

    def test_coordinates_in_vocab(self, cooc):
        for (i, j), _count in cooc.entries:
            assert 0 <= i < cooc.vocab_size
            assert 0 <= j < cooc.vocab_size

    def test_cluster_structure_in_cooccurrence(self, cooc):
        # Same-cluster pairs co-occur more often than cross-cluster pairs.
        cluster_of = cooc.meta["cluster_of"]
        same, cross = [], []
        for (i, j), count in cooc.entries:
            (same if cluster_of[i] == cluster_of[j] else cross).append(count)
        assert np.mean(same) > np.mean(cross)

    def test_determinism(self):
        a = cooccurrence_corpus(vocab_size=30, num_tokens=500, seed=5)
        b = cooccurrence_corpus(vocab_size=30, num_tokens=500, seed=5)
        assert a.entries == b.entries


class TestOrionProgram:
    def test_plan_is_two_d_unordered(self, cooc, cluster):
        program = build_orion_program(cooc, cluster=cluster)
        assert program.plan.strategy is Strategy.TWO_D
        assert not program.plan.ordered

    def test_word_and_bias_arrays_placed_together(self, cooc, cluster):
        # W and bw are both pinned by the word dimension; C and bc both by
        # the context dimension — the placement heuristic must group them.
        program = build_orion_program(cooc, cluster=cluster)
        placements = program.plan.placements
        assert placements["W"].kind is placements["bw"].kind
        assert placements["C"].kind is placements["bc"].kind
        assert placements["W"].kind is not placements["C"].kind
        assert {placements["W"].kind, placements["C"].kind} == {
            PlacementKind.LOCAL,
            PlacementKind.ROTATED,
        }

    def test_loss_decreases_sharply(self, cooc, cluster):
        program = build_orion_program(
            cooc, cluster=cluster, hyper=GloVeHyper(dim=6)
        )
        history = program.run(5)
        assert history.final_loss < 0.3 * history.meta["initial_loss"]

    def test_validation_clean(self, cooc, cluster):
        program = build_orion_program(
            cooc, cluster=cluster,
            options=LoopOptions(validate=True),
        )
        program.run(2)

    def test_embeddings_reflect_clusters(self, cooc, cluster):
        # After training, same-cluster words should be more similar than
        # cross-cluster words on average.
        program = build_orion_program(
            cooc, cluster=cluster, hyper=GloVeHyper(dim=6, step_size=0.05)
        )
        program.run(8)
        vectors = program.arrays["W"].values + program.arrays["C"].values
        vectors = vectors / np.maximum(
            np.linalg.norm(vectors, axis=0, keepdims=True), 1e-9
        )
        cluster_of = cooc.meta["cluster_of"]
        same, cross = [], []
        for (i, j), _count in cooc.entries[:400]:
            sim = float(vectors[:, i] @ vectors[:, j])
            (same if cluster_of[i] == cluster_of[j] else cross).append(sim)
        assert np.mean(same) > np.mean(cross)


class TestSerialApp:
    def test_serial_matches_loss_function(self, cooc):
        app = GloVeApp(cooc, GloVeHyper(dim=6))
        state = app.init_state(0)
        direct = glove_loss(
            state["W"], state["C"], state["bw"], state["bc"],
            cooc.entries, app.hyper,
        )
        assert app.loss(state) == pytest.approx(direct)

    def test_serial_training_converges(self, cooc):
        app = GloVeApp(cooc, GloVeHyper(dim=6))
        state = app.init_state(0)
        before = app.loss(state)
        for _ in range(3):
            for key, value in app.entries():
                app.apply_entry(state, key, value)
        assert app.loss(state) < 0.5 * before

    def test_bias_terms_move(self, cooc):
        app = GloVeApp(cooc)
        state = app.init_state(0)
        key, value = app.entries()[0]
        app.apply_entry(state, key, value)
        assert state["bw"][key[0]] != 0.0
        assert state["bc"][key[1]] != 0.0


class TestCostModel:
    def test_scales_with_dimension(self):
        small = glove_cost_model(GloVeHyper(dim=8))
        big = glove_cost_model(GloVeHyper(dim=32))
        assert big.entry_cost_s == pytest.approx(4 * small.entry_cost_s)
