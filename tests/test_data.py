"""Tests for synthetic dataset generators and text loaders (repro.data)."""

import numpy as np
import pytest

from repro.core.distarray import DistArray
from repro.data import (
    lda_corpus,
    netflix_like,
    parse_libsvm_line,
    parse_ratings_line,
    regression_table,
    sparse_classification,
    write_libsvm_file,
    write_ratings_file,
)
from repro.data.loader import parse_json_line, write_json_lines
from repro.errors import MaterializationError


class TestNetflixLike:
    def test_requested_count(self):
        data = netflix_like(num_rows=50, num_cols=40, num_ratings=500, seed=0)
        assert data.num_entries == 500

    def test_coordinates_in_bounds(self):
        data = netflix_like(num_rows=30, num_cols=20, num_ratings=200, seed=1)
        for (i, j), _v in data.entries:
            assert 0 <= i < 30
            assert 0 <= j < 20

    def test_no_duplicate_positions(self):
        data = netflix_like(num_rows=30, num_cols=20, num_ratings=300, seed=2)
        keys = [key for key, _v in data.entries]
        assert len(keys) == len(set(keys))

    def test_low_rank_structure_learnable(self):
        # Ratings must carry low-rank signal: variance of values far
        # exceeds the injected noise.
        data = netflix_like(
            num_rows=60, num_cols=50, num_ratings=1000, noise=0.01, seed=3
        )
        values = np.array([v for _k, v in data.entries])
        assert values.std() > 0.1

    def test_seed_determinism(self):
        a = netflix_like(num_ratings=100, seed=7)
        b = netflix_like(num_ratings=100, seed=7)
        assert a.entries == b.entries

    def test_skew_concentrates_rows(self):
        uniform = netflix_like(num_rows=100, num_ratings=2000, skew=0.0, seed=4)
        skewed = netflix_like(num_rows=100, num_ratings=2000, skew=1.5, seed=4)

        def top_row_share(data):
            counts = np.zeros(100)
            for (i, _j), _v in data.entries:
                counts[i] += 1
            return counts.max() / len(data.entries)

        assert top_row_share(skewed) > 2 * top_row_share(uniform)


class TestLdaCorpus:
    def test_entry_counts_sum_to_tokens(self, corpus_small):
        total = sum(count for _key, count in corpus_small.entries)
        assert total == corpus_small.total_tokens

    def test_coordinates_in_bounds(self, corpus_small):
        for (doc, word), _count in corpus_small.entries:
            assert 0 <= doc < corpus_small.num_docs
            assert 0 <= word < corpus_small.vocab_size

    def test_truth_distributions_normalized(self, corpus_small):
        topic_word = corpus_small.truth["topic_word"]
        assert np.allclose(topic_word.sum(axis=1), 1.0)

    def test_zipf_vocabulary_skew(self):
        corpus = lda_corpus(
            num_docs=100, vocab_size=200, doc_length=50, zipf_exponent=1.3, seed=5
        )
        counts = np.zeros(200)
        for (_doc, word), count in corpus.entries:
            counts[word] += count
        top_share = np.sort(counts)[::-1][:20].sum() / counts.sum()
        assert top_share > 0.4  # head-heavy vocabulary


class TestSparseClassification:
    def test_shapes(self, slr_small):
        assert slr_small.num_samples == len(slr_small.entries)

    def test_labels_binary(self, slr_small):
        labels = {label for _k, (_f, label) in slr_small.entries}
        assert labels <= {0, 1}

    def test_features_sorted_unique(self, slr_small):
        for _key, (features, _label) in slr_small.entries:
            ids = [fid for fid, _v in features]
            assert ids == sorted(set(ids))

    def test_labels_correlate_with_truth(self, slr_small):
        # The generative weights must actually predict the labels (so SLR
        # training has signal to find).
        weights = slr_small.truth["weights"]
        correct = 0
        for _key, (features, label) in slr_small.entries:
            margin = sum(weights[fid] * fval for fid, fval in features)
            correct += int((margin > 0) == (label == 1))
        assert correct / len(slr_small.entries) > 0.6


class TestRegressionTable:
    def test_shapes(self, table_small):
        assert table_small.features.shape == (
            table_small.num_samples,
            table_small.num_features,
        )
        assert len(table_small.entries) == table_small.num_samples

    def test_signal_dominates_noise(self, table_small):
        assert table_small.targets.std() > 0.3


class TestLoaders:
    def test_ratings_roundtrip(self, tmp_path, mf_small):
        path = str(tmp_path / "r.txt")
        count = write_ratings_file(path, mf_small.entries[:50])
        assert count == 50
        array = DistArray.text_file(path, parse_ratings_line).materialize()
        assert array.num_entries == 50
        key, value = mf_small.entries[0]
        assert array[key] == pytest.approx(value)

    def test_libsvm_roundtrip(self, tmp_path, slr_small):
        path = str(tmp_path / "s.txt")
        write_libsvm_file(path, slr_small.entries[:20])
        array = DistArray.text_file(
            path, parse_libsvm_line, shape=slr_small.shape
        ).materialize()
        key, (features, label) = slr_small.entries[3]
        loaded_features, loaded_label = array[key]
        assert loaded_label == label
        assert loaded_features == [(f, pytest.approx(v)) for f, v in features]

    def test_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.txt")
        entries = [((1, 2), [1.0, 2.0]), ((0, 0), "txt")]
        write_json_lines(path, entries)
        array = DistArray.text_file(path, parse_json_line).materialize()
        assert array[(1, 2)] == [1.0, 2.0]
        assert array[(0, 0)] == "txt"

    def test_bad_lines_raise(self):
        with pytest.raises(MaterializationError):
            parse_ratings_line("1 2")
        with pytest.raises(MaterializationError):
            parse_libsvm_line("1")
        with pytest.raises(MaterializationError):
            parse_json_line("{not json")


class TestSkewedSamplerHoisting:
    """``_skewed_coordinates`` builds its weight vector once per generator
    call; the entries are those of the per-draw version it replaced (same
    RNG stream)."""

    @staticmethod
    def _per_draw(rng, extent, count, skew):
        """The function as it was: weights rebuilt on every call."""
        if skew <= 0:
            return rng.integers(0, extent, size=count)
        weights = 1.0 / np.power(np.arange(1, extent + 1), skew)
        weights /= weights.sum()
        return rng.choice(extent, size=count, p=weights)

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("skew", [1.0, 0.0])
    def test_sparse_classification_unchanged(self, seed, skew):
        num_samples, num_features, nnz = 300, 200, 12
        rng = np.random.default_rng(seed)
        true_w = rng.standard_normal(num_features) / np.sqrt(nnz)
        want = []
        for sample in range(num_samples):
            ids = np.unique(self._per_draw(rng, num_features, nnz, skew))
            values = rng.standard_normal(len(ids))
            margin = float(true_w[ids] @ values)
            probability = 1.0 / (1.0 + np.exp(-margin))
            label = 1 if rng.random() < probability else 0
            want.append(((sample,), (
                [(int(f), float(v)) for f, v in zip(ids, values)], label
            )))
        got = sparse_classification(
            num_samples, num_features, nnz, feature_skew=skew, seed=seed
        )
        assert got.entries == want
        assert np.array_equal(got.truth["weights"], true_w)

    @pytest.mark.parametrize("seed", [5, 11])
    def test_sampler_draws_the_same_stream(self, seed):
        from repro.data.synthetic import _skewed_coordinates

        for skew in (0.0, 0.8, 1.5):
            draw = _skewed_coordinates(50, skew)
            ours, theirs = (np.random.default_rng(seed) for _ in range(2))
            for count in (7, 1, 40):
                assert np.array_equal(
                    draw(ours, count), self._per_draw(theirs, 50, count, skew)
                )
