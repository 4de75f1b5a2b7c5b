"""Synthetic dataset generators standing in for the paper's datasets.

The paper evaluates on Netflix (100M movie ratings), NYTimes and ClueWeb
corpora, and KDD2010 (Algebra).  None are redistributable here, so each
generator produces a scaled-down synthetic dataset with the same *access
pattern* and the same statistical structure that drives the evaluation:

* :func:`netflix_like` — a sparse low-rank-plus-noise rating matrix with
  optionally power-law (skewed) row/column popularity.  Exercises the 2D
  iteration space and the dependence structure of SGD MF.
* :func:`lda_corpus` — bag-of-words documents drawn from an LDA generative
  model with a Zipfian vocabulary.  Exercises doc-indexed and word-indexed
  parameter access of collapsed Gibbs sampling.
* :func:`sparse_classification` — sparse binary-classification samples with
  power-law feature frequency.  Exercises the data-dependent subscripts
  that defeat static analysis and motivate buffers + bulk prefetch.
* :func:`regression_table` — a dense tabular regression set for GBT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

__all__ = [
    "MFDataset",
    "CorpusDataset",
    "SLRDataset",
    "TableDataset",
    "netflix_like",
    "lda_corpus",
    "sparse_classification",
    "regression_table",
]

Entry = Tuple[Tuple[int, ...], Any]


@dataclass
class MFDataset:
    """A sparse rating matrix for matrix factorization.

    ``entries`` maps ``(row, col) -> rating``; ``rank`` is the generative
    rank (the training rank may differ, as in the paper's rank-1000 runs).
    """

    entries: List[Entry]
    num_rows: int
    num_cols: int
    rank: int
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int]:
        """Iteration-space shape (rows × cols)."""
        return (self.num_rows, self.num_cols)

    @property
    def num_entries(self) -> int:
        """Number of observed ratings."""
        return len(self.entries)


def _skewed_coordinates(
    extent: int, skew: float
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """A ``(rng, count) -> coordinates`` sampler over ``[0, extent)``;
    ``skew=0`` uniform, larger values increasingly power-law (few hot
    rows/users).  The ``extent``-long weight vector is built here, once,
    not per draw."""
    if skew <= 0:
        return lambda rng, count: rng.integers(0, extent, size=count)
    weights = 1.0 / np.power(np.arange(1, extent + 1), skew)
    weights /= weights.sum()
    return lambda rng, count: rng.choice(extent, size=count, p=weights)


def netflix_like(
    num_rows: int = 480,
    num_cols: int = 360,
    rank: int = 8,
    num_ratings: int = 20_000,
    noise: float = 0.1,
    skew: float = 0.0,
    seed: int = 0,
) -> MFDataset:
    """A low-rank + noise sparse rating matrix (Netflix stand-in).

    Ratings are ``u_i · v_j + noise`` at ``num_ratings`` distinct random
    positions; with ``skew > 0`` row/column popularity is power-law, which
    is what the histogram-balanced partitioner exists for.
    """
    rng = np.random.default_rng(seed)
    row_factors = rng.standard_normal((num_rows, rank)) / np.sqrt(rank)
    col_factors = rng.standard_normal((num_cols, rank)) / np.sqrt(rank)
    draw_rows = _skewed_coordinates(num_rows, skew)
    draw_cols = _skewed_coordinates(num_cols, skew)
    seen = set()
    entries: List[Entry] = []
    # Oversample then dedupe to hit the requested count.
    attempts = 0
    while len(entries) < num_ratings and attempts < 20:
        remaining = num_ratings - len(entries)
        rows = draw_rows(rng, remaining * 2)
        cols = draw_cols(rng, remaining * 2)
        for i, j in zip(rows, cols):
            position = (int(i), int(j))
            if position in seen:
                continue
            seen.add(position)
            value = float(
                row_factors[i] @ col_factors[j] + noise * rng.standard_normal()
            )
            entries.append((position, value))
            if len(entries) >= num_ratings:
                break
        attempts += 1
    return MFDataset(
        entries=entries,
        num_rows=num_rows,
        num_cols=num_cols,
        rank=rank,
        meta={"noise": noise, "skew": skew, "seed": seed},
    )


@dataclass
class CorpusDataset:
    """A bag-of-words corpus for LDA.

    ``entries`` maps ``(doc, word) -> occurrence count``; ``truth`` holds
    the generative topic-word distributions for sanity checks.
    """

    entries: List[Entry]
    num_docs: int
    vocab_size: int
    num_topics: int
    total_tokens: int
    truth: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int]:
        """Iteration-space shape (docs × vocabulary)."""
        return (self.num_docs, self.vocab_size)


def lda_corpus(
    num_docs: int = 300,
    vocab_size: int = 400,
    num_topics: int = 10,
    doc_length: int = 60,
    zipf_exponent: float = 1.1,
    seed: int = 0,
) -> CorpusDataset:
    """Documents drawn from an LDA generative model (NYTimes stand-in).

    Topic-word distributions are Dirichlet over a Zipf-reweighted
    vocabulary, so word frequencies are realistically skewed.
    """
    rng = np.random.default_rng(seed)
    base = 1.0 / np.power(np.arange(1, vocab_size + 1), zipf_exponent)
    topic_word = rng.dirichlet(base * vocab_size * 0.1, size=num_topics)
    doc_topic = rng.dirichlet(np.full(num_topics, 0.3), size=num_docs)
    counts: Dict[Tuple[int, int], int] = {}
    total = 0
    for doc in range(num_docs):
        topics = rng.choice(num_topics, size=doc_length, p=doc_topic[doc])
        for topic in topics:
            word = int(rng.choice(vocab_size, p=topic_word[topic]))
            counts[(doc, word)] = counts.get((doc, word), 0) + 1
            total += 1
    entries: List[Entry] = [
        ((doc, word), count) for (doc, word), count in sorted(counts.items())
    ]
    return CorpusDataset(
        entries=entries,
        num_docs=num_docs,
        vocab_size=vocab_size,
        num_topics=num_topics,
        total_tokens=total,
        truth={"topic_word": topic_word, "doc_topic": doc_topic},
    )


@dataclass
class SLRDataset:
    """Sparse binary classification data for logistic regression.

    ``entries`` maps ``(sample,) -> (features, label)`` where ``features``
    is a list of ``(feature_id, value)`` pairs — the data-dependent weight
    subscripts of SLR.
    """

    entries: List[Entry]
    num_samples: int
    num_features: int
    truth: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int]:
        """Iteration-space shape (samples,)."""
        return (self.num_samples,)


def sparse_classification(
    num_samples: int = 2_000,
    num_features: int = 1_000,
    nnz_per_sample: int = 12,
    feature_skew: float = 1.0,
    seed: int = 0,
) -> SLRDataset:
    """Sparse logistic-regression data (KDD2010 stand-in).

    Feature occurrence is power-law (like n-gram features in KDD2010), so
    a handful of weights are read by nearly every sample — the hot keys a
    parameter server must serve.
    """
    rng = np.random.default_rng(seed)
    true_w = rng.standard_normal(num_features) / np.sqrt(nnz_per_sample)
    draw_features = _skewed_coordinates(num_features, feature_skew)
    entries: List[Entry] = []
    for sample in range(num_samples):
        ids = np.unique(draw_features(rng, nnz_per_sample))
        values = rng.standard_normal(len(ids))
        margin = float(true_w[ids] @ values)
        probability = 1.0 / (1.0 + np.exp(-margin))
        label = 1 if rng.random() < probability else 0
        features = [(int(f), float(v)) for f, v in zip(ids, values)]
        entries.append(((sample,), (features, label)))
    return SLRDataset(
        entries=entries,
        num_samples=num_samples,
        num_features=num_features,
        truth={"weights": true_w},
    )


@dataclass
class TableDataset:
    """Dense tabular regression data for gradient boosted trees.

    ``entries`` maps ``(sample,) -> (feature_vector, target)``.
    """

    entries: List[Entry]
    num_samples: int
    num_features: int
    features: np.ndarray = None
    targets: np.ndarray = None

    @property
    def shape(self) -> Tuple[int]:
        """Iteration-space shape (samples,)."""
        return (self.num_samples,)


def regression_table(
    num_samples: int = 1_500,
    num_features: int = 8,
    noise: float = 0.1,
    seed: int = 0,
) -> TableDataset:
    """A nonlinear additive regression problem that trees can fit well."""
    rng = np.random.default_rng(seed)
    features = rng.random((num_samples, num_features))
    targets = (
        np.sin(3.0 * features[:, 0])
        + (features[:, 1] > 0.5).astype(float)
        + 0.5 * features[:, 2] * features[:, 3 % num_features]
        + noise * rng.standard_normal(num_samples)
    )
    entries: List[Entry] = [
        ((i,), (features[i].copy(), float(targets[i])))
        for i in range(num_samples)
    ]
    return TableDataset(
        entries=entries,
        num_samples=num_samples,
        num_features=num_features,
        features=features,
        targets=targets,
    )
