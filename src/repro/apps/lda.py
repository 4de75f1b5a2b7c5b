"""Latent Dirichlet Allocation by collapsed Gibbs sampling (Table 2 row 5).

The iteration space is the corpus' (doc, word) occurrence matrix.  Each
iteration resamples the topic of every token of one (doc, word) pair:

* ``doc_topic[key[0], :]`` — read/written, pinned by the doc dimension;
* ``word_topic[key[1], :]`` — read/written, pinned by the word dimension;
* ``assignments[key]`` — the pair's token topics (self-dependence only);
* ``topic_sum`` — the global per-topic counts, *updated through a
  DistArray Buffer*: a genuine cross-iteration dependence the program
  deliberately violates.  This is the paper's "non-critical dependence"
  relaxation in LDA — the counts are large aggregates, so slightly stale
  values perturb the sampling distribution negligibly.

Static analysis yields dependence vectors ``(0, +inf)`` and ``(+inf, 0)``
and parallelizes the loop 2D unordered, exactly the paper's Table 2 entry.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    Entry,
    OrionProgram,
    SerialApp,
)
from repro.data.synthetic import CorpusDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import pairwise_sum
from repro.runtime.options import LoopOptions
from repro.runtime.partition import Block
from repro.runtime.simtime import CostModel

__all__ = ["LDAHyper", "LDAApp", "build_orion_program", "lda_cost_model", "lda_log_likelihood"]


@dataclass(frozen=True)
class LDAHyper:
    """Collapsed Gibbs hyperparameters (symmetric Dirichlet priors)."""

    num_topics: int = 10
    alpha: float = 0.5
    beta: float = 0.1


def lda_cost_model(
    hyper: LDAHyper,
    tokens_per_entry: float = 1.5,
    base_entry_cost: float = 1e-6,
) -> CostModel:
    """Per-entry cost: one categorical sample per token, linear in topics.

    LDA moves complex per-row count data between workers, so marshalling
    is charged per rotated byte (the overhead the paper blames for Orion's
    LDA gap versus STRADS' pointer-swapping C++ runtime).
    """
    factor = (hyper.num_topics / 10.0) * tokens_per_entry
    return CostModel(entry_cost_s=base_entry_cost * factor)


def _initial_assignments(
    dataset: CorpusDataset, num_topics: int, seed: int
) -> Tuple[Dict[Tuple[int, int], np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Random topic init plus the consistent count matrices.

    One ``rng.integers`` call draws every token's topic: the bounded
    integers come off the generator one at a time, so the stream (and the
    generator's state afterwards) is that of one call per entry.  Each
    entry's tokens are a slice of that array, in ``dataset.entries`` order.
    """
    rng = np.random.default_rng(seed)
    docs, words, counts = _corpus_columns(dataset.entries)
    counts = counts.astype(np.intp)  # int(count) per entry
    topics = rng.integers(0, num_topics, size=int(counts.sum()))
    shape = (dataset.num_docs, dataset.vocab_size)
    doc_topic, word_topic = (
        np.bincount(
            np.repeat(rows, counts) * num_topics + topics,
            minlength=extent * num_topics,
        ).reshape(extent, num_topics).astype(float)
        for rows, extent in zip((docs, words), shape)
    )
    topic_sum = np.bincount(topics, minlength=num_topics).astype(float)
    ends = np.cumsum(counts).tolist()
    assignments = {
        key: topics[lo:hi]
        for (key, _count), lo, hi in zip(dataset.entries, [0] + ends, ends)
    }
    return assignments, doc_topic, word_topic, topic_sum


def _corpus_columns(
    entries: List[Entry],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(docs, words, counts)`` columns of a corpus entry list."""
    keys = np.array([key for key, _count in entries], dtype=np.intp)
    keys = keys.reshape(len(entries), 2)
    return keys[:, 0], keys[:, 1], np.array([count for _key, count in entries])


def lda_log_likelihood(
    doc_topic: np.ndarray,
    word_topic: np.ndarray,
    entries: List[Entry],
    alpha: float,
    beta: float,
) -> float:
    """Per-token predictive log likelihood from point-estimate posteriors.

    Higher is better; benchmarks report its negation so "lower is better"
    holds across all applications.
    """
    return _log_likelihood(
        doc_topic, word_topic, _corpus_columns(entries), alpha, beta
    )


#: Entries per batched product in :func:`_log_likelihood`.
_SLAB = 4096


def _log_likelihood(
    doc_topic: np.ndarray,
    word_topic: np.ndarray,
    columns: Tuple[np.ndarray, np.ndarray, np.ndarray],
    alpha: float,
    beta: float,
) -> float:
    """:func:`lda_log_likelihood` over pre-flattened ``_corpus_columns``.

    Bit-equal to accumulating ``count * log(theta[doc] @ phi[word])`` entry
    by entry: the batched ``matmul`` runs the same dot product per pair
    (``einsum`` and ``(a * b).sum(1)`` reduce in another order) and
    ``cumsum`` adds the terms left to right (``sum`` adds pairwise).
    """
    docs, words, counts = columns
    if not len(counts):
        return 0.0
    theta = doc_topic + alpha
    theta /= theta.sum(axis=1, keepdims=True)
    phi = word_topic + beta
    phi /= phi.sum(axis=0, keepdims=True)
    # In slabs: every entry's two rows gathered at once are 2 n T floats.
    p = np.concatenate([
        np.matmul(
            theta[docs[lo:lo + _SLAB], None, :], phi[words[lo:lo + _SLAB], :, None]
        )[:, 0, 0]
        for lo in range(0, len(counts), _SLAB)
    ])
    terms = counts * np.log(np.maximum(p, 1e-300))
    return np.cumsum(terms)[-1] / max(counts.sum(), 1)


def build_orion_program(
    dataset: CorpusDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: LDAHyper = LDAHyper(),
    parallelism: str = "2d",
    seed: int = 0,
    label: Optional[str] = None,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the LDA Orion program.

    ``parallelism="2d"`` (default) is the dependence-preserving collapsed
    Gibbs sampler described in the module docstring.  ``parallelism="1d"``
    is the paper's Table 2 alternative: partition over documents only, with
    *word-topic* updates routed through a buffer as well — trading the
    word-dimension dependences for a single-phase schedule (useful when
    the word dimension is too small or skewed to partition well).

    Kernel synthesis declines this body (W501), so under the default
    ``kernel="auto"`` the builder registers its own block kernel, one for
    both parallelisms (see ``kernel`` below): the same token loop over
    block-resident Python floats, consuming the shared RNG in the same
    order.
    """
    if parallelism not in ("2d", "1d"):
        raise ValueError(f"unknown LDA parallelism {parallelism!r}")
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    T = hyper.num_topics
    init_assign, dt0, wt0, ts0 = _initial_assignments(dataset, T, seed)

    corpus = ctx.from_entries(dataset.entries, name="corpus", shape=dataset.shape)
    ctx.materialize(corpus)
    assignments = ctx.from_entries(
        init_assign.items(), name="assignments", shape=dataset.shape
    )
    ctx.materialize(assignments)
    doc_topic = ctx.zeros(dataset.num_docs, T, name="doc_topic")
    word_topic = ctx.zeros(dataset.vocab_size, T, name="word_topic")
    topic_sum = ctx.zeros(T, name="topic_sum")
    ctx.materialize(doc_topic, word_topic, topic_sum)
    doc_topic.set_dense(dt0)
    word_topic.set_dense(wt0)
    topic_sum.set_dense(ts0)

    topic_buf = ctx.dist_array_buffer(topic_sum, name="topic_buf")
    alpha, beta = hyper.alpha, hyper.beta
    vbeta = beta * dataset.vocab_size
    rng = np.random.default_rng(seed + 1)
    word_buf = None

    if parallelism == "2d":

        def body(key, count):
            tokens = assignments[key[0], key[1]]
            dt_row = doc_topic[key[0], :].copy()
            wt_row = word_topic[key[1], :].copy()
            totals = topic_sum[:].copy()
            # probs[k] is elementwise in k and each draw perturbs only two
            # topics, so after the first full evaluation the vector is
            # maintained sparsely: recompute just the touched entries with
            # the identical scalar expression (bitwise-equal to a full
            # recompute).
            probs = None
            for position in range(len(tokens)):
                old = int(tokens[position])
                dt_row[old] -= 1.0
                wt_row[old] -= 1.0
                totals[old] -= 1.0
                if probs is None:
                    probs = np.maximum(
                        (dt_row + alpha) * (wt_row + beta) / (totals + vbeta),
                        0.0,
                    )
                else:
                    p = (
                        (dt_row[old] + alpha)
                        * (wt_row[old] + beta)
                        / (totals[old] + vbeta)
                    )
                    probs[old] = p if p > 0.0 else 0.0
                scale = probs.sum()
                if scale <= 0.0:
                    new = old
                else:
                    new = int(
                        np.searchsorted(np.cumsum(probs), rng.random() * scale)
                    )
                    new = min(new, len(probs) - 1)
                dt_row[new] += 1.0
                wt_row[new] += 1.0
                totals[new] += 1.0
                p = (
                    (dt_row[new] + alpha)
                    * (wt_row[new] + beta)
                    / (totals[new] + vbeta)
                )
                probs[new] = p if p > 0.0 else 0.0
                if new != old:
                    topic_buf[old] = -1.0
                    topic_buf[new] = 1.0
                tokens[position] = new
            doc_topic[key[0], :] = dt_row
            word_topic[key[1], :] = wt_row
            assignments[key[0], key[1]] = tokens
    else:
        # 1D over documents: doc-topic counts stay dependence-preserved
        # (pinned by key[0]); word-topic updates are buffered — an extra,
        # deliberately violated dependence (word rows are large aggregates,
        # like the topic totals).
        word_buf = ctx.dist_array_buffer(word_topic, name="word_buf")

        def body(key, count):
            tokens = assignments[key[0], key[1]]
            dt_row = doc_topic[key[0], :].copy()
            wt_row = word_topic[key[1], :].copy()
            totals = topic_sum[:].copy()
            # Sparse probability maintenance — see the 2D body.
            probs = None
            for position in range(len(tokens)):
                old = int(tokens[position])
                dt_row[old] -= 1.0
                wt_row[old] -= 1.0
                totals[old] -= 1.0
                if probs is None:
                    probs = np.maximum(
                        (dt_row + alpha) * (wt_row + beta) / (totals + vbeta),
                        0.0,
                    )
                else:
                    p = (
                        (dt_row[old] + alpha)
                        * (wt_row[old] + beta)
                        / (totals[old] + vbeta)
                    )
                    probs[old] = p if p > 0.0 else 0.0
                scale = probs.sum()
                if scale <= 0.0:
                    new = old
                else:
                    new = int(
                        np.searchsorted(np.cumsum(probs), rng.random() * scale)
                    )
                    new = min(new, len(probs) - 1)
                dt_row[new] += 1.0
                wt_row[new] += 1.0
                totals[new] += 1.0
                p = (
                    (dt_row[new] + alpha)
                    * (wt_row[new] + beta)
                    / (totals[new] + vbeta)
                )
                probs[new] = p if p > 0.0 else 0.0
                if new != old:
                    topic_buf[old] = -1.0
                    topic_buf[new] = 1.0
                    word_buf[key[1], old] = -1.0
                    word_buf[key[1], new] = 1.0
                tokens[position] = new
            doc_topic[key[0], :] = dt_row
            assignments[key[0], key[1]] = tokens

    scale_of = pairwise_sum(T)

    def kernel(block, kctx):
        """One block of the sampler, bit-equal to ``body`` per entry.

        The block's doc and word rows, the token arrays, ``topic_sum`` and
        ``probs`` are Python lists, so a token costs float arithmetic, one
        ``rng.random()`` and a replay of the body's three NumPy calls:
        ``probs.sum()`` is :func:`~repro.runtime.kernels.pairwise_sum`
        (NumPy's pairwise order for ``T`` addends), ``np.cumsum`` is
        ``itertools.accumulate`` (left to right, as NumPy adds) and
        ``np.searchsorted`` is ``bisect_left`` (the first running sum at
        or past the draw).  NumPy itself runs in two places: the first
        token's clip, when a candidate is zero, negative or NaN, and a
        non-finite ``scale``, whose running sums may hold NaN, which
        ``bisect`` does not order as ``searchsorted`` does.
        """
        if not len(block):
            return
        doc_col, word_col = Block.of(block).keys.T
        dense_dt, dense_wt = doc_topic.values, word_topic.values
        prep = kctx.cache.get("rows")
        if prep is None:
            # Each distinct doc / word row gets a slot, in first-use order.
            keys = [key for key, _count in block]
            doc_slots: Dict[int, int] = {}
            word_slots: Dict[int, int] = {}
            prep = kctx.cache["rows"] = (
                keys,
                [doc_slots.setdefault(doc, len(doc_slots)) for doc, _ in keys],
                [word_slots.setdefault(word, len(word_slots)) for _, word in keys],
                np.array(list(doc_slots), dtype=np.intp),
                np.array(list(word_slots), dtype=np.intp),
            )
        keys, doc_at, word_at, docs, words = prep
        dt_rows = dense_dt[docs].tolist()
        wt_rows = dense_wt[words].tolist()
        # topic_sum is written only through topic_buf, which flushes after
        # the block: the body's per-entry ``topic_sum[:]`` reads all see
        # these values.
        block_totals = topic_sum.values.tolist()
        draw, last, inf = rng.random, T - 1, math.inf
        topic_keys: list = []
        word_keys: list = []
        for tokens, key, doc_slot, word_slot in zip(
            assignments.bulk_get(keys), keys, doc_at, word_at
        ):
            dt = dt_rows[doc_slot]
            wt = wt_rows[word_slot]
            if word_buf is not None:
                # 1D: word rows change only through word_buf, so each entry
                # samples against a private copy of the block-start row.
                wt = wt[:]
            totals = block_totals[:]
            for position, old in enumerate(tokens.tolist()):
                dt[old] -= 1.0
                wt[old] -= 1.0
                totals[old] -= 1.0
                if position:
                    # Only the previous draw's topic and this token's moved
                    # since probs was last whole.
                    p = (dt[new] + alpha) * (wt[new] + beta) / (totals[new] + vbeta)
                    probs[new] = p if p > 0.0 else 0.0
                    p = (dt[old] + alpha) * (wt[old] + beta) / (totals[old] + vbeta)
                    probs[old] = p if p > 0.0 else 0.0
                else:
                    probs = [
                        (d + alpha) * (w + beta) / (t + vbeta)
                        for d, w, t in zip(dt, wt, totals)
                    ]
                    # The body's clip moves nothing unless a candidate is
                    # zero or negative (NaNs stay NaN either way).
                    if not min(probs) > 0.0:
                        probs = np.maximum(probs, 0.0).tolist()
                scale = scale_of(probs)
                if scale <= 0.0:
                    new = old
                else:
                    target = draw() * scale
                    if scale < inf:
                        new = bisect_left(list(accumulate(probs)), target)
                    else:
                        new = int(np.cumsum(probs).searchsorted(target))
                    if new > last:
                        new = last
                dt[new] += 1.0
                wt[new] += 1.0
                totals[new] += 1.0
                if new != old:
                    tokens[position] = new
                    topic_keys += (old, new)
                    if word_buf is not None:
                        word_keys += ((key[1], old), (key[1], new))
        dense_dt[docs] = dt_rows
        kctx.buffer_add(topic_buf, topic_keys, [-1.0, 1.0] * (len(topic_keys) // 2))
        if word_buf is None:
            dense_wt[words] = wt_rows
        else:
            kctx.buffer_add(word_buf, word_keys, [-1.0, 1.0] * (len(word_keys) // 2))
        kctx.account_point_reads(assignments, keys)
        kctx.account_row_reads(doc_topic, doc_col)
        kctx.account_row_reads(word_topic, word_col)
        kctx.account_full_reads(topic_sum, len(keys))
        kctx.account_row_writes(doc_topic, doc_col)
        if word_buf is None:
            kctx.account_row_writes(word_topic, word_col)
        kctx.account_point_writes(assignments, keys)

    opts = options or LoopOptions()
    if opts.kernel == "auto":
        opts = opts.merged_with(kernel=kernel)
    loop = ctx.parallel_for(corpus, options=opts)(body)

    corpus_keys, corpus_counts = corpus.columns()
    flat = corpus_keys[:, 0], corpus_keys[:, 1], np.asarray(corpus_counts)

    def loss_fn() -> float:
        return -_log_likelihood(
            doc_topic.values, word_topic.values, flat, alpha, beta
        )

    name = label or "Orion LDA"
    return OrionProgram(
        label=name,
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays={
            "corpus": corpus,
            "doc_topic": doc_topic,
            "word_topic": word_topic,
            "topic_sum": topic_sum,
            "assignments": assignments,
        },
        meta={"hyper": hyper},
    )


class LDAApp(SerialApp):
    """Numpy form of collapsed Gibbs LDA for the baseline engines.

    Topic assignments are entry-private (each entry is processed by exactly
    one worker per pass), so they live on the app; the count matrices are
    the shared state engines replicate and merge — additive count deltas,
    i.e. the classic approximate distributed LDA.
    """

    def __init__(
        self,
        dataset: CorpusDataset,
        hyper: LDAHyper = LDAHyper(),
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.hyper = hyper
        self.name = "lda"
        self.entry_cost_factor = 1.5 * hyper.num_topics / 10.0
        self._columns = _corpus_columns(dataset.entries)
        self.init_state(seed)  # assignments, initial counts and the RNG

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        # Assignments are reset too so repeated runs start identically.
        self._assignments, self._dt0, self._wt0, self._ts0 = _initial_assignments(
            self.dataset, self.hyper.num_topics, seed
        )
        self._rng = np.random.default_rng(seed + 1)
        return {
            "doc_topic": self._dt0.copy(),
            "word_topic": self._wt0.copy(),
            "topic_sum": self._ts0.copy(),
        }

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        doc, word = key
        tokens = self._assignments[(doc, word)]
        dt = state["doc_topic"]
        wt = state["word_topic"]
        ts = state["topic_sum"]
        alpha, beta = self.hyper.alpha, self.hyper.beta
        vbeta = beta * self.dataset.vocab_size
        for position in range(len(tokens)):
            old = int(tokens[position])
            dt[doc, old] -= 1.0
            wt[word, old] -= 1.0
            ts[old] -= 1.0
            probs = (dt[doc] + alpha) * (wt[word] + beta) / np.maximum(ts + vbeta, 1e-9)
            probs = np.maximum(probs, 0.0)
            scale = probs.sum()
            if scale <= 0.0:
                new = old
            else:
                new = int(
                    np.searchsorted(np.cumsum(probs), self._rng.random() * scale)
                )
                new = min(new, len(probs) - 1)
            dt[doc, new] += 1.0
            wt[word, new] += 1.0
            ts[new] += 1.0
            tokens[position] = new

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        return -_log_likelihood(
            state["doc_topic"],
            state["word_topic"],
            self._columns,
            self.hyper.alpha,
            self.hyper.beta,
        )

    def entries(self) -> List[Entry]:
        return self.dataset.entries
