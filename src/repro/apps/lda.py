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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    Entry,
    OrionProgram,
    SerialApp,
    resolve_loop_options,
)
from repro.data.synthetic import CorpusDataset
from repro.runtime.cluster import ClusterSpec
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
    """Random topic init plus the consistent count matrices."""
    rng = np.random.default_rng(seed)
    doc_topic = np.zeros((dataset.num_docs, num_topics))
    word_topic = np.zeros((dataset.vocab_size, num_topics))
    topic_sum = np.zeros(num_topics)
    assignments: Dict[Tuple[int, int], np.ndarray] = {}
    for (doc, word), count in dataset.entries:
        topics = rng.integers(0, num_topics, size=int(count))
        assignments[(doc, word)] = topics
        for topic in topics:
            doc_topic[doc, topic] += 1
            word_topic[word, topic] += 1
            topic_sum[topic] += 1
    return assignments, doc_topic, word_topic, topic_sum


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


def build_orion_program(
    dataset: CorpusDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: LDAHyper = LDAHyper(),
    ordered: bool = False,
    parallelism: str = "2d",
    seed: int = 0,
    label: Optional[str] = None,
    **loop_opts,
) -> OrionProgram:
    """Build the LDA Orion program.

    ``parallelism="2d"`` (default) is the dependence-preserving collapsed
    Gibbs sampler described in the module docstring.  ``parallelism="1d"``
    is the paper's Table 2 alternative: partition over documents only, with
    *word-topic* updates routed through a buffer as well — trading the
    word-dimension dependences for a single-phase schedule (useful when
    the word dimension is too small or skewed to partition well).

    Kernel synthesis declines this body (W501), so under the default
    ``kernel="auto"`` the builder registers its own batched block kernel
    — the only batched path LDA has.  Gibbs sampling is token-sequential
    (each draw conditions on the previous one, through a shared RNG), so
    the kernel keeps the exact token loop and instead removes the
    per-entry broker dispatch: direct dense row access, one
    bulk buffer merge per block, and memoized traffic declarations.  The
    RNG consumption order is unchanged, so samples — and therefore all
    counts — are identical to the scalar path.  Note ``equivalence_check``
    cannot be used with LDA: replaying a block advances the shared RNG.
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
        sorted(init_assign.items()), name="assignments", shape=dataset.shape
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

        def kernel(block, kctx):
            keys = kctx.cache.get("keys")
            if keys is None:
                kctx.cache["keys"] = keys = [key for key, _count in block]
            dtd, wtd = doc_topic.values, word_topic.values
            tsd = topic_sum.values
            buf_keys: list = []
            buf_vals: list = []
            for doc, word in keys:
                tokens = assignments.get((doc, word))
                # Both rows are written back whole in the scalar path, so
                # the kernel mutates the dense rows in place (no copy, no
                # write-back) — blocks own their doc and word ranges.
                dt_row = dtd[doc]
                wt_row = wtd[word]
                totals = tsd.copy()
                probs = None
                for position in range(len(tokens)):
                    old = int(tokens[position])
                    dt_row[old] -= 1.0
                    wt_row[old] -= 1.0
                    totals[old] -= 1.0
                    if probs is None:
                        probs = np.maximum(
                            (dt_row + alpha)
                            * (wt_row + beta)
                            / (totals + vbeta),
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
                            np.searchsorted(
                                np.cumsum(probs), rng.random() * scale
                            )
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
                        buf_keys.append(old)
                        buf_vals.append(-1.0)
                        buf_keys.append(new)
                        buf_vals.append(1.0)
                    tokens[position] = new
            kctx.buffer_add(topic_buf, buf_keys, buf_vals)
            docs = [key[0] for key in keys]
            words = [key[1] for key in keys]
            kctx.account_point_reads(assignments, keys)
            kctx.account_row_reads(doc_topic, docs)
            kctx.account_row_reads(word_topic, words)
            kctx.account_full_reads(topic_sum, len(keys))
            kctx.account_row_writes(doc_topic, docs)
            kctx.account_row_writes(word_topic, words)
            kctx.account_point_writes(assignments, keys)
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

        def kernel(block, kctx):
            keys = kctx.cache.get("keys")
            if keys is None:
                kctx.cache["keys"] = keys = [key for key, _count in block]
            dtd, wtd = doc_topic.values, word_topic.values
            tsd = topic_sum.values
            topic_keys: list = []
            topic_vals: list = []
            word_keys: list = []
            word_vals: list = []
            for doc, word in keys:
                tokens = assignments.get((doc, word))
                # Doc rows are block-owned (1D over docs): mutate in place.
                # Word rows update through word_buf, so the local copy stays.
                dt_row = dtd[doc]
                wt_row = wtd[word, :].copy()
                totals = tsd.copy()
                probs = None
                for position in range(len(tokens)):
                    old = int(tokens[position])
                    dt_row[old] -= 1.0
                    wt_row[old] -= 1.0
                    totals[old] -= 1.0
                    if probs is None:
                        probs = np.maximum(
                            (dt_row + alpha)
                            * (wt_row + beta)
                            / (totals + vbeta),
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
                            np.searchsorted(
                                np.cumsum(probs), rng.random() * scale
                            )
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
                        topic_keys.append(old)
                        topic_vals.append(-1.0)
                        topic_keys.append(new)
                        topic_vals.append(1.0)
                        word_keys.append((word, old))
                        word_vals.append(-1.0)
                        word_keys.append((word, new))
                        word_vals.append(1.0)
                    tokens[position] = new
            kctx.buffer_add(topic_buf, topic_keys, topic_vals)
            kctx.buffer_add(word_buf, word_keys, word_vals)
            docs = [key[0] for key in keys]
            words = [key[1] for key in keys]
            kctx.account_point_reads(assignments, keys)
            kctx.account_row_reads(doc_topic, docs)
            kctx.account_row_reads(word_topic, words)
            kctx.account_full_reads(topic_sum, len(keys))
            kctx.account_row_writes(doc_topic, docs)
            kctx.account_point_writes(assignments, keys)

    opts = resolve_loop_options(loop_opts).merged_with(ordered=ordered)
    if opts.kernel == "auto":
        opts = opts.merged_with(kernel=kernel)
    loop = ctx.parallel_for(corpus, options=opts)(body)

    def loss_fn() -> float:
        return -lda_log_likelihood(
            doc_topic.values, word_topic.values, dataset.entries, alpha, beta
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
        self._assignments, self._dt0, self._wt0, self._ts0 = _initial_assignments(
            dataset, hyper.num_topics, seed
        )
        self._rng = np.random.default_rng(seed + 1)

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
        return -lda_log_likelihood(
            state["doc_topic"],
            state["word_topic"],
            self.dataset.entries,
            self.hyper.alpha,
            self.hyper.beta,
        )

    def entries(self) -> List[Entry]:
        return self.dataset.entries
