"""Word-embedding training (GloVe-style) — paper Sec. 3.2's motivating class.

"ML applications on text data often have parameters associated with each
word, such as ... the word embedding vector, which are accessed based on
word ID."  This application trains GloVe-style embeddings over a sparse
co-occurrence matrix: iteration space ``(word, context) -> count``, with

* embedding matrices read/written as columns (``W[:, key[0]]``,
  ``C[:, key[1]]``) — the SGD MF pattern, and
* *bias vectors* read/written as scalars (``bw[key[0]]``, ``bc[key[1]]``)
  — 1-D point subscripts, a pattern none of the other applications
  exercises.

Static analysis derives 2D unordered parallelization with the word-indexed
arrays pinned together on the space dimension and the context-indexed
arrays rotated together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    Entry,
    OrionProgram,
    SerialApp,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel

__all__ = [
    "GloVeHyper",
    "CooccurrenceDataset",
    "GloVeApp",
    "build_orion_program",
    "glove_cost_model",
    "cooccurrence_corpus",
    "glove_loss",
]


@dataclass(frozen=True)
class GloVeHyper:
    """GloVe hyperparameters (Pennington et al.'s weighting)."""

    dim: int = 8
    step_size: float = 0.05
    x_max: float = 20.0
    weight_alpha: float = 0.75
    init_scale: float = 0.3


@dataclass
class CooccurrenceDataset:
    """A sparse word-word co-occurrence matrix."""

    entries: List[Entry]
    vocab_size: int
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int]:
        """Iteration-space shape (vocab × vocab)."""
        return (self.vocab_size, self.vocab_size)


def cooccurrence_corpus(
    vocab_size: int = 200,
    num_tokens: int = 20_000,
    window: int = 3,
    zipf_exponent: float = 1.1,
    num_clusters: int = 8,
    seed: int = 0,
) -> CooccurrenceDataset:
    """Synthesize a co-occurrence matrix with topical (cluster) structure.

    A Zipfian token stream is drawn with Markov persistence inside word
    clusters, so words of the same cluster genuinely co-occur — giving the
    embeddings structure to learn.
    """
    rng = np.random.default_rng(seed)
    cluster_of = rng.integers(0, num_clusters, size=vocab_size)
    base = 1.0 / np.power(np.arange(1, vocab_size + 1), zipf_exponent)
    base /= base.sum()
    counts: Dict[Tuple[int, int], float] = {}
    current_cluster = 0
    window_tokens: List[int] = []
    for _ in range(num_tokens):
        if rng.random() < 0.2:
            current_cluster = int(rng.integers(0, num_clusters))
        members = np.flatnonzero(cluster_of == current_cluster)
        if members.size and rng.random() < 0.7:
            weights = base[members] / base[members].sum()
            token = int(rng.choice(members, p=weights))
        else:
            token = int(rng.choice(vocab_size, p=base))
        for other in window_tokens[-window:]:
            if other == token:
                continue
            pair = (min(token, other), max(token, other))
            counts[pair] = counts.get(pair, 0.0) + 1.0
        window_tokens.append(token)
    entries: List[Entry] = [
        ((i, j), value) for (i, j), value in sorted(counts.items())
    ]
    return CooccurrenceDataset(
        entries=entries,
        vocab_size=vocab_size,
        meta={"cluster_of": cluster_of, "seed": seed},
    )


def glove_cost_model(
    hyper: GloVeHyper, base_entry_cost: float = 1e-6
) -> CostModel:
    """Per-pair compute cost, linear in the embedding dimension."""
    return CostModel(entry_cost_s=base_entry_cost * hyper.dim / 8.0)


def _weight(count: float, x_max: float, alpha: float) -> float:
    return min(1.0, (count / x_max) ** alpha)


def glove_loss(
    W: np.ndarray,
    C: np.ndarray,
    bw: np.ndarray,
    bc: np.ndarray,
    entries: List[Entry],
    hyper: GloVeHyper,
) -> float:
    """The GloVe objective over the observed co-occurrence pairs."""
    total = 0.0
    for (i, j), count in entries:
        weight = _weight(count, hyper.x_max, hyper.weight_alpha)
        diff = W[:, i] @ C[:, j] + bw[i] + bc[j] - np.log(count)
        total += weight * diff * diff
    return total


def build_orion_program(
    dataset: CooccurrenceDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: GloVeHyper = GloVeHyper(),
    seed: int = 0,
    label: Optional[str] = None,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the GloVe Orion program (2D unordered).

    Under the default ``kernel="auto"`` the batched kernel is synthesized
    from the loop body below (vector tier).
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    cooc = ctx.from_entries(dataset.entries, name="cooc", shape=dataset.shape)
    ctx.materialize(cooc)
    V, D = dataset.vocab_size, hyper.dim
    W = ctx.randn(D, V, name="W", scale=hyper.init_scale)
    C = ctx.randn(D, V, name="C", scale=hyper.init_scale)
    bw = ctx.zeros(V, name="bw")
    bc = ctx.zeros(V, name="bc")
    ctx.materialize(W, C, bw, bc)
    step = hyper.step_size
    x_max = hyper.x_max
    alpha = hyper.weight_alpha

    def body(key, count):
        w_vec = W[:, key[0]]
        c_vec = C[:, key[1]]
        weight = min(1.0, (count / x_max) ** alpha)
        diff = w_vec @ c_vec + bw[key[0]] + bc[key[1]] - np.log(count)
        scale = 2.0 * step * weight * diff
        W[:, key[0]] = w_vec - scale * c_vec
        C[:, key[1]] = c_vec - scale * w_vec
        bw[key[0]] = bw[key[0]] - scale
        bc[key[1]] = bc[key[1]] - scale

    loop = ctx.parallel_for(cooc, options=options)(body)

    def loss_fn() -> float:
        return glove_loss(
            W.values, C.values, bw.values, bc.values, dataset.entries, hyper
        )

    return OrionProgram(
        label=label or "Orion GloVe",
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays={"cooc": cooc, "W": W, "C": C, "bw": bw, "bc": bc},
        meta={"hyper": hyper},
    )


class GloVeApp(SerialApp):
    """Numpy form of GloVe for the baseline engines."""

    def __init__(
        self, dataset: CooccurrenceDataset, hyper: GloVeHyper = GloVeHyper()
    ) -> None:
        self.dataset = dataset
        self.hyper = hyper
        self.name = "glove"
        self.entry_cost_factor = hyper.dim / 8.0

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        V, D = self.dataset.vocab_size, self.hyper.dim
        return {
            "W": rng.standard_normal((D, V)) * self.hyper.init_scale,
            "C": rng.standard_normal((D, V)) * self.hyper.init_scale,
            "bw": np.zeros(V),
            "bc": np.zeros(V),
        }

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        i, j = key
        hyper = self.hyper
        w_vec = state["W"][:, i].copy()
        c_vec = state["C"][:, j].copy()
        weight = _weight(value, hyper.x_max, hyper.weight_alpha)
        diff = (
            w_vec @ c_vec + state["bw"][i] + state["bc"][j] - np.log(value)
        )
        scale = 2.0 * hyper.step_size * weight * diff
        state["W"][:, i] = w_vec - scale * c_vec
        state["C"][:, j] = c_vec - scale * w_vec
        state["bw"][i] -= scale
        state["bc"][j] -= scale

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        return glove_loss(
            state["W"],
            state["C"],
            state["bw"],
            state["bc"],
            self.dataset.entries,
            self.hyper,
        )

    def entries(self) -> List[Entry]:
        return self.dataset.entries
