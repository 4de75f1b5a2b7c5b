"""Sparse logistic regression via SGD (paper Table 2 rows 3-4).

Each sample reads and updates only the weights of its nonzero features —
subscripts that depend on runtime values, which static analysis cannot
bound.  Traditional dependence analysis would conservatively serialize the
loop; instead the program routes weight updates through a DistArray Buffer
(paper Sec. 3.3), turning the loop into 1D data parallelism, and the
weights are served by parameter servers with *bulk prefetching*
(Sec. 4.4): the synthesized prefetch function walks each sample's feature
list to collect weight indices, replacing per-read network round trips
with one bulk fetch per block.

The AdaRev variant applies buffered gradients with an AdaGrad-style
element-wise UDF — the atomic read-modify-write hook the paper highlights.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.api import OrionContext
from repro.apps.base import (
    Entry,
    OrionProgram,
    SerialApp,
)
from repro.data.synthetic import SLRDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.kernels import ragged_levels
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel

__all__ = ["SLRHyper", "SLRApp", "build_orion_program", "slr_cost_model", "logistic_loss"]


@dataclass(frozen=True)
class SLRHyper:
    """Hyperparameters for sparse logistic regression."""

    step_size: float = 0.1
    adarev: bool = False
    adarev_step: float = 0.5
    epsilon: float = 1e-8


#: Samples :func:`logistic_loss` flattens at a time: its temporaries stay
#: a few hundred KB however large the dataset (a training driver calls it
#: before it forks workers, who would inherit a dataset-sized heap).
_LOSS_CHUNK = 4096


def logistic_loss(weights: np.ndarray, entries: List[Entry]) -> float:
    """Mean logistic loss of ``weights`` over the training entries.

    Bit for bit the per-sample loop ``total += log1p(exp(-y * sum(w[f] *
    v)))`` (``tests/test_apps_slr.py`` keeps it as the oracle) without
    the per-element Python: samples are flattened to CSR form a chunk at
    a time, each margin adds its terms left to right as ``sum()`` does
    (:func:`~repro.runtime.kernels.ragged_levels`; ``sum`` starts from
    ``0``, which adds like ``0.0``), and ``np.cumsum`` is the sequential
    total.
    """
    weights = np.asarray(weights)
    losses = np.empty(len(entries))
    for start in range(0, len(entries), _LOSS_CHUNK):
        chunk = entries[start:start + _LOSS_CHUNK]
        features = [value[0] for _key, value in chunk]
        flat = list(itertools.chain.from_iterable(features))
        ids = np.fromiter(map(operator.itemgetter(0), flat), np.intp, len(flat))
        values = np.fromiter(
            map(operator.itemgetter(1), flat), np.float64, len(flat)
        )
        terms = weights[ids] * values
        margin = np.zeros(len(chunk))
        lens = np.fromiter(map(len, features), np.intp, len(chunk))
        for alive, pos in ragged_levels(lens):
            margin[alive] = margin[alive] + terms[pos]
        # log(1 + exp(-y·margin)) with y in {-1, +1}
        positive = np.array([value[1] for _key, value in chunk]) == 1
        losses[start:start + len(chunk)] = np.log1p(
            np.exp(-np.where(positive, margin, -margin))
        )
    return float(np.cumsum(losses)[-1]) / len(entries) if entries else 0.0


def slr_cost_model(hyper: SLRHyper, base_entry_cost: float = 2e-6) -> CostModel:
    """Per-sample compute cost (~nnz multiply-adds, heavier with AdaRev)."""
    factor = 1.6 if hyper.adarev else 1.0
    return CostModel(entry_cost_s=base_entry_cost * factor)


def build_orion_program(
    dataset: SLRDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: SLRHyper = SLRHyper(),
    seed: int = 0,
    label: Optional[str] = None,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the SLR Orion program (1D data parallelism with buffers).

    Under the default ``kernel="auto"`` the batched block kernel is
    synthesized from the body below (segmented tier: a block's feature
    lists are flattened to CSR form once; an epoch is then one gather of
    the weights — legal because every update is buffered until the block
    boundary — the margin as a position-major reduction in the body's
    exact per-sample order, and one ``np.add.at`` fold of the buffered
    gradients), with bit-identical weights and traffic accounting to the
    scalar path.  A block whose data is not ``(int id, float value)``
    pairs inside the weight extent runs the block-loop kernel instead.
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    samples = ctx.from_entries(dataset.entries, name="samples", shape=dataset.shape)
    ctx.materialize(samples)
    weights = ctx.zeros(dataset.num_features, name="weights")
    ctx.materialize(weights)
    step_size = hyper.step_size

    if hyper.adarev:
        n2 = np.full(dataset.num_features, hyper.epsilon)
        ada_step = hyper.adarev_step

        def apply_adagrad(key, current, grad):
            n2[key[0]] += grad * grad
            return current - ada_step * grad / np.sqrt(n2[key[0]])

        weight_buf = ctx.dist_array_buffer(
            weights, apply_fn=apply_adagrad, name="weight_buf"
        )

        def body(key, sample):
            features, target = sample
            margin = 0.0
            for fid, fval in features:
                margin = margin + weights[fid] * fval
            prob = 1.0 / (1.0 + np.exp(-margin))
            grad_scale = prob - target
            for fid, fval in features:
                weight_buf[fid] = grad_scale * fval
    else:
        weight_buf = ctx.dist_array_buffer(weights, name="weight_buf")

        def body(key, sample):
            features, target = sample
            margin = 0.0
            for fid, fval in features:
                margin = margin + weights[fid] * fval
            prob = 1.0 / (1.0 + np.exp(-margin))
            grad_scale = prob - target
            for fid, fval in features:
                weight_buf[fid] = -step_size * grad_scale * fval

    loop = ctx.parallel_for(samples, options=options)(body)

    def loss_fn() -> float:
        return logistic_loss(weights.values, dataset.entries)

    name = label or ("Orion SLR AdaRev" if hyper.adarev else "Orion SLR")
    return OrionProgram(
        label=name,
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays={"samples": samples, "weights": weights},
        meta={"hyper": hyper},
    )


class SLRApp(SerialApp):
    """Numpy form of SLR for the baseline engines."""

    def __init__(self, dataset: SLRDataset, hyper: SLRHyper = SLRHyper()) -> None:
        self.dataset = dataset
        self.hyper = hyper
        self.name = "slr_adarev" if hyper.adarev else "slr"
        self.entry_cost_factor = 1.6 if hyper.adarev else 1.0

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        state = {"weights": np.zeros(self.dataset.num_features)}
        if self.hyper.adarev:
            state["n2"] = np.full(self.dataset.num_features, self.hyper.epsilon)
        return state

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        features, target = value
        weights = state["weights"]
        margin = sum(weights[fid] * fval for fid, fval in features)
        prob = 1.0 / (1.0 + np.exp(-margin))
        grad_scale = prob - target
        if self.hyper.adarev:
            n2 = state["n2"]
            for fid, fval in features:
                grad = grad_scale * fval
                n2[fid] += grad * grad
                weights[fid] -= self.hyper.adarev_step * grad / np.sqrt(n2[fid])
        else:
            for fid, fval in features:
                weights[fid] -= self.hyper.step_size * grad_scale * fval

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        return logistic_loss(state["weights"], self.dataset.entries)

    def entries(self) -> List[Entry]:
        return self.dataset.entries
