"""Neural-network training via buffered data parallelism (paper Sec. 3.2).

"DNNs commonly read and update all weights in each iteration, therefore
serializable parallelization over mini-batches is not applicable.  DNN
training is most commonly parallelized with data parallelism, which can be
achieved in Orion by permitting dependence violation" — i.e. by routing the
dense weight updates through DistArray Buffers.

This module trains a one-hidden-layer MLP classifier.  Every weight matrix
is read with full-slice subscripts (dense access) and updated through a
buffer, so static analysis finds no preserved dependence and the loop runs
as 1D data parallelism — exactly the paper's prescription for neural
networks.  The weight DistArrays are 2-D; buffer writes address whole rows.
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
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel

__all__ = ["MLPHyper", "MLPApp", "build_orion_program", "mlp_cost_model", "make_blobs"]


@dataclass(frozen=True)
class MLPHyper:
    """One-hidden-layer MLP hyperparameters.

    ``max_delay`` bounds how many samples a worker may process before its
    buffered gradients are applied — the paper's Sec. 3.3 staleness bound.
    Unbounded buffering of dense gradients diverges at practical step
    sizes, which is exactly why the bound exists.
    """

    hidden_units: int = 16
    step_size: float = 0.05
    init_scale: float = 0.5
    max_delay: int = 8


def make_blobs(
    num_samples: int = 600,
    num_features: int = 6,
    num_classes: int = 3,
    spread: float = 0.6,
    seed: int = 0,
) -> List[Entry]:
    """A Gaussian-blobs classification set, one entry per sample:
    ``(sample,) -> (features, class_id)``."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * 2.0
    entries: List[Entry] = []
    for i in range(num_samples):
        label = int(rng.integers(0, num_classes))
        x = centers[label] + spread * rng.standard_normal(num_features)
        entries.append(((i,), (x, label)))
    return entries


def mlp_cost_model(
    hyper: MLPHyper, num_features: int, base_entry_cost: float = 1e-6
) -> CostModel:
    """Per-sample cost: two dense matmuls, forward and backward."""
    flops = hyper.hidden_units * (num_features + 4)
    return CostModel(entry_cost_s=base_entry_cost * flops / 64.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _forward_backward(
    x: np.ndarray,
    label: int,
    W1: np.ndarray,
    b1: np.ndarray,
    W2: np.ndarray,
    b2: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One sample's loss and gradients for the 1-hidden-layer MLP."""
    hidden_pre = W1 @ x + b1
    hidden = np.tanh(hidden_pre)
    logits = W2 @ hidden + b2
    probs = _softmax(logits)
    loss = -float(np.log(max(probs[label], 1e-12)))
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    grad_W2 = np.outer(dlogits, hidden)
    grad_b2 = dlogits
    dhidden = (W2.T @ dlogits) * (1.0 - hidden * hidden)
    grad_W1 = np.outer(dhidden, x)
    grad_b1 = dhidden
    return loss, grad_W1, grad_b1, grad_W2, grad_b2


def build_orion_program(
    entries: List[Entry],
    num_features: int,
    num_classes: int,
    cluster: Optional[ClusterSpec] = None,
    hyper: MLPHyper = MLPHyper(),
    seed: int = 0,
    label: Optional[str] = None,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the MLP Orion program (dense access; buffered data parallelism).

    The loop body reads each weight matrix with full slices — dense access
    that forbids serializable parallelization — and sends gradient updates
    through per-matrix buffers, so the analyzer selects 1D data
    parallelism, as the paper prescribes for neural networks.

    The body folds its loss into an accumulator, so kernel synthesis
    (the default ``kernel="auto"``) currently falls back to the scalar
    interpreter with a W501 diagnostic.
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    samples = ctx.from_entries(entries, name="samples", shape=(len(entries),))
    ctx.materialize(samples)
    H = hyper.hidden_units
    W1 = ctx.randn(H, num_features, name="W1", scale=hyper.init_scale)
    B1 = ctx.zeros(H, name="B1")
    W2 = ctx.randn(num_classes, H, name="W2", scale=hyper.init_scale)
    B2 = ctx.zeros(num_classes, name="B2")
    ctx.materialize(W1, B1, W2, B2)

    delay = hyper.max_delay
    w1_buf = ctx.dist_array_buffer(W1, name="w1_buf", max_delay=delay)
    b1_buf = ctx.dist_array_buffer(B1, name="b1_buf", max_delay=delay)
    w2_buf = ctx.dist_array_buffer(W2, name="w2_buf", max_delay=delay)
    b2_buf = ctx.dist_array_buffer(B2, name="b2_buf", max_delay=delay)
    step = hyper.step_size
    train_loss = ctx.accumulator("train_loss", 0.0)

    def body(key, sample):
        x, target = sample
        w1 = W1[:, :]
        b1 = B1[:]
        w2 = W2[:, :]
        b2 = B2[:]
        loss, g_w1, g_b1, g_w2, g_b2 = _forward_backward(
            x, target, w1, b1, w2, b2
        )
        train_loss.add(loss)
        # Dense updates: whole weight tensors go through buffers, the
        # paper's recipe for data-parallel DNN training.
        w1_buf[:, :] = -step * g_w1
        b1_buf[:] = -step * g_b1
        w2_buf[:, :] = -step * g_w2
        b2_buf[:] = -step * g_b2

    loop = ctx.parallel_for(samples, options=options)(body)

    def loss_fn() -> float:
        total = 0.0
        for _key, (x, target) in entries:
            loss, *_ = _forward_backward(
                x, target, W1.values, B1.values, W2.values, B2.values
            )
            total += loss
        return total / max(1, len(entries))

    return OrionProgram(
        label=label or "Orion MLP (data parallel)",
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays={"W1": W1, "B1": B1, "W2": W2, "B2": B2},
        meta={"hyper": hyper},
    )


class MLPApp(SerialApp):
    """Numpy form of the MLP for the baseline engines."""

    def __init__(
        self,
        entries: List[Entry],
        num_features: int,
        num_classes: int,
        hyper: MLPHyper = MLPHyper(),
    ) -> None:
        self._entries = entries
        self.num_features = num_features
        self.num_classes = num_classes
        self.hyper = hyper
        self.name = "mlp"
        self.entry_cost_factor = hyper.hidden_units / 16.0

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        H = self.hyper.hidden_units
        scale = self.hyper.init_scale
        return {
            "W1": rng.standard_normal((H, self.num_features)) * scale,
            "B1": np.zeros(H),
            "W2": rng.standard_normal((self.num_classes, H)) * scale,
            "B2": np.zeros(self.num_classes),
        }

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        x, target = value
        _loss, g_w1, g_b1, g_w2, g_b2 = _forward_backward(
            x, target, state["W1"], state["B1"], state["W2"], state["B2"]
        )
        step = self.hyper.step_size
        state["W1"] -= step * g_w1
        state["B1"] -= step * g_b1
        state["W2"] -= step * g_w2
        state["B2"] -= step * g_b2

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        total = 0.0
        for _key, (x, target) in self._entries:
            sample_loss, *_ = _forward_backward(
                x, target, state["W1"], state["B1"], state["W2"], state["B2"]
            )
            total += sample_loss
        return total / max(1, len(self._entries))

    def accuracy(self, state: Dict[str, np.ndarray]) -> float:
        """Fraction of training samples classified correctly."""
        correct = 0
        for _key, (x, target) in self._entries:
            hidden = np.tanh(state["W1"] @ x + state["B1"])
            logits = state["W2"] @ hidden + state["B2"]
            correct += int(np.argmax(logits) == target)
        return correct / max(1, len(self._entries))

    def entries(self) -> List[Entry]:
        return self._entries
