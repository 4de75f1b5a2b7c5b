"""SGD matrix factorization (paper Alg. 1, Fig. 5; Table 2 rows 1-2).

Factorizes a sparse rating matrix ``V ≈ Wᵀ H`` by stochastic gradient
descent on the nonzero squared loss, optionally with Adaptive Revision
(AdaGrad-style adaptive step sizes).  The Orion form is the paper's
Fig. 5 program: iterating the ratings DistArray with factor-column reads
and writes ``W[:, key[0]]`` / ``H[:, key[1]]``, which static analysis
parallelizes as *2D unordered* with one factor matrix pinned and the other
rotated.
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
from repro.data.synthetic import MFDataset
from repro.runtime.cluster import ClusterSpec
from repro.runtime.options import LoopOptions
from repro.runtime.partition import Block
from repro.runtime.simtime import CostModel

__all__ = ["MFHyper", "SGDMFApp", "build_orion_program", "mf_cost_model", "nzsl"]

@dataclass(frozen=True)
class MFHyper:
    """Hyperparameters for SGD MF.

    ``adarev`` switches the update to adaptive revision (AdaGrad-style
    per-coordinate step sizes; identical to AdaGrad under serializable
    execution — see :mod:`repro.apps.optimizers`).
    """

    rank: int = 8
    step_size: float = 0.05
    adarev: bool = False
    adarev_step: float = 0.3
    epsilon: float = 1e-8
    init_scale: float = 0.1


def nzsl(
    W: np.ndarray,
    H: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> float:
    """Nonzero squared loss over the observed entries (paper's L_NZSL)."""
    predictions = np.einsum("ki,ki->i", W[:, rows], H[:, cols])
    residual = values - predictions
    return float(residual @ residual)


def _index_arrays(block: Block) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, ratings)`` of a block of ratings."""
    rows, cols = np.ascontiguousarray(block.keys.T)
    return rows, cols, np.asarray(block.values, dtype=np.float64)


def mf_cost_model(hyper: MFHyper, base_entry_cost: float = 1e-6) -> CostModel:
    """Per-entry compute cost: linear in rank, ~2.8× with AdaRev.

    The AdaRev factor matches the paper's Table 3 throughput ratio between
    SGD MF and SGD MF AdaRev.
    """
    factor = hyper.rank / 8.0
    if hyper.adarev:
        factor *= 2.8
    return CostModel(entry_cost_s=base_entry_cost * factor)


def build_orion_program(
    dataset: MFDataset,
    cluster: Optional[ClusterSpec] = None,
    hyper: MFHyper = MFHyper(),
    eval_with_loop: bool = False,
    seed: int = 0,
    label: Optional[str] = None,
    options: Optional[LoopOptions] = None,
) -> OrionProgram:
    """Build the paper's Fig. 5 program against the real Orion API.

    The loop body below is what static analysis sees; the chosen plan is
    2D (space = rows, time = cols) unordered unless ``options.ordered``.

    With ``eval_with_loop=True`` the training loss is measured the way
    Fig. 5 does — a *second* parallel for-loop over the ratings folding
    squared errors into an accumulator (lines 21-26 of the paper's
    listing) — instead of a driver-side vectorized computation.  The
    evaluation loop is read-only, so the analyzer parallelizes it 1D.

    Under the default ``kernel="auto"`` the batched block kernel is
    synthesized from the body below (vector tier: elementwise updates
    over conflict-free entry groups, dot products in the body's exact
    strided-view form) and produces bit-identical factors and accounting
    to the per-entry interpreter.
    """
    cluster = cluster or ClusterSpec(num_machines=1, workers_per_machine=4)
    ctx = OrionContext(cluster=cluster, seed=seed)
    ratings = ctx.from_entries(dataset.entries, name="ratings", shape=dataset.shape)
    ctx.materialize(ratings)
    K = hyper.rank
    W = ctx.randn(K, dataset.num_rows, name="W", scale=hyper.init_scale)
    H = ctx.randn(K, dataset.num_cols, name="H", scale=hyper.init_scale)
    ctx.materialize(W, H)
    step_size = hyper.step_size

    if hyper.adarev:
        # AdaRevision state per parameter: z (sum of applied gradients, used
        # for the delay correction g_bck = z_now - z_read; identically zero
        # under serializable execution) and z² (the adapted accumulator).
        # Maintaining z is what makes the same program delay-tolerant when a
        # data-parallel engine runs it — and it is extra rotated state, the
        # reason AdaRev's communication exceeds plain SGD MF's (Table 3).
        Wn2 = ctx.full((K, dataset.num_rows), hyper.epsilon, name="Wn2")
        Hn2 = ctx.full((K, dataset.num_cols), hyper.epsilon, name="Hn2")
        Wz = ctx.zeros(K, dataset.num_rows, name="Wz")
        Hz = ctx.zeros(K, dataset.num_cols, name="Hz")
        ctx.materialize(Wn2, Hn2, Wz, Hz)
        ada_step = hyper.adarev_step

        def body(key, rating):
            w_col = W[:, key[0]]
            h_col = H[:, key[1]]
            pred = w_col @ h_col
            diff = rating - pred
            w_grad = -2.0 * diff * h_col
            h_grad = -2.0 * diff * w_col
            wn2 = Wn2[:, key[0]] + w_grad * w_grad
            hn2 = Hn2[:, key[1]] + h_grad * h_grad
            Wn2[:, key[0]] = wn2
            Hn2[:, key[1]] = hn2
            Wz[:, key[0]] = Wz[:, key[0]] + w_grad
            Hz[:, key[1]] = Hz[:, key[1]] + h_grad
            W[:, key[0]] = w_col - ada_step * w_grad / np.sqrt(wn2)
            H[:, key[1]] = h_col - ada_step * h_grad / np.sqrt(hn2)
    else:

        def body(key, rating):
            w_col = W[:, key[0]]
            h_col = H[:, key[1]]
            pred = w_col @ h_col
            diff = rating - pred
            W[:, key[0]] = w_col + step_size * 2.0 * diff * h_col
            H[:, key[1]] = h_col + step_size * 2.0 * diff * w_col

    opts = options or LoopOptions()
    loop = ctx.parallel_for(ratings, options=opts)(body)
    # The loss reads the columns the ratings array already holds.
    rows, cols, values = _index_arrays(Block(*ratings.columns()))

    if eval_with_loop:
        err = ctx.accumulator("err", 0.0)

        def eval_body(key, rating):
            prediction = W[:, key[0]] @ H[:, key[1]]
            err.add((rating - prediction) ** 2)

        # An accumulator fold is not batchable; don't hand the training
        # loop's kernel choice to it.
        eval_loop = ctx.parallel_for(
            ratings, options=opts.merged_with(kernel="off")
        )(eval_body)

        def loss_fn() -> float:
            ctx.reset_accumulator("err")
            eval_loop.run()
            return float(ctx.get_aggregated_value("err"))
    else:
        eval_loop = None

        def loss_fn() -> float:
            return nzsl(W.values, H.values, rows, cols, values)

    name = label or ("Orion SGD MF AdaRev" if hyper.adarev else "Orion SGD MF")
    arrays = {"ratings": ratings, "W": W, "H": H}
    return OrionProgram(
        label=name,
        ctx=ctx,
        epoch_fn=lambda: loop.run(),
        loss_fn=loss_fn,
        train_loop=loop,
        arrays=arrays,
        meta={"hyper": hyper, "eval_loop": eval_loop},
    )


class SGDMFApp(SerialApp):
    """Numpy form of SGD MF for the baseline engines."""

    def __init__(self, dataset: MFDataset, hyper: MFHyper = MFHyper()) -> None:
        self.dataset = dataset
        self.hyper = hyper
        self.name = "sgd_mf_adarev" if hyper.adarev else "sgd_mf"
        self.entry_cost_factor = (hyper.rank / 8.0) * (2.8 if hyper.adarev else 1.0)
        self._rows, self._cols, self._values = _index_arrays(
            Block.of(dataset.entries)
        )

    def init_state(self, seed: int = 0) -> Dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        K = self.hyper.rank
        state = {
            "W": rng.standard_normal((K, self.dataset.num_rows))
            * self.hyper.init_scale,
            "H": rng.standard_normal((K, self.dataset.num_cols))
            * self.hyper.init_scale,
        }
        if self.hyper.adarev:
            state["Wn2"] = np.full((K, self.dataset.num_rows), self.hyper.epsilon)
            state["Hn2"] = np.full((K, self.dataset.num_cols), self.hyper.epsilon)
        return state

    def apply_entry(self, state: Dict[str, np.ndarray], key, value) -> None:
        i, j = key
        W, H = state["W"], state["H"]
        w_col = W[:, i].copy()
        h_col = H[:, j].copy()
        diff = value - w_col @ h_col
        if self.hyper.adarev:
            w_grad = -2.0 * diff * h_col
            h_grad = -2.0 * diff * w_col
            state["Wn2"][:, i] += w_grad * w_grad
            state["Hn2"][:, j] += h_grad * h_grad
            W[:, i] = w_col - self.hyper.adarev_step * w_grad / np.sqrt(
                state["Wn2"][:, i]
            )
            H[:, j] = h_col - self.hyper.adarev_step * h_grad / np.sqrt(
                state["Hn2"][:, j]
            )
        else:
            W[:, i] = w_col + self.hyper.step_size * 2.0 * diff * h_col
            H[:, j] = h_col + self.hyper.step_size * 2.0 * diff * w_col

    def batch_gradient(
        self, state: Dict[str, np.ndarray], batch: List[Entry]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Gradient of the batch loss at fixed ``state``, plus per-column
        touch counts (TensorFlow-style mini-batch engines apply the
        touch-normalized gradient once per batch)."""
        W, H = state["W"], state["H"]
        grad_W = np.zeros_like(W)
        grad_H = np.zeros_like(H)
        count_W = np.zeros(W.shape[1])
        count_H = np.zeros(H.shape[1])
        for (i, j), value in batch:
            diff = value - W[:, i] @ H[:, j]
            grad_W[:, i] += -2.0 * diff * H[:, j]
            grad_H[:, j] += -2.0 * diff * W[:, i]
            count_W[i] += 1
            count_H[j] += 1
        counts = {
            "W": np.maximum(count_W, 1.0)[None, :],
            "H": np.maximum(count_H, 1.0)[None, :],
        }
        return {"W": grad_W, "H": grad_H}, counts

    def loss(self, state: Dict[str, np.ndarray]) -> float:
        return nzsl(state["W"], state["H"], self._rows, self._cols, self._values)

    def entries(self) -> List[Entry]:
        return self.dataset.entries
