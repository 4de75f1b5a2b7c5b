"""STRADS-style manual model parallelism (paper Sec. 2.2/6.4; ref. [26]).

STRADS applications are hand-written C++ programs implementing exactly the
dependence-preserving schedule Orion derives automatically — so their
*per-iteration convergence matches Orion's* (paper Fig. 11) while their
throughput differs by implementation constants: a C++ runtime (no Julia
overhead) and intra-machine communication by pointer swapping (zero copy).

This engine therefore reuses the Orion program builder — the semantics are
identical by the paper's own argument — on a cluster whose cost model
encodes STRADS's implementation advantages.  The paper quantifies the gap
at roughly 1× for SGD MF AdaRev (float-array messages serialize trivially)
and 1.8–4× for LDA (complex per-row count data pays marshalling in Julia).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.apps.base import OrionProgram
from repro.runtime.cluster import ClusterSpec
from repro.runtime.history import RunHistory
from repro.runtime.options import LoopOptions

__all__ = ["strads_cluster", "run_strads"]


def strads_cluster(
    base: ClusterSpec, speed_factor: float = 1.0
) -> ClusterSpec:
    """A cluster parameterized like STRADS's C++ runtime.

    Args:
        base: the cluster the Orion program runs on.
        speed_factor: per-entry compute relative to the (Julia) Orion
            program — 1.0 when serialization is trivial (SGD MF), below 1
            for marshalling-heavy apps (LDA).
    """
    cost = replace(
        base.cost,
        overhead_factor=base.cost.overhead_factor * speed_factor,
        # C++ workers exchange partitions by pointer swapping / raw memory
        # copies: no per-byte serialization cost.
        marshalling_s_per_byte=0.0,
    )
    network = replace(base.network, intra_machine_factor=0.0)
    return replace(base, cost=cost, network=network)


def run_strads(
    build_program: Callable[..., OrionProgram],
    base_cluster: ClusterSpec,
    epochs: int,
    speed_factor: float = 1.0,
    label: Optional[str] = None,
    options: Optional[LoopOptions] = None,
) -> RunHistory:
    """Run a manually model-parallel (STRADS) version of a program.

    ``build_program(cluster, options)`` is an app's Orion builder partially
    applied to its dataset/hyperparameters; it is rebuilt against the
    STRADS-tuned cluster so schedules and semantics are identical and only
    implementation constants differ.

    Args:
        options: the :class:`~repro.runtime.options.LoopOptions` handed to
            the builder — e.g. a fault plan/checkpoint config, or
            ``obs`` and ``trace_process="strads"`` to place this run's
            spans next to Orion's in one trace file.
    """
    program = build_program(
        strads_cluster(base_cluster, speed_factor), options
    )
    history = program.run(epochs)
    history.label = label or f"STRADS {program.label.replace('Orion ', '')}"
    return history
