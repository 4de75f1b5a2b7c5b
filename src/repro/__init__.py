"""Orion reproduction: dependence-aware auto-parallelization of ML training.

Reproduction of Wei et al., *Automating Dependence-Aware Parallelization of
Machine Learning Training on Distributed Shared Memory* (EuroSys 2019).

Public entry points:

* :class:`repro.api.OrionContext` — the driver API (DistArrays, buffers,
  accumulators, ``parallel_for``).
* :mod:`repro.analysis` — static dependence analysis and strategy choice.
* :mod:`repro.runtime` — the simulated cluster and executor.
* :mod:`repro.apps` — the paper's ML applications (SGD MF, SLR, LDA, GBT).
* :mod:`repro.baselines` — serial / Bösen / managed-communication /
  STRADS-style / TensorFlow-style comparison engines.
* :mod:`repro.data` — synthetic dataset generators standing in for
  Netflix / NYTimes / ClueWeb / KDD2010.
* :mod:`repro.faults` — deterministic fault injection (crashes,
  stragglers) and checkpointed crash recovery (see
  ``docs/fault_tolerance.md``).
"""

from repro.api import OrionContext, ParallelLoop
from repro.core.accumulator import Accumulator
from repro.core.buffers import DistArrayBuffer
from repro.core.distarray import DistArray
from repro.errors import (
    AnalysisError,
    DependenceError,
    ExecutionError,
    FaultError,
    MaterializationError,
    ParallelizationError,
    PartitionError,
    ReproError,
    SubscriptError,
)
from repro.faults import FaultPlan, Straggler, WorkerCrash
from repro.obs.observability import Observability
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.cluster import ClusterSpec
from repro.runtime.history import RunHistory
from repro.runtime.network import NetworkModel
from repro.runtime.options import LoopOptions
from repro.runtime.simtime import CostModel

__version__ = "1.0.0"

__all__ = [
    "OrionContext",
    "ParallelLoop",
    "Accumulator",
    "DistArrayBuffer",
    "DistArray",
    "ClusterSpec",
    "RunHistory",
    "NetworkModel",
    "CostModel",
    "LoopOptions",
    "Observability",
    "CheckpointConfig",
    "FaultPlan",
    "WorkerCrash",
    "Straggler",
    "AnalysisError",
    "FaultError",
    "DependenceError",
    "ExecutionError",
    "MaterializationError",
    "ParallelizationError",
    "PartitionError",
    "ReproError",
    "SubscriptError",
    "__version__",
]
