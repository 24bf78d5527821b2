"""The simulated gather-apply-scatter (GAS) platform model.

This package models the cluster the paper's engine (GraphLab/PowerGraph)
runs on: a hardware model (type-I / type-II nodes), per-machine memory
accounting, per-superstep metrics, and an analytical cost model that
converts accounted work, traffic and memory into simulated execution
times.  The vertex-cut partitioners live in :mod:`repro.runtime.partition`
and are re-exported here.  The simulated engines (serial ``gas`` and
``gas_baseline``) charge their supersteps from arrays
(:mod:`repro.snaple.accounting`); no engine runs vertex programs.
"""

from repro.gas.cluster import (
    SINGLE_MACHINE,
    TYPE_I,
    TYPE_II,
    ClusterConfig,
    MachineSpec,
    cluster_of,
)
from repro.gas.cost_model import CostBreakdown, CostModel
from repro.gas.memory import MemoryTracker
from repro.gas.metrics import RunMetrics, StepMetrics
from repro.runtime.partition import (
    GraphPartition,
    GreedyVertexCut,
    HdrfVertexCut,
    Partitioner,
    RandomVertexCut,
    partition_graph,
)

__all__ = [
    "MachineSpec",
    "ClusterConfig",
    "cluster_of",
    "TYPE_I",
    "TYPE_II",
    "SINGLE_MACHINE",
    "GraphPartition",
    "Partitioner",
    "RandomVertexCut",
    "GreedyVertexCut",
    "HdrfVertexCut",
    "partition_graph",
    "CostModel",
    "CostBreakdown",
    "MemoryTracker",
    "RunMetrics",
    "StepMetrics",
]
