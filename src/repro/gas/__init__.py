"""Simulated gather-apply-scatter (GAS) engine substrate.

This package models the distributed graph engine the paper builds on
(GraphLab/PowerGraph): a vertex-program API, a synchronous super-step engine,
a vertex-cut partitioner, a cluster hardware model (type-I / type-II nodes),
and an analytical cost model that converts accounted work, traffic, and
memory into simulated execution times.
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
from repro.gas.engine import GasEngine, GasRunResult
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
from repro.gas.vertex_program import EdgeDirection, VertexProgram, payload_size_bytes

__all__ = [
    "MachineSpec",
    "ClusterConfig",
    "cluster_of",
    "TYPE_I",
    "TYPE_II",
    "SINGLE_MACHINE",
    "VertexProgram",
    "EdgeDirection",
    "payload_size_bytes",
    "GasEngine",
    "GasRunResult",
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
