"""Simulated Bulk Synchronous Parallel (BSP / Pregel) engine substrate.

The paper contrasts the GAS model with Bulk Synchronous Processing engines
(Pregel, Giraph, Bagel — Sections 2.2 and 6) and names porting SNAPLE to them
as future work (Section 7).  This package provides that substrate: a
Pregel-style vertex-program API (messages, combiners, halting, aggregators),
a superstep engine with the same cluster/cost/memory accounting as the GAS
engine, and an edge-cut vertex partitioner — so the data-flow of the two
models can be compared on identical graphs and clusters.
"""

from repro.bsp.engine import BspEngine, BspRunResult
from repro.runtime.partition import (
    BlockVertexPartitioner,
    HashVertexPartitioner,
    VertexPartition,
    VertexPartitioner,
    partition_vertices,
)
from repro.bsp.programs import (
    ConnectedComponentsProgram,
    OutDegreeProgram,
    PageRankProgram,
    ShortestPathsProgram,
)
from repro.bsp.vertex import (
    BspVertexProgram,
    ComputeContext,
    MaxCombiner,
    MessageCombiner,
    MinCombiner,
    SumCombiner,
)

__all__ = [
    "BspVertexProgram",
    "ComputeContext",
    "MessageCombiner",
    "SumCombiner",
    "MinCombiner",
    "MaxCombiner",
    "BspEngine",
    "BspRunResult",
    "VertexPartition",
    "VertexPartitioner",
    "HashVertexPartitioner",
    "BlockVertexPartitioner",
    "partition_vertices",
    "PageRankProgram",
    "ConnectedComponentsProgram",
    "ShortestPathsProgram",
    "OutDegreeProgram",
]
