"""Classic Pregel programs used to validate the BSP substrate.

These programs are not part of SNAPLE itself; they are the standard
vertex-centric algorithms (PageRank, connected components, single-source
shortest paths, degree counting) every Pregel-style engine ships with.  They
exercise every feature of the substrate — messaging, combiners, halting,
global aggregators — independently of the link-prediction code, which keeps
the engine testable on algorithms with known closed-form answers.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.bsp.vertex import (
    BspVertexProgram,
    ComputeContext,
    MinCombiner,
    SumCombiner,
)

__all__ = [
    "PageRankProgram",
    "ConnectedComponentsProgram",
    "ShortestPathsProgram",
    "OutDegreeProgram",
]


class PageRankProgram(BspVertexProgram):
    """Power-iteration PageRank with a sum combiner.

    Every vertex starts at ``1 / |V|``; for ``num_iterations`` supersteps it
    distributes its rank equally over its out-edges and applies the damping
    update to the incoming sum.  The total rank mass is tracked through a
    global aggregator so tests can assert conservation.
    """

    name = "pagerank"
    combiner = SumCombiner()

    def __init__(self, *, damping: float = 0.85, num_iterations: int = 10) -> None:
        self._damping = damping
        self._num_iterations = num_iterations
        self.max_supersteps = num_iterations + 1

    def aggregators(self) -> dict[str, Callable[[Any, Any], Any]]:
        return {"total_rank": lambda a, b: a + b}

    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {"rank": 0.0}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        if context.superstep == 0:
            state["rank"] = 1.0 / context.num_vertices
        else:
            incoming = sum(messages)
            state["rank"] = (
                (1.0 - self._damping) / context.num_vertices
                + self._damping * incoming
            )
        context.aggregate("total_rank", state["rank"])
        if context.superstep < self._num_iterations:
            degree = context.out_degree()
            if degree:
                context.send_message_to_all_neighbors(state["rank"] / degree)
        else:
            context.vote_to_halt()


class ConnectedComponentsProgram(BspVertexProgram):
    """Label propagation for weakly connected components (min combiner).

    Each vertex adopts the smallest vertex id seen so far and forwards it;
    the run converges when no label changes.  The program treats the graph as
    undirected by sending along out-edges and relying on the symmetrized
    graphs used in tests; for directed graphs it computes the components of
    the out-reachability closure from minima.
    """

    name = "connected-components"
    combiner = MinCombiner()
    max_supersteps = 100

    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {"component": vertex}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        if context.superstep == 0:
            state["component"] = context.vertex
            context.send_message_to_all_neighbors(state["component"])
            context.vote_to_halt()
            return
        smallest = min(messages) if messages else state["component"]
        if smallest < state["component"]:
            state["component"] = smallest
            context.send_message_to_all_neighbors(smallest)
        context.vote_to_halt()


class ShortestPathsProgram(BspVertexProgram):
    """Single-source shortest paths with unit edge weights (min combiner)."""

    name = "shortest-paths"
    combiner = MinCombiner()
    max_supersteps = 200

    def __init__(self, source: int) -> None:
        self._source = source

    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {"distance": float("inf")}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        candidate = min(messages) if messages else float("inf")
        if context.superstep == 0 and context.vertex == self._source:
            candidate = 0.0
        if candidate < state["distance"]:
            state["distance"] = candidate
            context.send_message_to_all_neighbors(candidate + 1.0)
        context.vote_to_halt()


class OutDegreeProgram(BspVertexProgram):
    """Trivial one-superstep program recording each vertex's out-degree.

    Used by tests as the smallest possible BSP program and by the engine
    benchmarks to measure the fixed per-superstep overhead.
    """

    name = "out-degree"
    max_supersteps = 1

    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {"degree": 0}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        state["degree"] = context.out_degree()
        context.vote_to_halt()
