"""Synchronous GAS engine over a simulated cluster.

The engine executes a sequence of :class:`~repro.gas.vertex_program.VertexProgram`
super-steps on a graph that has been partitioned over a simulated cluster with
a vertex-cut (see :mod:`repro.runtime.partition`).  For every step it
performs the real computation (so results are exact) while accounting the
work, the network traffic and the memory footprint that the equivalent
GraphLab run would incur:

* gathers execute on the machine that owns the edge (the mirror), and —
  exactly as in PowerGraph — each mirror pre-aggregates its local gathers
  with the program's ``sum`` and ships **one** partial result per (vertex,
  mirror) to the vertex's master, which is what the network is charged for;
* after the apply phase the new vertex data is synchronized to every replica
  of the vertex, charging ``(replicas - 1) × |Du|`` bytes (this replica-sync
  cost is what makes the naive neighborhood-propagating BASELINE collapse);
* every machine's vertex-data footprint is tracked against its (scaled)
  capacity, raising :class:`~repro.errors.ResourceExhaustedError` on overflow.

The numbers feed :class:`~repro.gas.cost_model.CostModel`, which converts
them into simulated cluster times used by the scalability experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EngineError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.gas.cost_model import CostModel
from repro.gas.memory import MemoryTracker
from repro.gas.metrics import RunMetrics, StepMetrics
from repro.runtime.partition import (
    GraphPartition,
    Partitioner,
    partition_graph,
)
from repro.gas.vertex_program import EdgeDirection, VertexProgram, payload_size_bytes
from repro.graph.digraph import DiGraph

__all__ = ["GasEngine", "GasRunResult"]


@dataclass
class GasRunResult:
    """Outcome of running a GAS program: final vertex data plus metrics.

    ``vertex_data`` holds one plain dict (``Du``) per vertex, indexed by
    vertex id.
    """

    vertex_data: list[dict[str, Any]]
    metrics: RunMetrics
    partition: GraphPartition
    cluster: ClusterConfig

    @property
    def simulated_seconds(self) -> float:
        return self.metrics.simulated_seconds

    @property
    def wall_clock_seconds(self) -> float:
        return self.metrics.wall_clock_seconds

    def data_of(self, vertex: int) -> dict[str, Any]:
        """Vertex data of ``vertex`` after the run."""
        return self.vertex_data[vertex]


@dataclass
class GasEngine:
    """Synchronous gather-apply-scatter engine on a simulated cluster.

    Parameters
    ----------
    graph:
        The input graph.
    cluster:
        Simulated cluster; defaults to a single type-II machine.
    partitioner:
        Edge-placement strategy; defaults to a random vertex-cut for
        multi-machine clusters.
    enforce_memory:
        When ``True`` the engine raises
        :class:`~repro.errors.ResourceExhaustedError` if a machine's vertex
        data exceeds its (scaled) capacity, reproducing the paper's BASELINE
        failures.  Set to ``False`` to only record peak usage.
    seed:
        Seed for the partitioner.
    """

    graph: DiGraph
    cluster: ClusterConfig = field(default_factory=lambda: cluster_of(TYPE_II, 1))
    partitioner: Partitioner | None = None
    enforce_memory: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self._partition = partition_graph(
            self.graph,
            self.cluster.num_machines,
            partitioner=self.partitioner,
            seed=self.seed,
        )
        # Machine owning each edge, aligned with the CSR neighbor order so a
        # vertex's i-th out-/in-neighbor can be matched to its edge placement.
        self._out_edge_machine = self._partition.edge_machine[
            self.graph.csr_out_order()
        ]
        self._in_edge_machine = self._partition.edge_machine[
            self.graph.csr_in_order()
        ]
        self._cost_model = CostModel(self.cluster)
        self._memory = MemoryTracker(self.cluster, enforce=self.enforce_memory)
        self._vertex_data: list[dict[str, Any]] = [
            {} for _ in range(self.graph.num_vertices)
        ]
        self._vertex_data_bytes = [0] * self.graph.num_vertices
        self._edge_data: dict[tuple[int, int], dict[str, Any]] = {}
        self._metrics = RunMetrics()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def partition(self) -> GraphPartition:
        """The vertex-cut placement used by this engine."""
        return self._partition

    @property
    def memory(self) -> MemoryTracker:
        """Memory tracker for the simulated cluster."""
        return self._memory

    @property
    def vertex_data(self) -> list[dict[str, Any]]:
        """Mutable vertex data (``Du``) for every vertex."""
        return self._vertex_data

    def run(self, steps: list[VertexProgram],
            *, vertices: list[int] | None = None) -> GasRunResult:
        """Execute the given super-steps in order and return the result.

        ``vertices`` restricts the *last* step to those vertices (all by
        default).  Earlier steps always run over every vertex: the last
        step gathers its neighbours' data, which must exist whether or not
        the neighbours are targets themselves.
        """
        if not steps:
            raise EngineError("at least one GAS step is required")
        start = time.perf_counter()
        everyone = list(self.graph.vertices())
        targets = everyone if vertices is None else list(vertices)
        for index, step in enumerate(steps):
            self._run_step(step, targets if index == len(steps) - 1 else everyone)
        self._metrics.wall_clock_seconds = time.perf_counter() - start
        self._metrics.simulated_seconds = self._cost_model.run_cost(self._metrics)
        return GasRunResult(
            vertex_data=self._vertex_data,
            metrics=self._metrics,
            partition=self._partition,
            cluster=self.cluster,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _neighbors_for(self, vertex: int, direction: EdgeDirection) -> list[int]:
        if direction is EdgeDirection.OUT:
            return self.graph.out_neighbors(vertex).tolist()
        if direction is EdgeDirection.IN:
            return self.graph.in_neighbors(vertex).tolist()
        if direction is EdgeDirection.BOTH:
            both = set(self.graph.out_neighbors(vertex).tolist())
            both.update(self.graph.in_neighbors(vertex).tolist())
            return sorted(both)
        return []

    def _edges_for(self, vertex: int,
                   direction: EdgeDirection) -> list[tuple[int, int]]:
        """Incident ``(neighbor, owning machine)`` pairs for the gather phase."""
        if direction is EdgeDirection.OUT:
            start, end = self.graph.out_edge_span(vertex)
            neighbors = self.graph.out_neighbors(vertex).tolist()
            machines = self._out_edge_machine[start:end].tolist()
            return list(zip(neighbors, machines))
        if direction is EdgeDirection.IN:
            start, end = self.graph.in_edge_span(vertex)
            neighbors = self.graph.in_neighbors(vertex).tolist()
            machines = self._in_edge_machine[start:end].tolist()
            return list(zip(neighbors, machines))
        if direction is EdgeDirection.BOTH:
            return self._edges_for(vertex, EdgeDirection.OUT) + self._edges_for(
                vertex, EdgeDirection.IN
            )
        return []

    def _run_step(self, program: VertexProgram, active: list[int]) -> None:
        step_start = time.perf_counter()
        step = StepMetrics(
            name=program.name,
            num_machines=self.cluster.num_machines,
        )
        masters = self._partition.vertex_master
        for u in active:
            u_data = self._vertex_data[u]
            u_machine = int(masters[u])
            # PowerGraph-style gather: each machine owning edges of u
            # pre-aggregates its local gather values (partials) and only the
            # partial results of remote machines cross the network.
            partials: dict[int, Any] = {}
            for v, edge_machine in self._edges_for(u, program.gather_direction):
                value = program.gather(u, v, u_data, self._vertex_data[v])
                step.gather_invocations += 1
                cost = program.compute_cost(value)
                step.compute_units_per_machine[edge_machine] += cost
                if value is None:
                    continue
                if edge_machine in partials:
                    partials[edge_machine] = program.sum(partials[edge_machine], value)
                else:
                    partials[edge_machine] = value
            gathered: Any = None
            has_value = False
            for machine, partial in partials.items():
                if machine != u_machine:
                    # One aggregated message per remote mirror: sent by the
                    # mirror, received by the master.
                    size = program.gather_payload_bytes(partial)
                    step.network_bytes_per_machine[machine] += size
                    step.network_bytes_per_machine[u_machine] += size
                if has_value:
                    gathered = program.sum(gathered, partial)
                else:
                    gathered = partial
                    has_value = True
            previous_bytes = self._vertex_data_bytes[u]
            program.apply(u, u_data, gathered if has_value else None)
            step.apply_invocations += 1
            new_bytes = payload_size_bytes(u_data)
            self._vertex_data_bytes[u] = new_bytes
            delta = new_bytes - previous_bytes
            replicas = self._partition.machines_of(u)
            for machine in replicas:
                if delta > 0:
                    self._memory.charge(machine, delta)
                elif delta < 0:
                    self._memory.release(machine, -delta)
            # Replica synchronization: the new Du is shipped to every mirror.
            if len(replicas) > 1:
                sync_bytes = new_bytes * (len(replicas) - 1)
                step.sync_bytes_per_machine[u_machine] += sync_bytes
            if program.scatter_direction is not EdgeDirection.NONE:
                for v in self._neighbors_for(u, program.scatter_direction):
                    edge_key = (u, v)
                    edge_data = self._edge_data.setdefault(edge_key, {})
                    program.scatter(u, v, u_data, edge_data)
        for machine in range(self.cluster.num_machines):
            step.vertex_data_bytes_per_machine[machine] = self._memory.usage_bytes(machine)
        step.wall_clock_seconds = time.perf_counter() - step_start
        self._metrics.add_step(step)
