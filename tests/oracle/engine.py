"""The serial GAS engine: vertex programs run edge by edge, for reference.

Each super-step runs gather / sum / apply (Section 2.3 of the paper) over
every active vertex's out-edges on a graph placed by the vertex-cut of
:func:`~repro.runtime.partition.partition_graph`, with the real
computation and the GraphLab accounting:

* a gather runs on the machine that owns the edge (the mirror); each mirror
  folds its local gathers with the program's ``sum`` and ships **one**
  partial per (vertex, mirror) to the vertex's master, charged to both;
* after apply, the vertex data ``Du`` (a plain dict) is charged to every
  replica's memory and ``(replicas - 1) × |Du|`` sync bytes to the master;
* a machine over its (scaled) capacity raises
  :class:`~repro.errors.ResourceExhaustedError`.

Sizes are :func:`payload_size_bytes`.  The shipped engines derive the same
charges from arrays (:mod:`repro.snaple.accounting`); this engine is the
oracle they are held to.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EngineError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.gas.cost_model import CostModel
from repro.gas.memory import MemoryTracker
from repro.gas.metrics import RunMetrics, StepMetrics
from repro.graph.digraph import DiGraph
from repro.runtime.partition import GraphPartition, Partitioner, partition_graph


def payload_size_bytes(value: Any) -> int:
    """Serialized size of a payload as a C++ GAS engine would ship it:
    8 bytes per number, one per character, container overhead ignored."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, dict):
        return sum(payload_size_bytes(k) + payload_size_bytes(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(payload_size_bytes(item) for item in value)
    if hasattr(value, "nbytes"):  # numpy arrays
        return int(value.nbytes)
    return sys.getsizeof(value)


class VertexProgram:
    """One GAS super-step; ``gather`` runs per out-edge ``(u, v)``."""

    name: str = "step"

    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> Any:
        raise NotImplementedError

    def sum(self, left: Any, right: Any) -> Any:
        """Combine two gather results (commutative and associative)."""
        raise NotImplementedError(
            f"{type(self).__name__} gathered more than one value but does "
            "not define sum()"
        )

    def apply(self, u: int, u_data: dict[str, Any], gathered: Any) -> None:
        raise NotImplementedError

    def gather_payload_bytes(self, value: Any) -> int:
        return payload_size_bytes(value)

    def compute_cost(self, value: Any) -> int:
        """Work units charged per gather invocation."""
        return 1


@dataclass
class GasRunResult:
    """Final vertex data (one dict per vertex) plus metrics."""

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
        return self.vertex_data[vertex]


@dataclass
class GasEngine:
    """Synchronous gather-apply engine on a simulated cluster (one type-II
    machine by default); ``enforce_memory=False`` only records peaks."""

    graph: DiGraph
    cluster: ClusterConfig = field(default_factory=lambda: cluster_of(TYPE_II, 1))
    partitioner: Partitioner | None = None
    enforce_memory: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self._partition = partition_graph(
            self.graph, self.cluster.num_machines,
            partitioner=self.partitioner, seed=self.seed)
        # Machine of each out-edge, in CSR neighbour order.
        self._edge_machine = self._partition.edge_machine[
            self.graph.csr_out_order()]
        self._memory = MemoryTracker(self.cluster, enforce=self.enforce_memory)
        self._vertex_data: list[dict[str, Any]] = [
            {} for _ in range(self.graph.num_vertices)]
        self._vertex_data_bytes = [0] * self.graph.num_vertices
        self._metrics = RunMetrics()

    def run(self, steps: list[VertexProgram],
            *, vertices: list[int] | None = None) -> GasRunResult:
        """Run the steps in order; ``vertices`` restricts the last one."""
        if not steps:
            raise EngineError("at least one GAS step is required")
        start = time.perf_counter()
        everyone = list(self.graph.vertices())
        targets = everyone if vertices is None else list(vertices)
        for index, step in enumerate(steps):
            self._run_step(step, targets if index == len(steps) - 1 else everyone)
        self._metrics.wall_clock_seconds = time.perf_counter() - start
        self._metrics.simulated_seconds = CostModel(self.cluster).run_cost(
            self._metrics)
        return GasRunResult(vertex_data=self._vertex_data,
                            metrics=self._metrics,
                            partition=self._partition, cluster=self.cluster)

    def _run_step(self, program: VertexProgram, active: list[int]) -> None:
        step_start = time.perf_counter()
        step = StepMetrics(name=program.name,
                           num_machines=self.cluster.num_machines)
        masters = self._partition.vertex_master
        for u in active:
            u_data = self._vertex_data[u]
            u_machine = int(masters[u])
            start, end = self.graph.out_edge_span(u)
            partials: dict[int, Any] = {}
            for v, edge_machine in zip(self.graph.out_neighbors(u).tolist(),
                                       self._edge_machine[start:end].tolist()):
                value = program.gather(u, v, u_data, self._vertex_data[v])
                step.gather_invocations += 1
                step.compute_units_per_machine[edge_machine] += \
                    program.compute_cost(value)
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
                    size = program.gather_payload_bytes(partial)
                    step.network_bytes_per_machine[machine] += size
                    step.network_bytes_per_machine[u_machine] += size
                if has_value:
                    gathered = program.sum(gathered, partial)
                else:
                    gathered = partial
                    has_value = True
            program.apply(u, u_data, gathered if has_value else None)
            step.apply_invocations += 1
            new_bytes = payload_size_bytes(u_data)
            delta = new_bytes - self._vertex_data_bytes[u]
            self._vertex_data_bytes[u] = new_bytes
            replicas = self._partition.machines_of(u)
            for machine in replicas:
                if delta > 0:
                    self._memory.charge(machine, delta)
                elif delta < 0:
                    self._memory.release(machine, -delta)
            if len(replicas) > 1:
                step.sync_bytes_per_machine[u_machine] += \
                    new_bytes * (len(replicas) - 1)
        for machine in range(self.cluster.num_machines):
            step.vertex_data_bytes_per_machine[machine] = \
                self._memory.usage_bytes(machine)
        step.wall_clock_seconds = time.perf_counter() - step_start
        self._metrics.add_step(step)
