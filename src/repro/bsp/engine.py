"""Synchronous BSP/Pregel engine over a simulated cluster.

The engine executes a :class:`~repro.bsp.vertex.BspVertexProgram` as a
sequence of supersteps on a graph whose vertices are distributed over a
simulated cluster with an edge-cut (see :mod:`repro.runtime.partition`).  For
every superstep it performs the real computation (results are exact) while
accounting the work, the network traffic and the memory footprint that an
equivalent Giraph/Pregel run would incur:

* ``compute`` runs on the machine owning the vertex;
* messages between vertices on different machines are charged to the sender
  and the receiver machine; if the program defines a
  :class:`~repro.bsp.vertex.MessageCombiner`, messages produced on one
  machine for the same destination vertex are merged before crossing the
  network, exactly as Pregel combiners do;
* every machine's vertex-state and in-flight-message footprint is tracked
  against its (scaled) capacity, raising
  :class:`~repro.errors.ResourceExhaustedError` on overflow.

The accounting reuses the GAS metrics and cost model so that simulated times
of the two programming models are directly comparable (the engine-comparison
ablation relies on this).
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Mapping, MutableSequence, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EngineError
from repro.gas.cluster import ClusterConfig, TYPE_II, cluster_of
from repro.gas.cost_model import CostModel
from repro.gas.memory import MemoryTracker
from repro.gas.metrics import RunMetrics, StepMetrics
from repro.gas.vertex_program import payload_size_bytes
from repro.runtime.partition import (
    VertexPartition,
    VertexPartitioner,
    partition_vertices,
)
from repro.bsp.vertex import BspVertexProgram, ComputeContext
from repro.graph.digraph import DiGraph

__all__ = ["BspEngine", "BspRunResult"]


def _state_bytes(state: Mapping[str, Any]) -> int:
    """Accounting bytes of one vertex's state, dict or columnar row alike."""
    nbytes = getattr(state, "nbytes", None)
    if callable(nbytes):
        return nbytes()
    return payload_size_bytes(state)


@dataclass
class BspRunResult:
    """Outcome of running a BSP program: final vertex states plus metrics.

    ``vertex_state`` is a list of per-vertex mappings: plain dicts for
    programs without a state schema, :class:`~repro.runtime.state.VertexRow`
    column views when the program declared one.
    """

    vertex_state: Sequence[Mapping[str, Any]]
    metrics: RunMetrics
    partition: VertexPartition
    cluster: ClusterConfig
    supersteps: int
    aggregated_values: dict[str, Any] = field(default_factory=dict)

    @property
    def simulated_seconds(self) -> float:
        return self.metrics.simulated_seconds

    @property
    def wall_clock_seconds(self) -> float:
        return self.metrics.wall_clock_seconds

    def state_of(self, vertex: int) -> Mapping[str, Any]:
        """Vertex state mapping of ``vertex`` after the run."""
        return self.vertex_state[vertex]


@dataclass
class BspEngine:
    """Synchronous Pregel-style engine on a simulated cluster.

    Parameters
    ----------
    graph:
        The input graph; each vertex and its out-edges live on one machine.
    cluster:
        Simulated cluster; defaults to a single type-II machine.
    partitioner:
        Vertex-placement strategy; defaults to hash placement.
    enforce_memory:
        When ``True`` the engine raises
        :class:`~repro.errors.ResourceExhaustedError` if a machine's vertex
        state plus queued messages exceed its (scaled) capacity.
    seed:
        Seed for the partitioner.
    """

    graph: DiGraph
    cluster: ClusterConfig = field(default_factory=lambda: cluster_of(TYPE_II, 1))
    partitioner: VertexPartitioner | None = None
    enforce_memory: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self._partition = partition_vertices(
            self.graph,
            self.cluster.num_machines,
            partitioner=self.partitioner,
            seed=self.seed,
        )
        self._cost_model = CostModel(self.cluster)
        self._memory = MemoryTracker(self.cluster, enforce=self.enforce_memory)
        self._metrics = RunMetrics()
        self._store = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def partition(self) -> VertexPartition:
        """The edge-cut vertex placement used by this engine."""
        return self._partition

    @property
    def memory(self) -> MemoryTracker:
        """Memory tracker for the simulated cluster."""
        return self._memory

    @property
    def state_store(self):
        """The columnar :class:`~repro.runtime.state.StateStore`, or ``None``.

        Populated by :meth:`run` when the program declares a state schema.
        """
        return self._store

    def _init_state(self, program: BspVertexProgram,
                    num_vertices: int) -> MutableSequence[Any]:
        """Vertex state on the columnar plane when the program declares it."""
        from repro.runtime.state import StateStore, common_state_schema

        self._store = None
        schema = common_state_schema((program,))
        if schema is None:
            return [program.initial_state(u) for u in range(num_vertices)]
        self._store = StateStore(num_vertices, schema)
        state = self._store.rows()
        for u in range(num_vertices):
            initial = program.initial_state(u)
            if initial:
                row = state[u]
                for key, value in initial.items():
                    row[key] = value
        return state

    def run(self, program: BspVertexProgram,
            *, vertices: list[int] | None = None) -> BspRunResult:
        """Execute ``program`` until it halts (or hits ``max_supersteps``).

        ``vertices`` restricts the initially active set (all by default);
        other vertices still participate once a message reaches them.
        """
        if program.max_supersteps < 1:
            raise EngineError("max_supersteps must be at least 1")
        start = time.perf_counter()
        num_vertices = self.graph.num_vertices
        state = self._init_state(program, num_vertices)
        state_bytes = [_state_bytes(s) for s in state]
        machines = self._partition.vertex_machine
        for u in range(num_vertices):
            self._memory.charge(int(machines[u]), state_bytes[u])

        active = [False] * num_vertices
        initial = range(num_vertices) if vertices is None else vertices
        for u in initial:
            active[u] = True
        inbox: list[list[Any]] = [[] for _ in range(num_vertices)]
        aggregator_fns = program.aggregators()
        aggregated: dict[str, Any] = {}
        superstep = 0

        while superstep < program.max_supersteps:
            if not any(active) and not any(inbox):
                break
            outbox, next_aggregated = self._run_superstep(
                program, superstep, state, state_bytes, active, inbox,
                aggregator_fns, aggregated,
            )
            inbox = outbox
            aggregated = next_aggregated
            for u, messages in enumerate(inbox):
                if messages:
                    active[u] = True
            superstep += 1

        self._metrics.wall_clock_seconds = time.perf_counter() - start
        self._metrics.simulated_seconds = self._cost_model.run_cost(self._metrics)
        return BspRunResult(
            vertex_state=state,
            metrics=self._metrics,
            partition=self._partition,
            cluster=self.cluster,
            supersteps=superstep,
            aggregated_values=aggregated,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_superstep(
        self,
        program: BspVertexProgram,
        superstep: int,
        state: list[dict[str, Any]],
        state_bytes: list[int],
        active: list[bool],
        inbox: list[list[Any]],
        aggregator_fns: dict[str, Any],
        aggregated: dict[str, Any],
    ) -> tuple[list[list[Any]], dict[str, Any]]:
        step = StepMetrics(
            name=f"{program.name}[{superstep}]",
            num_machines=self.cluster.num_machines,
        )
        step_start = time.perf_counter()
        machines = self._partition.vertex_machine
        num_machines = self.cluster.num_machines
        outbox: list[list[Any]] = [[] for _ in range(len(state))]
        # Pending remote messages grouped by (sender machine, destination
        # vertex) so an optional combiner can merge them before they cross
        # the network, exactly as Pregel combiners do.
        pending_remote: dict[tuple[int, int], list[Any]] = defaultdict(list)
        aggregator_contrib: dict[str, Any] = {}

        def contribute(name: str, value: Any) -> None:
            if name not in aggregator_fns:
                raise EngineError(
                    f"program {program.name!r} aggregated to undeclared "
                    f"aggregator {name!r}"
                )
            if name in aggregator_contrib:
                aggregator_contrib[name] = aggregator_fns[name](
                    aggregator_contrib[name], value
                )
            else:
                aggregator_contrib[name] = value

        for u in range(len(state)):
            messages = inbox[u]
            if not active[u] and not messages:
                continue
            u_machine = int(machines[u])

            def send(source: int, target: int, value: Any,
                     *, _source_machine: int = u_machine) -> None:
                if not 0 <= target < len(state):
                    raise EngineError(
                        f"message sent to non-existent vertex {target}"
                    )
                target_machine = int(machines[target])
                if target_machine == _source_machine:
                    outbox[target].append(value)
                    # Local messages stay on the machine but still occupy its
                    # memory until consumed at the next superstep.
                    self._memory.charge(
                        target_machine, program.message_payload_bytes(value)
                    )
                else:
                    pending_remote[(_source_machine, target)].append(value)

            def halt(vertex: int) -> None:
                active[vertex] = False

            context = ComputeContext(
                superstep=superstep,
                num_vertices=self.graph.num_vertices,
                num_edges=self.graph.num_edges,
                vertex=u,
                out_neighbors=self.graph.out_neighbors(u).tolist(),
                send=send,
                halt=halt,
                aggregate=contribute,
                aggregated_values=aggregated,
            )
            active[u] = True
            program.compute(state[u], messages, context)
            step.apply_invocations += 1
            step.gather_invocations += len(messages)
            step.compute_units_per_machine[u_machine] += program.compute_cost(
                state[u], len(messages)
            )
            new_bytes = _state_bytes(state[u])
            delta = new_bytes - state_bytes[u]
            state_bytes[u] = new_bytes
            if delta > 0:
                self._memory.charge(u_machine, delta)
            elif delta < 0:
                self._memory.release(u_machine, -delta)

        # Deliver remote messages: combine per (machine, destination) when a
        # combiner is available, charge the network, and append to the
        # destination's inbox for the next superstep.
        for (source_machine, target), values in pending_remote.items():
            if program.combiner is not None and len(values) > 1:
                merged = values[0]
                for value in values[1:]:
                    merged = program.combiner.combine(merged, value)
                values = [merged]
            target_machine = int(machines[target])
            for value in values:
                size = program.message_payload_bytes(value)
                step.network_bytes_per_machine[source_machine] += size
                step.network_bytes_per_machine[target_machine] += size
                # In-flight messages occupy memory on the receiving machine
                # until they are consumed at the next superstep.
                self._memory.charge(target_machine, size)
                outbox[target].append(value)

        # Release the message memory consumed by this superstep's inbox.
        for u, messages in enumerate(inbox):
            if not messages:
                continue
            machine = int(machines[u])
            released = sum(program.message_payload_bytes(m) for m in messages)
            self._memory.release(machine, released)

        for machine in range(num_machines):
            step.vertex_data_bytes_per_machine[machine] = self._memory.usage_bytes(machine)
        if self._store is not None:
            step.state_plane_bytes = self._store.nbytes()
            self._memory.observe_state_plane(step.state_plane_bytes)
        step.wall_clock_seconds = time.perf_counter() - step_start
        self._metrics.add_step(step)

        next_aggregated = dict(aggregator_contrib)
        return outbox, next_aggregated
