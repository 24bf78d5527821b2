"""GAS accounting of the simulated engines, derived from arrays.

The serial simulated engine computes SNAPLE's answers with the kernel
(:mod:`repro.snaple.kernel`) and charges the three supersteps of Algorithm 2
as a PowerGraph run of Algorithm 2's vertex programs would, without running
per-edge callbacks.  Every charge is a function of array lengths and of
the vertex-cut (:class:`~repro.runtime.partition.GraphPartition`); sizes
are those of the vertex programs' payloads — 8 bytes per id or number, a
``Du`` key its length:

====  ====================  =========================  ======================
step  compute per edge      gather partial per          vertex data ``Du``
      (edge's machine)      (vertex, remote mirror)
====  ====================  =========================  ======================
1     1                     8 B per gathered id         5 + 8·|Γ̂(u)|
2     4                     24 B per distinct           + 4 + 16·|kept(u)|
                            neighbour
3     1 + surviving paths   24 B per distinct           + 9 + 8·|predicted|
      through the edge      candidate                   (targets only)
====  ====================  =========================  ======================

``|Γ̂(u)|`` keeps duplicate edges, as the programs' vertex data does.  A
partial is charged to both the mirror that sends it and the master that
receives it.  :func:`charge_supersteps` turns each step's arrays into its
:class:`~repro.gas.metrics.StepMetrics` for SNAPLE
(:func:`superstep_metrics`) and for the naive BASELINE
(:func:`repro.baselines.gas_baseline.run_baseline`): after apply,
``|Du| × (replicas − 1)`` sync bytes are charged to the master, and every
replica hosts ``Du``.  Vertex data only grows, so a machine overflows
during a step exactly when it is over capacity at the step's end; only
then is the step replayed vertex by vertex to raise the
:class:`~repro.errors.ResourceExhaustedError` an edge-by-edge engine
raises.  The oracle that runs the programs edge by edge lives with the
tests (``tests/oracle``); the parity grids hold these charges to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gas.cluster import ClusterConfig
from repro.gas.cost_model import CostModel
from repro.gas.memory import MemoryTracker
from repro.gas.metrics import RunMetrics, StepMetrics
from repro.graph.digraph import DiGraph
from repro.runtime.partition import GraphPartition
from repro.runtime.state import gather_slices, sorted_distinct
from repro.snaple.kernel import PathTrace

__all__ = ["STEP_NAMES", "SimulatedRun", "Placement", "PathTally",
           "superstep_metrics", "charge_supersteps"]

#: Names of Algorithm 2's supersteps, as its vertex programs have them.
STEP_NAMES = ("sample-neighborhood", "estimate-similarities",
              "compute-recommendations")

#: Bytes of one id or number in a gather partial or in ``Du``; a key of
#: ``Du`` costs its length.
ID_BYTES = 8
#: Bytes per step-2 partial entry ``v -> (path sim, selection sim)`` and per
#: step-3 partial entry ``z -> (value, count)``.
ENTRY_BYTES = 24
#: Bytes of a kept-neighbour entry ``v -> sim`` in ``Du``.
SIM_BYTES = 16


@dataclass
class SimulatedRun:
    """What the simulated run reports besides its answers (``report.native``)."""

    metrics: RunMetrics
    partition: GraphPartition
    cluster: ClusterConfig

    @property
    def simulated_seconds(self) -> float:
        return self.metrics.simulated_seconds

    @property
    def wall_clock_seconds(self) -> float:
        return self.metrics.wall_clock_seconds


class Placement:
    """The partition as arrays aligned with the graph's CSR out-adjacency."""

    def __init__(self, graph: DiGraph, partition: GraphPartition) -> None:
        self.num_vertices = graph.num_vertices
        self.num_machines = partition.num_machines
        self.indptr = graph.csr_out_adjacency()[0]
        self.degrees = np.diff(self.indptr)
        self.edge_machine = partition.edge_machine[graph.csr_out_order()]
        self.edge_source = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), self.degrees)
        self.master = np.asarray(partition.vertex_master, dtype=np.int64)

    def edges_of(self, vertices: np.ndarray) -> np.ndarray:
        """CSR positions of ``vertices``' out-edges, vertex by vertex."""
        return gather_slices(self.indptr[vertices], self.degrees[vertices])

    def bincount(self, machines: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray:
        counts = np.bincount(machines, weights=weights,
                             minlength=self.num_machines)
        return counts.astype(np.int64)

    def partial_bytes(self, vertex: np.ndarray, machine: np.ndarray,
                      size) -> np.ndarray:
        """``size`` bytes (one number, or one per entry) per listed
        (vertex, mirror) entry held on a mirror that is not the vertex's
        master, charged to both ends."""
        master = self.master[vertex]
        remote = machine != master
        size = np.broadcast_to(size, remote.shape)[remote]
        return (self.bincount(machine[remote], weights=size)
                + self.bincount(master[remote], weights=size))

    def distinct_partial_bytes(self, group: np.ndarray, machine: np.ndarray,
                               size, vertex_of: np.ndarray | None = None
                               ) -> np.ndarray:
        """:meth:`partial_bytes` over distinct (row, item, mirror) entries.

        ``group`` lists ``row * |V| + item`` per entry; a row is a vertex,
        or indexes ``vertex_of`` when one vertex applies more than once.
        ``size`` is one number, or an array of bytes per item.
        """
        if self.num_machines == 1:
            return np.zeros(1, dtype=np.int64)
        keys = sorted_distinct(group * self.num_machines + machine)
        entries = keys // self.num_machines
        rows = entries // self.num_vertices
        vertex = rows if vertex_of is None else vertex_of[rows]
        size = np.broadcast_to(size, self.num_vertices)[
            entries % self.num_vertices]
        return self.partial_bytes(vertex, keys % self.num_machines, size)


class PathTally:
    """Step-3 gather charges, summed over the blocks of phase 3b.

    Pass an instance as ``on_trace`` to
    :func:`~repro.snaple.kernel.combine_and_rank` with
    ``neighbor_order="csr"``: each surviving path costs one compute unit
    on its first hop's machine, and each distinct (target, mirror,
    candidate) a partial entry.
    """

    def __init__(self, graph: DiGraph, partition: GraphPartition) -> None:
        self.placement = Placement(graph, partition)
        machines = partition.num_machines
        self.compute = np.zeros(machines, dtype=np.int64)
        self.network = np.zeros(machines, dtype=np.int64)

    def __call__(self, block: np.ndarray, trace: PathTrace) -> None:
        placement = self.placement
        machine = placement.edge_machine[trace.edge]
        self.compute += placement.bincount(machine)
        self.network += placement.distinct_partial_bytes(
            trace.key, machine, ENTRY_BYTES, vertex_of=block)


def superstep_metrics(
    graph: DiGraph,
    cluster: ClusterConfig,
    partition: GraphPartition,
    paths: PathTally,
    *,
    gamma_sizes: np.ndarray,
    gathered: np.ndarray,
    kept_sizes: np.ndarray,
    targets: np.ndarray,
    predicted_sizes: np.ndarray,
    enforce_memory: bool,
) -> RunMetrics:
    """The :class:`RunMetrics` of Algorithm 2's three supersteps.

    ``gamma_sizes`` is ``|Γ̂(u)|`` per vertex with duplicate edges kept;
    ``gathered`` masks the out-edges (CSR order) whose ids the step-1
    gather shipped; ``kept_sizes`` is ``|kept(u)|`` per vertex.  Step 3
    runs over ``targets`` in order (a repeated target runs again, as in the
    engine) with ``predicted_sizes`` aligned to it, and ``paths`` has
    tallied its surviving paths over ``partition``.  With
    ``enforce_memory`` a machine over its capacity raises
    :class:`~repro.errors.ResourceExhaustedError`.
    """
    placement = paths.placement
    machine = placement.edge_machine
    source = placement.edge_source
    everyone = np.arange(graph.num_vertices, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)

    sample_bytes = len("gamma") + ID_BYTES * np.asarray(gamma_sizes,
                                                        dtype=np.int64)
    sims_bytes = sample_bytes + len("sims") + SIM_BYTES * np.asarray(
        kept_sizes, dtype=np.int64)
    final_bytes = sims_bytes.copy()
    # A repeated target is written once: it predicts the same list again.
    final_bytes[targets] += len("predicted") + ID_BYTES * np.asarray(
        predicted_sizes, dtype=np.int64)
    steps = [
        (STEP_NAMES[0], everyone, placement.bincount(machine),
         placement.partial_bytes(source[gathered], machine[gathered],
                                 ID_BYTES),
         np.zeros(graph.num_vertices, dtype=np.int64), sample_bytes),
        (STEP_NAMES[1], everyone, 4 * placement.bincount(machine),
         placement.distinct_partial_bytes(
             source * graph.num_vertices + graph.csr_out_adjacency()[1],
             machine, ENTRY_BYTES),
         sample_bytes, sims_bytes),
        (STEP_NAMES[2], targets,
         placement.bincount(machine[placement.edges_of(targets)])
         + paths.compute, paths.network, sims_bytes, final_bytes),
    ]
    return charge_supersteps(cluster, partition, placement, steps,
                             enforce_memory=enforce_memory)


def charge_supersteps(cluster: ClusterConfig, partition: GraphPartition,
                      placement: Placement, steps, *,
                      enforce_memory: bool) -> RunMetrics:
    """The :class:`RunMetrics` of supersteps whose charges are arrays.

    Each step is ``(name, active, compute, network, before, after)``: the
    vertices that apply, in order; the compute units and partial bytes per
    machine; and every vertex's ``|Du|`` before and after the step.  Every
    replica hosts ``Du``; after apply, ``|Du| × (replicas − 1)`` sync bytes
    are charged to the master.  With ``enforce_memory`` a machine over its
    capacity raises :class:`~repro.errors.ResourceExhaustedError`.
    """
    replica_counts = np.diff(partition.replica_indptr)
    replica_vertex = np.repeat(
        np.arange(placement.num_vertices, dtype=np.int64), replica_counts)
    memory = MemoryTracker(cluster, enforce=enforce_memory)
    usage = np.zeros(cluster.num_machines, dtype=np.int64)
    metrics = RunMetrics()
    for name, active, compute, network, before, after in steps:
        grown = after - before
        previous = usage
        usage = previous + placement.bincount(partition.replica_machine,
                                              weights=grown[replica_vertex])
        if enforce_memory and (usage > memory.capacity_bytes).any():
            _raise_first_overflow(memory, partition, previous, active, grown)
        sync = after[active] * (replica_counts[active] - 1)
        metrics.add_step(StepMetrics(
            name=name,
            num_machines=cluster.num_machines,
            gather_invocations=int(placement.degrees[active].sum()),
            compute_units_per_machine=compute.tolist(),
            network_bytes_per_machine=network.tolist(),
            sync_bytes_per_machine=placement.bincount(
                placement.master[active], weights=sync).tolist(),
            apply_invocations=int(active.size),
            vertex_data_bytes_per_machine=usage.tolist(),
        ))
    metrics.simulated_seconds = CostModel(cluster).run_cost(metrics)
    return metrics


def _raise_first_overflow(memory: MemoryTracker, partition: GraphPartition,
                          usage: np.ndarray, active: np.ndarray,
                          grown: np.ndarray) -> None:
    """Replay one step's charges in apply order until a machine overflows.

    ``usage`` is every machine's footprint before the step.  A repeated
    vertex grows only on its first apply, as in the engine.
    """
    for machine, num_bytes in enumerate(usage.tolist()):
        memory.charge(machine, num_bytes)
    seen: set[int] = set()
    for u in active.tolist():
        if u in seen:
            continue
        seen.add(u)
        delta = int(grown[u])
        if delta:
            for machine in partition.machines_of(u):
                memory.charge(machine, delta)
    raise AssertionError("a step-end overflow must overflow on replay")
