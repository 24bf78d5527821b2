"""Graph partitioning shared by every execution layer.

The simulated GAS engine and the shared-nothing parallel executor need a
placement of the graph on machines/workers: PowerGraph's *vertex-cut*
(assigning edges and replicating vertices).  Pregel's *edge-cut* (assigning
vertices with their out-edges) lives beside it as a placement primitive —
the repository benchmark times it as its vertex-partitioning layer.  This
module is the single home of both, sharing the strategy interface, the
assignment validation and the balance metrics; :mod:`repro.gas` re-exports
the names its engine uses.

Vertex-cut strategies (GAS):

* :class:`RandomVertexCut` — hash each edge to a machine (PowerGraph's
  default random placement);
* :class:`GreedyVertexCut` — the "oblivious" greedy heuristic that places an
  edge on a machine already holding one of its endpoints, reducing the
  replication factor;
* :class:`HdrfVertexCut` — the High-Degree-Replicated-First heuristic, which
  prefers replicating the endpoint with the higher (partial) degree; on
  power-law graphs this concentrates replication on the few hubs and lowers
  the replication factor further, which the partitioning ablation measures.

Edge-cut strategies:

* :class:`HashVertexPartitioner` — Pregel's default: hash the vertex id;
* :class:`BlockVertexPartitioner` — contiguous ranges of vertex ids, which
  keeps generator-produced communities together and serves as a locality
  ablation against the hash placement.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.runtime.state import indptr_from_counts

__all__ = [
    "GraphPartition",
    "Partitioner",
    "RandomVertexCut",
    "GreedyVertexCut",
    "HdrfVertexCut",
    "partition_graph",
    "VertexPartition",
    "VertexPartitioner",
    "HashVertexPartitioner",
    "BlockVertexPartitioner",
    "partition_vertices",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _check_num_machines(num_machines: int) -> None:
    if num_machines <= 0:
        raise PartitionError("num_machines must be positive")


def _validate_assignment(assignment: np.ndarray, expected_size: int,
                         num_machines: int, *, unit: str) -> None:
    """Shape/range validation shared by both placement flavours."""
    if assignment.shape != (expected_size,):
        raise PartitionError(
            "partitioner returned an assignment of the wrong shape"
        )
    if expected_size and (assignment.min() < 0
                          or assignment.max() >= num_machines):
        raise PartitionError(
            f"partitioner assigned {unit} to a non-existent machine"
        )


def _load_imbalance(counts: np.ndarray) -> float:
    """Max/mean ratio of per-machine counts (1.0 is perfectly even)."""
    if counts.size == 0 or counts.mean() == 0:
        return 1.0
    return float(counts.max() / counts.mean())


# ======================================================================
# Vertex-cut placement (GAS / PowerGraph)
# ======================================================================
@dataclass
class GraphPartition:
    """Placement of a graph's edges and vertex replicas on a cluster.

    Attributes
    ----------
    num_machines:
        Number of machines in the simulated cluster.
    edge_machine:
        Array with one entry per edge giving the machine that owns it.
    vertex_master:
        Array with one entry per vertex giving its master machine.
    replica_indptr, replica_machine:
        The machines holding a replica of each vertex, as one CSR pair:
        vertex ``u``'s machines, ascending, are
        ``replica_machine[replica_indptr[u]:replica_indptr[u + 1]]``
        (always at least one, and always including the master).
    """

    num_machines: int
    edge_machine: np.ndarray
    vertex_master: np.ndarray
    replica_indptr: np.ndarray
    replica_machine: np.ndarray

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_master.size)

    @property
    def num_edges(self) -> int:
        return int(self.edge_machine.size)

    def replication_factor(self) -> float:
        """Average number of replicas per vertex (PowerGraph's key metric)."""
        if not self.num_vertices:
            return 0.0
        return int(self.replica_machine.size) / self.num_vertices

    def edges_per_machine(self) -> np.ndarray:
        """Number of edges placed on each machine."""
        return np.bincount(self.edge_machine, minlength=self.num_machines)

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-machine edge counts (1.0 is perfectly even)."""
        return _load_imbalance(self.edges_per_machine())

    def machines_of(self, vertex: int) -> set[int]:
        """Machines holding a replica of ``vertex``."""
        return set(self.replica_machine[self.replica_indptr[vertex]:
                                        self.replica_indptr[vertex + 1]]
                   .tolist())

    def is_local_edge(self, source: int, target: int, edge_index: int) -> bool:
        """True when both endpoint masters live on the edge's machine."""
        machine = self.edge_machine[edge_index]
        return bool(self.vertex_master[source] == machine
                    and self.vertex_master[target] == machine)


class Partitioner(ABC):
    """Strategy interface for assigning edges to machines."""

    @abstractmethod
    def assign_edges(self, graph: DiGraph, num_machines: int,
                     *, seed: int) -> np.ndarray:
        """Return one machine id per edge."""


class RandomVertexCut(Partitioner):
    """Uniform random edge placement (PowerGraph's default)."""

    def assign_edges(self, graph: DiGraph, num_machines: int,
                     *, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, num_machines, size=graph.num_edges, dtype=np.int64)


class GreedyVertexCut(Partitioner):
    """Oblivious greedy placement minimizing new replicas.

    For each edge, prefer a machine that already hosts both endpoints, then
    one hosting either endpoint (the least loaded among them), then the least
    loaded machine overall.  A balance guard keeps any machine from holding
    more than ``balance_slack`` times its fair share of edges, which is what
    PowerGraph's oblivious heuristic does to avoid collapsing a connected
    graph onto one machine.
    """

    def __init__(self, balance_slack: float = 1.25) -> None:
        if balance_slack < 1.0:
            raise PartitionError("balance_slack must be >= 1.0")
        self._balance_slack = balance_slack

    def assign_edges(self, graph: DiGraph, num_machines: int,
                     *, seed: int) -> np.ndarray:
        rng = random.Random(seed)
        placed: list[set[int]] = [set() for _ in range(graph.num_vertices)]
        load = [0] * num_machines
        assignment = np.zeros(graph.num_edges, dtype=np.int64)
        src, dst = graph.edge_arrays()
        fair_share = graph.num_edges / num_machines if num_machines else 0.0
        load_cap = self._balance_slack * fair_share + 1.0
        for index in range(graph.num_edges):
            u = int(src[index])
            v = int(dst[index])
            both = placed[u] & placed[v]
            either = placed[u] | placed[v]
            if both:
                candidates = both
            elif either:
                candidates = either
            else:
                candidates = set(range(num_machines))
            # Balance guard: drop candidates that already exceed their share.
            balanced = {m for m in candidates if load[m] < load_cap}
            if not balanced:
                balanced = set(range(num_machines))
            min_load = min(load[m] for m in balanced)
            best = [m for m in balanced if load[m] == min_load]
            machine = rng.choice(best)
            assignment[index] = machine
            placed[u].add(machine)
            placed[v].add(machine)
            load[machine] += 1
        return assignment


class HdrfVertexCut(Partitioner):
    """High-Degree-Replicated-First streaming vertex-cut.

    For every edge the candidate machines are scored with two terms:

    * a *replication* term rewarding machines that already hold one of the
      endpoints, weighted so that the endpoint with the **higher** partial
      degree is the one that gets replicated (hubs are replicated, low-degree
      vertices stay on few machines);
    * a *balance* term (weighted by ``balance_weight``) rewarding the least
      loaded machines.

    On power-law graphs this yields lower replication factors than both the
    random and the oblivious-greedy placements while keeping the edge load
    balanced (the default ``balance_weight`` of 2.0 trades a little
    replication for near-perfect balance); the partitioning ablation
    quantifies the effect on SNAPLE's synchronization traffic.
    """

    def __init__(self, balance_weight: float = 2.0) -> None:
        if balance_weight < 0.0:
            raise PartitionError("balance_weight must be non-negative")
        self._balance_weight = balance_weight

    def assign_edges(self, graph: DiGraph, num_machines: int,
                     *, seed: int) -> np.ndarray:
        rng = random.Random(seed)
        placed: list[set[int]] = [set() for _ in range(graph.num_vertices)]
        partial_degree = [0] * graph.num_vertices
        load = [0] * num_machines
        assignment = np.zeros(graph.num_edges, dtype=np.int64)
        src, dst = graph.edge_arrays()
        epsilon = 1.0
        for index in range(graph.num_edges):
            u = int(src[index])
            v = int(dst[index])
            partial_degree[u] += 1
            partial_degree[v] += 1
            degree_u = partial_degree[u]
            degree_v = partial_degree[v]
            # Normalized degrees decide which endpoint the replication term
            # prefers to replicate (the higher-degree one).
            theta_u = degree_u / (degree_u + degree_v)
            theta_v = 1.0 - theta_u
            max_load = max(load)
            min_load = min(load)
            best_score = -math.inf
            best_machines: list[int] = []
            for machine in range(num_machines):
                replication = 0.0
                if machine in placed[u]:
                    replication += 1.0 + (1.0 - theta_u)
                if machine in placed[v]:
                    replication += 1.0 + (1.0 - theta_v)
                balance = (
                    self._balance_weight
                    * (max_load - load[machine])
                    / (epsilon + max_load - min_load)
                )
                score = replication + balance
                if score > best_score + 1e-12:
                    best_score = score
                    best_machines = [machine]
                elif abs(score - best_score) <= 1e-12:
                    best_machines.append(machine)
            machine = rng.choice(best_machines)
            assignment[index] = machine
            placed[u].add(machine)
            placed[v].add(machine)
            load[machine] += 1
        return assignment


def partition_graph(
    graph: DiGraph,
    num_machines: int,
    *,
    partitioner: Partitioner | None = None,
    seed: int = 0,
) -> GraphPartition:
    """Partition ``graph`` onto ``num_machines`` simulated machines.

    Returns a :class:`GraphPartition` with edge placements, vertex masters
    (the machine holding most of a vertex's edges, the lowest id on ties)
    and the replica sets implied by the vertex-cut.
    """
    _check_num_machines(num_machines)
    if partitioner is None:
        partitioner = RandomVertexCut() if num_machines > 1 else _SingleMachine()
    edge_machine = partitioner.assign_edges(graph, num_machines, seed=seed)
    _validate_assignment(edge_machine, graph.num_edges, num_machines,
                         unit="an edge")

    vertex_master, replica_indptr, replica_machine = _masters_and_replicas(
        graph, num_machines, np.asarray(edge_machine, dtype=np.int64))
    return GraphPartition(
        num_machines=num_machines,
        edge_machine=edge_machine,
        vertex_master=vertex_master,
        replica_indptr=replica_indptr,
        replica_machine=replica_machine,
    )


def _masters_and_replicas(graph: DiGraph, num_machines: int,
                          edge_machine: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Master machine and replica machines of every vertex of a vertex-cut.

    A vertex is replicated on every machine holding one of its edges (both
    endpoints count).  Its master is the machine holding the most of its
    edges, the lowest machine id on ties; an isolated vertex lives on
    ``vertex % num_machines`` alone.  Returns ``(vertex_master,
    replica_indptr, replica_machine)`` (see :class:`GraphPartition`).
    """
    num_vertices = graph.num_vertices
    machines = np.int64(num_machines)
    src, dst = graph.edge_arrays()
    pairs, counts = np.unique(
        np.concatenate([src * machines + edge_machine,
                        dst * machines + edge_machine]),
        return_counts=True)
    pair_vertex = pairs // machines
    pair_machine = pairs % machines
    vertex_master = np.arange(num_vertices, dtype=np.int64) % machines
    # Per vertex, most edges first, then lowest machine: the first row wins.
    order = np.lexsort((pair_machine, -counts, pair_vertex))
    first = np.ones(order.size, dtype=bool)
    first[1:] = pair_vertex[order][1:] != pair_vertex[order][:-1]
    winners = order[first]
    vertex_master[pair_vertex[winners]] = pair_machine[winners]

    # Pairs are vertex-major, so each vertex's machines are one slice; an
    # isolated vertex's slice is its master, inserted in vertex order.
    replica_counts = np.bincount(pair_vertex, minlength=num_vertices)
    isolated = np.flatnonzero(replica_counts == 0)
    replica_machine = np.insert(pair_machine,
                                np.searchsorted(pair_vertex, isolated),
                                vertex_master[isolated])
    replica_counts[isolated] = 1
    return vertex_master, indptr_from_counts(replica_counts), replica_machine


class _SingleMachine(Partitioner):
    """Trivial partitioner placing everything on machine 0."""

    def assign_edges(self, graph: DiGraph, num_machines: int,
                     *, seed: int) -> np.ndarray:
        return np.zeros(graph.num_edges, dtype=np.int64)


# ======================================================================
# Edge-cut placement (Pregel)
# ======================================================================
@dataclass
class VertexPartition:
    """Placement of every vertex (and its out-edges) on a machine.

    Attributes
    ----------
    num_machines:
        Number of machines in the simulated cluster.
    vertex_machine:
        Array with one entry per vertex giving the machine that owns it.
    """

    num_machines: int
    vertex_machine: np.ndarray

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_machine.size)

    def machine_of(self, vertex: int) -> int:
        """Machine owning ``vertex``."""
        return int(self.vertex_machine[vertex])

    def vertices_per_machine(self) -> np.ndarray:
        """Number of vertices placed on each machine."""
        return np.bincount(self.vertex_machine, minlength=self.num_machines)

    def edges_per_machine(self, graph: DiGraph) -> np.ndarray:
        """Number of out-edges stored on each machine."""
        counts = np.zeros(self.num_machines, dtype=np.int64)
        degrees = graph.out_degrees()
        for machine in range(self.num_machines):
            counts[machine] = int(degrees[self.vertex_machine == machine].sum())
        return counts

    def load_imbalance(self, graph: DiGraph) -> float:
        """Max/mean ratio of per-machine edge counts (1.0 is perfectly even)."""
        return _load_imbalance(self.edges_per_machine(graph))

    def cut_edges(self, graph: DiGraph) -> int:
        """Number of edges whose endpoints live on different machines.

        Every cut edge turns the message sent along it into network traffic;
        this is the edge-cut analog of the vertex-cut's replication factor.
        """
        src, dst = graph.edge_arrays()
        return int(
            (self.vertex_machine[src] != self.vertex_machine[dst]).sum()
        )

    def cut_fraction(self, graph: DiGraph) -> float:
        """Fraction of edges that cross machines."""
        if graph.num_edges == 0:
            return 0.0
        return self.cut_edges(graph) / graph.num_edges


class VertexPartitioner(ABC):
    """Strategy interface for assigning vertices to machines."""

    @abstractmethod
    def assign_vertices(self, graph: DiGraph, num_machines: int,
                        *, seed: int) -> np.ndarray:
        """Return one machine id per vertex."""


class HashVertexPartitioner(VertexPartitioner):
    """Pregel's default placement: hash the vertex id modulo machine count."""

    def assign_vertices(self, graph: DiGraph, num_machines: int,
                        *, seed: int) -> np.ndarray:
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        # A multiplicative hash decorrelates the placement from any structure
        # in the generator's id assignment while staying deterministic.
        mixed = (ids * np.int64(2654435761) + np.int64(seed)) & np.int64(0x7FFFFFFF)
        return mixed % num_machines


class BlockVertexPartitioner(VertexPartitioner):
    """Contiguous vertex-id ranges, one block per machine."""

    def assign_vertices(self, graph: DiGraph, num_machines: int,
                        *, seed: int) -> np.ndarray:
        if graph.num_vertices == 0:
            return np.zeros(0, dtype=np.int64)
        block = -(-graph.num_vertices // num_machines)  # ceiling division
        ids = np.arange(graph.num_vertices, dtype=np.int64)
        return np.minimum(ids // block, num_machines - 1)


def partition_vertices(
    graph: DiGraph,
    num_machines: int,
    *,
    partitioner: VertexPartitioner | None = None,
    seed: int = 0,
) -> VertexPartition:
    """Place every vertex of ``graph`` on one of ``num_machines`` machines."""
    _check_num_machines(num_machines)
    if partitioner is None:
        partitioner = HashVertexPartitioner()
    assignment = partitioner.assign_vertices(graph, num_machines, seed=seed)
    assignment = np.asarray(assignment, dtype=np.int64)
    _validate_assignment(assignment, graph.num_vertices, num_machines,
                         unit="a vertex")
    return VertexPartition(num_machines=num_machines, vertex_machine=assignment)
