"""Unit tests for the vertex-cut partitioner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.runtime.partition import (
    GreedyVertexCut,
    HdrfVertexCut,
    Partitioner,
    RandomVertexCut,
    partition_graph,
)
from repro.graph.digraph import DiGraph


class TestPartitioning:
    def test_single_machine_everything_local(self, small_social_graph):
        partition = partition_graph(small_social_graph, 1)
        assert partition.replication_factor() == pytest.approx(1.0)
        assert partition.edges_per_machine().tolist() == [small_social_graph.num_edges]

    def test_every_edge_assigned_to_valid_machine(self, small_social_graph):
        partition = partition_graph(small_social_graph, 4, seed=1)
        assert partition.edge_machine.min() >= 0
        assert partition.edge_machine.max() < 4
        assert partition.edge_machine.size == small_social_graph.num_edges

    def test_master_is_a_replica(self, small_social_graph):
        partition = partition_graph(small_social_graph, 4, seed=1)
        for vertex in range(small_social_graph.num_vertices):
            assert int(partition.vertex_master[vertex]) in partition.machines_of(vertex)

    def test_replication_factor_grows_with_machines(self, medium_social_graph):
        two = partition_graph(medium_social_graph, 2, seed=0).replication_factor()
        eight = partition_graph(medium_social_graph, 8, seed=0).replication_factor()
        assert eight > two >= 1.0

    def test_isolated_vertex_gets_a_master(self):
        graph = DiGraph(5, [0], [1])
        partition = partition_graph(graph, 3, seed=0)
        for vertex in range(5):
            assert 0 <= partition.vertex_master[vertex] < 3
            assert partition.machines_of(vertex)

    def test_invalid_machine_count(self, small_social_graph):
        with pytest.raises(PartitionError):
            partition_graph(small_social_graph, 0)

    def test_load_imbalance_reasonable_for_random_cut(self, medium_social_graph):
        partition = partition_graph(medium_social_graph, 4, seed=2)
        assert 1.0 <= partition.load_imbalance() < 1.5

    def test_is_local_edge(self):
        graph = DiGraph(2, [0], [1])
        partition = partition_graph(graph, 1)
        assert partition.is_local_edge(0, 1, 0)


class TestGreedyVersusRandom:
    def test_greedy_reduces_replication(self, medium_social_graph):
        random_cut = partition_graph(
            medium_social_graph, 8, partitioner=RandomVertexCut(), seed=5
        )
        greedy_cut = partition_graph(
            medium_social_graph, 8, partitioner=GreedyVertexCut(), seed=5
        )
        assert greedy_cut.replication_factor() < random_cut.replication_factor()

    def test_greedy_uses_multiple_machines(self, medium_social_graph):
        # Oblivious greedy placement does not guarantee perfect spreading on a
        # connected graph, but it must use more than one machine.
        greedy_cut = partition_graph(
            medium_social_graph, 4, partitioner=GreedyVertexCut(), seed=5
        )
        assert len(set(np.unique(greedy_cut.edge_machine))) >= 2

    def test_custom_partitioner_shape_validated(self, small_social_graph):
        class BadShape(Partitioner):
            def assign_edges(self, graph, num_machines, *, seed):
                return np.zeros(3, dtype=np.int64)

        with pytest.raises(PartitionError):
            partition_graph(small_social_graph, 2, partitioner=BadShape())

    def test_custom_partitioner_range_validated(self, small_social_graph):
        class BadRange(Partitioner):
            def assign_edges(self, graph, num_machines, *, seed):
                return np.full(graph.num_edges, 99, dtype=np.int64)

        with pytest.raises(PartitionError):
            partition_graph(small_social_graph, 2, partitioner=BadRange())

    def test_deterministic_given_seed(self, small_social_graph):
        first = partition_graph(small_social_graph, 4, seed=9)
        second = partition_graph(small_social_graph, 4, seed=9)
        assert np.array_equal(first.edge_machine, second.edge_machine)


def loop_masters_and_replicas(graph, num_machines, edge_machine):
    """The per-edge Python loop ``partition_graph`` ran before it was
    vectorized, kept verbatim as the reference."""
    replicas = [set() for _ in range(graph.num_vertices)]
    per_vertex_counts = [dict() for _ in range(graph.num_vertices)]
    src, dst = graph.edge_arrays()
    for index in range(graph.num_edges):
        machine = int(edge_machine[index])
        for vertex in (int(src[index]), int(dst[index])):
            replicas[vertex].add(machine)
            counts = per_vertex_counts[vertex]
            counts[machine] = counts.get(machine, 0) + 1

    vertex_master = np.zeros(graph.num_vertices, dtype=np.int64)
    for vertex in range(graph.num_vertices):
        counts = per_vertex_counts[vertex]
        if counts:
            vertex_master[vertex] = min(
                counts, key=lambda m: (-counts[m], m)
            )
            replicas[vertex].add(int(vertex_master[vertex]))
        else:
            vertex_master[vertex] = vertex % num_machines
            replicas[vertex].add(int(vertex_master[vertex]))
    return vertex_master, replicas


def graph_with_isolated_and_duplicate_edges():
    """A clustered graph plus repeated edges, self-loops and ten vertices
    that touch no edge."""
    from repro.graph.generators import powerlaw_cluster

    base = powerlaw_cluster(120, 3, 0.4, seed=6)
    src, dst = base.edge_arrays()
    return DiGraph(base.num_vertices + 10,
                   np.concatenate([src, src[::3], [4, 9, 9]]),
                   np.concatenate([dst, dst[::3], [4, 9, 9]]))


class TestVectorizedMastersAndReplicas:
    @pytest.mark.parametrize("machines", [1, 2, 3, 8, 33])
    @pytest.mark.parametrize("partitioner", [None, RandomVertexCut(),
                                             GreedyVertexCut(),
                                             HdrfVertexCut()],
                             ids=["default", "random", "greedy", "hdrf"])
    def test_matches_the_per_edge_loop(self, partitioner, machines):
        graph = graph_with_isolated_and_duplicate_edges()
        partition = partition_graph(graph, machines, partitioner=partitioner,
                                    seed=5)
        master, replicas = loop_masters_and_replicas(
            graph, machines, partition.edge_machine)
        assert partition.vertex_master.tolist() == master.tolist()
        assert [partition.machines_of(v)
                for v in range(graph.num_vertices)] == replicas
        assert partition.replica_machine.tolist() == [
            machine for row in replicas for machine in sorted(row)]
        assert partition.replication_factor() == (
            sum(map(len, replicas)) / graph.num_vertices)
        isolated = range(graph.num_vertices - 10, graph.num_vertices)
        assert all(partition.machines_of(v) == {v % machines}
                   for v in isolated)
