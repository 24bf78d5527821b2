"""Tests for the edge-cut vertex partitioning in repro.runtime.partition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.partition import (
    BlockVertexPartitioner,
    HashVertexPartitioner,
    VertexPartition,
    partition_vertices,
)
from repro.errors import PartitionError
from repro.graph.digraph import DiGraph


class TestPartitionVertices:
    def test_every_vertex_is_placed(self, small_social_graph):
        partition = partition_vertices(small_social_graph, 4, seed=1)
        assert partition.num_vertices == small_social_graph.num_vertices
        assert partition.vertex_machine.min() >= 0
        assert partition.vertex_machine.max() < 4

    def test_single_machine_places_everything_on_machine_zero(self, triangle_graph):
        partition = partition_vertices(triangle_graph, 1)
        assert set(partition.vertex_machine.tolist()) == {0}

    def test_rejects_non_positive_machine_count(self, triangle_graph):
        with pytest.raises(PartitionError):
            partition_vertices(triangle_graph, 0)

    def test_rejects_wrong_assignment_shape(self, triangle_graph):
        class BrokenPartitioner(HashVertexPartitioner):
            def assign_vertices(self, graph, num_machines, *, seed):
                return np.zeros(graph.num_vertices + 1, dtype=np.int64)

        with pytest.raises(PartitionError):
            partition_vertices(triangle_graph, 2, partitioner=BrokenPartitioner())

    def test_rejects_out_of_range_machine(self, triangle_graph):
        class BrokenPartitioner(HashVertexPartitioner):
            def assign_vertices(self, graph, num_machines, *, seed):
                return np.full(graph.num_vertices, num_machines, dtype=np.int64)

        with pytest.raises(PartitionError):
            partition_vertices(triangle_graph, 2, partitioner=BrokenPartitioner())

    def test_empty_graph(self):
        graph = DiGraph(0, [], [])
        partition = partition_vertices(graph, 3)
        assert partition.num_vertices == 0
        assert partition.cut_edges(graph) == 0
        assert partition.cut_fraction(graph) == 0.0


class TestHashVertexPartitioner:
    def test_deterministic_for_a_seed(self, medium_social_graph):
        first = partition_vertices(medium_social_graph, 8, seed=3)
        second = partition_vertices(medium_social_graph, 8, seed=3)
        assert np.array_equal(first.vertex_machine, second.vertex_machine)

    def test_different_seeds_give_different_placements(self, medium_social_graph):
        first = partition_vertices(medium_social_graph, 8, seed=3)
        second = partition_vertices(medium_social_graph, 8, seed=4)
        assert not np.array_equal(first.vertex_machine, second.vertex_machine)

    def test_roughly_balanced_vertex_counts(self, medium_social_graph):
        partition = partition_vertices(medium_social_graph, 4, seed=0)
        counts = partition.vertices_per_machine()
        assert counts.min() > 0
        assert counts.max() / counts.mean() < 1.3


class TestBlockVertexPartitioner:
    def test_contiguous_ranges(self):
        graph = DiGraph(10, [0, 5], [5, 9])
        partition = partition_vertices(
            graph, 2, partitioner=BlockVertexPartitioner()
        )
        assert partition.vertex_machine[:5].tolist() == [0] * 5
        assert partition.vertex_machine[5:].tolist() == [1] * 5

    def test_covers_all_machines_when_possible(self, small_social_graph):
        partition = partition_vertices(
            small_social_graph, 3, partitioner=BlockVertexPartitioner()
        )
        assert set(partition.vertex_machine.tolist()) == {0, 1, 2}


class TestVertexPartitionMetrics:
    def test_cut_edges_counts_cross_machine_edges(self):
        graph = DiGraph(4, [0, 1, 2, 3], [1, 2, 3, 0])
        partition = VertexPartition(
            num_machines=2,
            vertex_machine=np.array([0, 0, 1, 1], dtype=np.int64),
        )
        # Edges 1->2 and 3->0 cross machines; 0->1 and 2->3 are local.
        assert partition.cut_edges(graph) == 2
        assert partition.cut_fraction(graph) == pytest.approx(0.5)

    def test_single_machine_has_no_cut_edges(self, small_social_graph):
        partition = partition_vertices(small_social_graph, 1)
        assert partition.cut_edges(small_social_graph) == 0

    def test_more_machines_cut_more_edges(self, medium_social_graph):
        few = partition_vertices(medium_social_graph, 2, seed=5)
        many = partition_vertices(medium_social_graph, 16, seed=5)
        assert many.cut_edges(medium_social_graph) > few.cut_edges(medium_social_graph)

    def test_edges_per_machine_sums_to_total(self, small_social_graph):
        partition = partition_vertices(small_social_graph, 4, seed=2)
        assert int(partition.edges_per_machine(small_social_graph).sum()) == (
            small_social_graph.num_edges
        )

    def test_load_imbalance_is_at_least_one(self, small_social_graph):
        partition = partition_vertices(small_social_graph, 4, seed=2)
        assert partition.load_imbalance(small_social_graph) >= 1.0

    def test_block_placement_keeps_generator_locality(self, random_graph):
        # Power-law-cluster graphs attach new vertices to earlier ones, so a
        # block placement cuts fewer edges than a hash placement.
        graph = random_graph(400, 4, 0.5, seed=13)
        hashed = partition_vertices(graph, 4, seed=1)
        blocked = partition_vertices(
            graph, 4, partitioner=BlockVertexPartitioner(), seed=1
        )
        assert blocked.cut_edges(graph) < hashed.cut_edges(graph)
