"""Tests for the classic Pregel programs shipped with the BSP substrate."""

from __future__ import annotations

from collections import deque

import pytest

from repro.bsp.engine import BspEngine
from repro.bsp.programs import (
    ConnectedComponentsProgram,
    PageRankProgram,
    ShortestPathsProgram,
)
from repro.gas.cluster import TYPE_II, cluster_of
from repro.graph.digraph import DiGraph


def bfs_distances(graph: DiGraph, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every vertex it reaches."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.out_neighbors(u).tolist():
            if v not in distances:
                distances[v] = distances[u] + 1
                queue.append(v)
    return distances


def weakly_connected_components(graph: DiGraph) -> list[set[int]]:
    """Vertex sets connected when edge directions are ignored."""
    seen: set[int] = set()
    components = []
    for root in graph.vertices():
        if root in seen:
            continue
        component = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in (graph.out_neighbors(u).tolist()
                      + graph.in_neighbors(u).tolist()):
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        components.append(component)
    return components


class TestPageRank:
    def test_rank_mass_is_conserved(self, small_social_graph):
        engine = BspEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 4))
        result = engine.run(PageRankProgram(num_iterations=8))
        total = sum(result.state_of(u)["rank"] for u in small_social_graph.vertices())
        # Symmetrized graphs have no dangling vertices, so the rank mass stays 1.
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_aggregator_reports_total_rank(self, small_social_graph):
        engine = BspEngine(graph=small_social_graph)
        result = engine.run(PageRankProgram(num_iterations=5))
        assert result.aggregated_values["total_rank"] == pytest.approx(1.0, abs=1e-6)

    def test_hub_outranks_leaves_on_a_star(self, star_graph):
        result = BspEngine(graph=star_graph).run(PageRankProgram(num_iterations=15))
        hub_rank = result.state_of(0)["rank"]
        leaf_ranks = [result.state_of(u)["rank"] for u in range(1, 11)]
        assert hub_rank > max(leaf_ranks)
        assert leaf_ranks == pytest.approx([leaf_ranks[0]] * 10)

    def test_distribution_does_not_change_ranks(self, small_social_graph):
        single = BspEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 1))
        distributed = BspEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 8))
        ranks_single = single.run(PageRankProgram(num_iterations=6))
        ranks_distributed = distributed.run(PageRankProgram(num_iterations=6))
        for u in small_social_graph.vertices():
            assert ranks_single.state_of(u)["rank"] == pytest.approx(
                ranks_distributed.state_of(u)["rank"]
            )


class TestConnectedComponents:
    def test_matches_traversal_components_on_symmetric_graph(self, random_graph):
        graph = random_graph(200, 3, 0.4, seed=5)
        expected = weakly_connected_components(graph)
        expected_label = {}
        for component in expected:
            label = min(component)
            for vertex in component:
                expected_label[vertex] = label
        result = BspEngine(graph=graph, cluster=cluster_of(TYPE_II, 4)).run(
            ConnectedComponentsProgram()
        )
        for u in graph.vertices():
            assert result.state_of(u)["component"] == expected_label[u]

    def test_two_separate_triangles(self):
        graph = DiGraph(
            6,
            [0, 1, 2, 1, 2, 0, 3, 4, 5, 4, 5, 3],
            [1, 2, 0, 0, 1, 2, 4, 5, 3, 3, 4, 5],
        )
        result = BspEngine(graph=graph).run(ConnectedComponentsProgram())
        assert {result.state_of(u)["component"] for u in range(3)} == {0}
        assert {result.state_of(u)["component"] for u in range(3, 6)} == {3}


class TestShortestPaths:
    def test_matches_bfs_distances(self, random_graph):
        graph = random_graph(150, 3, 0.4, seed=9)
        source = 0
        expected = bfs_distances(graph, source)
        result = BspEngine(graph=graph, cluster=cluster_of(TYPE_II, 4)).run(
            ShortestPathsProgram(source)
        )
        for u in graph.vertices():
            distance = result.state_of(u)["distance"]
            if u in expected:
                assert distance == pytest.approx(float(expected[u]))
            else:
                assert distance == float("inf")

    def test_unreachable_vertices_stay_infinite(self):
        graph = DiGraph(3, [0], [1])
        result = BspEngine(graph=graph).run(ShortestPathsProgram(0))
        assert result.state_of(0)["distance"] == 0.0
        assert result.state_of(1)["distance"] == 1.0
        assert result.state_of(2)["distance"] == float("inf")
