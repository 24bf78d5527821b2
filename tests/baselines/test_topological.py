"""Unit tests for the classic topological scores and the ``topological`` engine."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.baselines.topological import (
    TOPOLOGICAL_SCORES,
    adamic_adar_score,
    common_neighbors_score,
    jaccard_score,
    preferential_attachment_score,
    resource_allocation_score,
)
from repro.graph.digraph import DiGraph
from repro.runtime import get_backend
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


def _topological(graph: DiGraph, **options):
    return SnapleLinkPredictor().predict(graph, backend="topological",
                                         **options)


@pytest.fixture
def diamond_graph() -> DiGraph:
    """0 -> {1, 2}; 1 -> {3}; 2 -> {3}; 3 -> {1, 2}: a 4-cycle diamond."""
    return DiGraph(4, [0, 0, 1, 2, 3, 3], [1, 2, 3, 3, 1, 2])


class TestScores:
    def test_common_neighbors(self, diamond_graph):
        assert common_neighbors_score(diamond_graph, 0, 3) == 2.0

    def test_jaccard(self, diamond_graph):
        assert jaccard_score(diamond_graph, 0, 3) == pytest.approx(1.0)

    def test_jaccard_disjoint(self, diamond_graph):
        # Γ(0) = {1, 2} and Γ(1) = {3} share nothing.
        assert jaccard_score(diamond_graph, 0, 1) == 0.0

    def test_adamic_adar_positive_for_shared_neighbors(self):
        # Common neighbors of 0 and 4 are {1, 2}, each with out-degree 2, so
        # both contribute 1/log(2) to the Adamic–Adar score.
        graph = DiGraph(5, [0, 0, 4, 4, 1, 1, 2, 2], [1, 2, 1, 2, 0, 4, 0, 4])
        assert adamic_adar_score(graph, 0, 4) == pytest.approx(2 / 0.6931, rel=1e-3)

    def test_adamic_adar_skips_degree_one_commons(self):
        graph = DiGraph(3, [0, 2, 1], [1, 1, 0])
        # Common neighborhood of 0 and 2 is {1}, whose out-degree is 1, so
        # 1/log(1) is undefined and must be skipped.
        assert adamic_adar_score(graph, 0, 2) == 0.0

    def test_preferential_attachment(self, diamond_graph):
        assert preferential_attachment_score(diamond_graph, 0, 3) == 4.0

    def test_resource_allocation(self, diamond_graph):
        assert resource_allocation_score(diamond_graph, 0, 3) == pytest.approx(2.0)

    def test_registry_complete(self):
        assert set(TOPOLOGICAL_SCORES) == {
            "common_neighbors", "jaccard", "adamic_adar",
            "preferential_attachment", "resource_allocation",
        }


class TestPredictor:
    def test_candidates_are_two_hop(self, small_social_graph):
        result = _topological(small_social_graph, score="jaccard", k=5,
                              vertices=list(range(20)))
        for vertex in range(20):
            assert set(result.scores[vertex]) == small_social_graph.two_hop_neighbors(vertex)

    def test_k_bound(self, small_social_graph):
        result = _topological(small_social_graph, score="common_neighbors",
                              k=2, vertices=list(range(10)))
        assert all(len(targets) <= 2 for targets in result.predictions.values())

    def test_unknown_score_rejected(self):
        with pytest.raises(ConfigurationError, match="pagerank"):
            get_backend("topological", score="pagerank")

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("topological", score="jaccard", k=0)

    def test_score_and_k_options(self, small_social_graph):
        # k falls back to the config's; score picks the closed form.
        result = SnapleLinkPredictor(SnapleConfig(k=7)).predict(
            small_social_graph, backend="topological", score="adamic_adar",
            vertices=[0, 1])
        assert max(len(targets) for targets in result.predictions.values()) <= 7
        for z, value in result.scores[0].items():
            assert value == adamic_adar_score(small_social_graph, 0, z)

    def test_predicted_edges_helper(self, small_social_graph):
        result = _topological(small_social_graph, score="jaccard",
                              vertices=[0, 1])
        for u, z in result.predicted_edges():
            assert u in (0, 1)
            assert isinstance(z, int)
