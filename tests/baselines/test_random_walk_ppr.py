"""Unit tests for the random-walk PPR engines (the Cassovary baseline)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.baselines.random_walk_ppr import RandomWalkConfig
from repro.snaple.predictor import SnapleLinkPredictor


def _walks(graph, config: RandomWalkConfig, **options):
    return SnapleLinkPredictor().predict(
        graph, backend="random_walk_ppr", num_walks=config.num_walks,
        depth=config.depth, k=config.k, seed=config.seed, **options)


class TestConfig:
    def test_defaults(self):
        config = RandomWalkConfig()
        assert config.num_walks == 100
        assert config.depth == 3
        assert config.k == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(num_walks=0)
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(depth=0)
        with pytest.raises(ConfigurationError):
            RandomWalkConfig(k=0)

    def test_describe(self):
        assert RandomWalkConfig(num_walks=10, depth=4).describe() == "PPR w=10 d=4 k=5"


class TestPrediction:
    def test_predictions_for_every_vertex(self, small_social_graph):
        result = _walks(small_social_graph, RandomWalkConfig(num_walks=20))
        assert set(result.predictions) == set(range(small_social_graph.num_vertices))

    def test_predictions_exclude_direct_neighbors_and_self(self, small_social_graph):
        result = _walks(small_social_graph, RandomWalkConfig(num_walks=20))
        for vertex, targets in result.predictions.items():
            direct = set(small_social_graph.out_neighbors(vertex).tolist())
            assert vertex not in targets
            assert not set(targets) & direct

    def test_predictions_bounded_by_k(self, small_social_graph):
        result = _walks(small_social_graph, RandomWalkConfig(num_walks=20, k=2))
        assert all(len(targets) <= 2 for targets in result.predictions.values())

    def test_deterministic_given_seed(self, small_social_graph):
        config = RandomWalkConfig(num_walks=15, seed=9)
        first = _walks(small_social_graph, config)
        second = _walks(small_social_graph, config)
        assert first.predictions == second.predictions

    def test_more_walks_take_more_steps(self, small_social_graph):
        few = _walks(small_social_graph, RandomWalkConfig(num_walks=10))
        many = _walks(small_social_graph, RandomWalkConfig(num_walks=100))
        assert many.extra["walk_steps"] > few.extra["walk_steps"]

    def test_vertex_restriction(self, small_social_graph):
        result = _walks(small_social_graph, RandomWalkConfig(num_walks=10), vertices=[3, 4])
        assert set(result.predictions) == {3, 4}

    def test_ranked_by_visit_count(self, small_social_graph):
        result = _walks(small_social_graph, RandomWalkConfig(num_walks=50))
        for vertex, targets in result.predictions.items():
            counts = [result.scores[vertex][z] for z in targets]
            assert counts == sorted(counts, reverse=True)

    def test_predicted_edges_helper(self, small_social_graph):
        result = _walks(small_social_graph, RandomWalkConfig(num_walks=10))
        assert all(len(edge) == 2 for edge in result.predicted_edges())
