"""Unit tests for the high-level SNAPLE predictor."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.gas.cluster import TYPE_I, TYPE_II, cluster_of
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from repro.snaple.scoring import paper_score_names


class TestLocalPrediction:
    def test_returns_predictions_for_every_vertex(self, small_social_graph):
        result = SnapleLinkPredictor().predict(small_social_graph)
        assert set(result.predictions) == set(range(small_social_graph.num_vertices))

    def test_predictions_bounded_by_k(self, small_social_graph):
        config = SnapleConfig(k=4)
        result = SnapleLinkPredictor(config).predict(small_social_graph)
        assert all(len(targets) <= 4 for targets in result.predictions.values())

    def test_predictions_exclude_existing_edges(self, small_social_graph):
        result = SnapleLinkPredictor().predict(small_social_graph)
        for u, targets in result.predictions.items():
            direct = set(small_social_graph.out_neighbors(u).tolist())
            assert not set(targets) & direct
            assert u not in targets

    def test_deterministic_given_seed(self, small_social_graph):
        config = SnapleConfig(k_local=5, seed=3)
        first = SnapleLinkPredictor(config).predict(small_social_graph)
        second = SnapleLinkPredictor(config).predict(small_social_graph)
        assert first.predictions == second.predictions

    def test_vertex_restriction(self, small_social_graph):
        result = SnapleLinkPredictor().predict(
            small_social_graph, vertices=[0, 5, 9]
        )
        assert set(result.predictions) == {0, 5, 9}

    def test_scores_are_ranked(self, small_social_graph):
        result = SnapleLinkPredictor().predict(small_social_graph)
        for u, targets in result.predictions.items():
            scores = [result.scores[u][z] for z in targets]
            assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("score_name", paper_score_names())
    def test_all_table3_scores_run(self, small_social_graph, score_name):
        config = SnapleConfig.paper_default(score_name, k_local=10)
        result = SnapleLinkPredictor(config).predict(small_social_graph)
        assert result.predictions

    def test_predicted_edges_helper(self, small_social_graph):
        result = SnapleLinkPredictor().predict(small_social_graph)
        edges = result.predicted_edges()
        assert all(isinstance(edge, tuple) and len(edge) == 2 for edge in edges)

    def test_top_prediction_helper(self, small_social_graph):
        result = SnapleLinkPredictor().predict(small_social_graph)
        for vertex, targets in result.predictions.items():
            expected = targets[0] if targets else None
            assert result.top_prediction(vertex) == expected


class TestGasPrediction:
    def test_gas_and_local_agree(self, small_social_graph):
        # The GAS execution and the local execution implement the same
        # algorithm; with the same seed they must return identical
        # predictions whenever no probabilistic truncation is involved.
        config = SnapleConfig(k_local=10, truncation_threshold=math.inf, seed=5)
        predictor = SnapleLinkPredictor(config)
        local = predictor.predict(small_social_graph)
        gas = predictor.predict(small_social_graph, backend="gas")
        assert local.predictions == gas.predictions

    def test_gas_agreement_across_cluster_sizes(self, small_social_graph):
        config = SnapleConfig(k_local=10, truncation_threshold=math.inf, seed=5)
        predictor = SnapleLinkPredictor(config)
        single = predictor.predict(small_social_graph, backend="gas",
                                   cluster=cluster_of(TYPE_II, 1))
        distributed = predictor.predict(small_social_graph, backend="gas",
                                        cluster=cluster_of(TYPE_I, 8))
        assert single.predictions == distributed.predictions
        # Scores fold in CSR order on any cluster.
        assert dict(single.scores) == dict(distributed.scores)

    def test_gas_result_has_accounting(self, small_social_graph):
        result = SnapleLinkPredictor().predict(
            small_social_graph, backend="gas", cluster=cluster_of(TYPE_I, 4)
        )
        assert result.simulated_seconds is not None
        assert result.simulated_seconds > 0
        assert result.native is not None
        assert result.native.metrics.total_network_bytes > 0

    def test_predict_dispatch(self, small_social_graph):
        predictor = SnapleLinkPredictor(SnapleConfig(k_local=5))
        local = predictor.predict(small_social_graph, backend="local")
        gas = predictor.predict(small_social_graph, backend="gas")
        assert local.predictions and gas.predictions
        with pytest.raises(ConfigurationError):
            predictor.predict(small_social_graph, backend="spark")

    def test_sampling_reduces_candidate_scores(self, medium_social_graph):
        full = SnapleLinkPredictor(
            SnapleConfig(k_local=math.inf)
        ).predict(medium_social_graph)
        sampled = SnapleLinkPredictor(
            SnapleConfig(k_local=3)
        ).predict(medium_social_graph)
        full_candidates = sum(len(s) for s in full.scores.values())
        sampled_candidates = sum(len(s) for s in sampled.scores.values())
        assert sampled_candidates < full_candidates
