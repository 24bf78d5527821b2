"""Tests for the ``khop`` engine: SNAPLE scoring over paths longer than two hops."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.graph.digraph import DiGraph
from repro.runtime import backend_capabilities, get_backend
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


def _self_loop_graph() -> DiGraph:
    """120 vertices, 900 random edges, a self-loop on every third vertex."""
    rng = np.random.default_rng(25)
    sources = rng.integers(0, 120, size=900)
    targets = rng.integers(0, 120, size=900)
    loops = np.arange(0, 120, 3)
    return DiGraph(120, np.concatenate([sources, loops]),
                   np.concatenate([targets, loops]))


#: Ids ``vertices=`` must reject; ``None`` stands for ``|V|``.
BAD_VERTEX_IDS = [-1, None, True, 1.5, "3"]


def _config(**overrides) -> SnapleConfig:
    defaults = dict(truncation_threshold=math.inf, k_local=math.inf, seed=7)
    defaults.update(overrides)
    return SnapleConfig(**defaults)


def _khop(graph: DiGraph, config: SnapleConfig, num_hops: int, **options):
    return SnapleLinkPredictor(config).predict(graph, backend="khop",
                                               num_hops=num_hops, **options)


class TestKHopConfiguration:
    def test_rejects_fewer_than_two_hops(self):
        with pytest.raises(ConfigurationError, match="num_hops"):
            get_backend("khop", num_hops=1)

    def test_capabilities(self):
        capabilities = backend_capabilities("khop")
        assert capabilities.options == ("num_hops",)
        assert capabilities.incremental and capabilities.vertex_subset

    def test_default_configuration_is_two_hops(self, small_social_graph):
        config = _config(k_local=5)
        default = SnapleLinkPredictor(config).predict(small_social_graph,
                                                      backend="khop")
        assert set(default.extra) == {"prepare_seconds", "paths_length2"}
        assert default.predictions == _khop(small_social_graph, config,
                                            2).predictions


class TestTwoHopEquivalence:
    """With ``num_hops = 2`` the ``khop`` engine is exactly ``local``."""

    def test_predictions_match_the_standard_predictor(self, small_social_graph):
        config = _config()
        standard = SnapleLinkPredictor(config).predict(small_social_graph)
        khop = _khop(small_social_graph, config, 2)
        assert khop.predictions == standard.predictions

    def test_scores_match_the_standard_predictor(self, small_social_graph):
        config = _config()
        standard = SnapleLinkPredictor(config).predict(small_social_graph)
        khop = _khop(small_social_graph, config, 2)
        for u in small_social_graph.vertices():
            assert set(khop.scores[u]) == set(standard.scores[u])
            for z, value in khop.scores[u].items():
                assert value == pytest.approx(standard.scores[u][z])

    @pytest.mark.parametrize("score_name", ["counter", "PPR", "euclMean", "geomGeom"])
    def test_equivalence_across_score_configurations(self, small_social_graph,
                                                      score_name):
        config = _config().with_score(score_name)
        standard = SnapleLinkPredictor(config).predict(small_social_graph)
        khop = _khop(small_social_graph, config, 2)
        assert khop.predictions == standard.predictions

    def test_equivalence_with_klocal_sampling(self, small_social_graph):
        config = _config(k_local=5)
        standard = SnapleLinkPredictor(config).predict(small_social_graph)
        khop = _khop(small_social_graph, config, 2)
        assert khop.predictions == standard.predictions

    def test_equivalence_on_a_graph_with_self_loops(self):
        # A self-loop u -> u makes u its own kept neighbor: Algorithm 2
        # walks u -> u -> z like any other path.
        graph = _self_loop_graph()
        config = _config(k_local=4, truncation_threshold=10)
        standard = SnapleLinkPredictor(config).predict(graph)
        khop = _khop(graph, config, 2)
        assert khop.predictions == standard.predictions
        assert khop.scores == standard.scores


class TestVertexValidation:
    @pytest.mark.parametrize("bad", BAD_VERTEX_IDS,
                             ids=["negative", "num_vertices", "bool", "float",
                                  "str"])
    def test_bad_vertex_ids_rejected(self, bad, small_social_graph):
        if bad is None:
            bad = small_social_graph.num_vertices
        with pytest.raises(ConfigurationError, match="vertices must be"):
            _khop(small_social_graph, _config(k_local=5), 3,
                  vertices=[0, bad])


class TestLongerPaths:
    def test_three_hops_reach_candidates_two_hops_cannot(self):
        # Chain 0 -> 1 -> 2 -> 3 plus a side edge so vertex 0 has degree > 1.
        graph = DiGraph(5, [0, 1, 2, 0], [1, 2, 3, 4])
        config = _config(k=3)
        two_hop = _khop(graph, config, 2)
        three_hop = _khop(graph, config, 3)
        assert 3 not in two_hop.scores[0]
        assert 3 in three_hop.scores[0]

    def test_candidate_space_grows_with_num_hops(self, small_social_graph):
        config = _config(k_local=5)
        two = _khop(small_social_graph, config, 2)
        three = _khop(small_social_graph, config, 3)
        candidates_two = sum(len(s) for s in two.scores.values())
        candidates_three = sum(len(s) for s in three.scores.values())
        assert candidates_three > candidates_two

    def test_paths_per_length_accounting(self, small_social_graph):
        config = _config(k_local=5)
        result = _khop(small_social_graph, config, 3)
        assert set(result.extra) == {"prepare_seconds", "paths_length2",
                                     "paths_length3"}
        assert result.extra["paths_length2"] > 0
        assert result.extra["paths_length3"] > 0

    def test_paths_are_simple_no_candidate_is_an_existing_neighbor(
        self, small_social_graph
    ):
        config = _config(k_local=5)
        result = _khop(small_social_graph, config, 3)
        for u, candidates in result.scores.items():
            existing = small_social_graph.neighbor_set(u)
            assert u not in candidates
            assert not (set(candidates) & existing)

    def test_vertices_argument_restricts_scored_sources(self, small_social_graph):
        config = _config(k_local=5)
        result = _khop(small_social_graph, config, 3, vertices=[0, 1, 2])
        assert set(result.predictions) == {0, 1, 2}

    def test_streamed_batches_equal_one_run(self, small_social_graph):
        # prepare caches Γ̂ and the kept neighbours, so predict_iter runs
        # phase 3 per batch of 7 targets.
        config = _config(k_local=5)
        whole = _khop(small_social_graph, config, 3)
        streamed = list(SnapleLinkPredictor(config).predict_iter(
            small_social_graph, backend="khop", batch_size=7, num_hops=3))
        assert [record.vertex for record in streamed] == \
            list(small_social_graph.vertices())
        for record in streamed:
            assert record.predicted == whole.predictions[record.vertex]
            assert record.scores == whole.scores[record.vertex]

    def test_recall_with_three_hops_remains_useful(self, medium_social_graph):
        # Longer paths add weaker candidates; on a clustered graph recall
        # should stay within a reasonable band of the 2-hop recall rather
        # than collapse (the ablation benchmark reports the exact trade-off).
        split = remove_random_edges(medium_social_graph, seed=3)
        config = SnapleConfig.paper_default("linearSum", k_local=10, seed=3)
        two = _khop(split.train_graph, config, 2)
        three = _khop(split.train_graph, config, 3)
        recall_two = evaluate_predictions(two.predictions, split).recall
        recall_three = evaluate_predictions(three.predictions, split).recall
        assert recall_two > 0.1
        assert recall_three > 0.5 * recall_two

    def test_predicted_edges_helper(self, small_social_graph):
        result = _khop(small_social_graph, _config(), 2)
        edges = result.predicted_edges()
        assert len(edges) == sum(len(t) for t in result.predictions.values())
