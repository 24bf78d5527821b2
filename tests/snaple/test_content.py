"""Tests for the ``content`` engine: the content-aware SNAPLE extension."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.graph.attributes import generate_profiles
from repro.runtime import backend_capabilities, get_backend
from repro.snaple.config import SnapleConfig
from repro.snaple.content import get_profile_similarity
from repro.snaple.predictor import SnapleLinkPredictor


def _snaple_config(**overrides) -> SnapleConfig:
    defaults = dict(truncation_threshold=math.inf, k_local=math.inf, seed=9)
    defaults.update(overrides)
    return SnapleConfig(**defaults)


def _content(graph, profiles, config: SnapleConfig | None = None, **options):
    return SnapleLinkPredictor(config).predict(graph, backend="content",
                                               profiles=profiles, **options)


class TestContentOptions:
    def test_rejects_out_of_range_content_weight(self, small_social_graph):
        profiles = generate_profiles(small_social_graph, seed=1)
        with pytest.raises(ConfigurationError, match="content_weight"):
            get_backend("content", profiles=profiles, content_weight=1.5)

    def test_rejects_unknown_profile_similarity(self, small_social_graph):
        profiles = generate_profiles(small_social_graph, seed=1)
        with pytest.raises(ConfigurationError, match="profile similarity"):
            get_backend("content", profiles=profiles,
                        profile_similarity="does-not-exist")

    def test_get_profile_similarity_lookup(self):
        assert get_profile_similarity("cosine") is not None
        with pytest.raises(ConfigurationError):
            get_profile_similarity("nope")

    def test_profiles_are_required(self, small_social_graph):
        with pytest.raises(ConfigurationError, match="requires option.*profiles"):
            SnapleLinkPredictor().predict(small_social_graph,
                                          backend="content")

    def test_capabilities_resolve_without_profiles(self):
        capabilities = backend_capabilities("content")
        assert capabilities.options == ("profiles", "content_weight",
                                        "profile_similarity")
        assert capabilities.incremental and capabilities.vertex_subset


class TestTopologicalEquivalence:
    """``content_weight = 0`` must reproduce the ``local`` engine exactly."""

    def test_zero_weight_matches_standard_predictions(self, small_social_graph):
        snaple = _snaple_config()
        profiles = generate_profiles(small_social_graph, seed=1)
        standard = SnapleLinkPredictor(snaple).predict(small_social_graph)
        content = _content(small_social_graph, profiles, snaple,
                           content_weight=0.0)
        assert content.predictions == standard.predictions

    def test_zero_weight_matches_standard_scores(self, small_social_graph):
        snaple = _snaple_config()
        profiles = generate_profiles(small_social_graph, seed=1)
        standard = SnapleLinkPredictor(snaple).predict(small_social_graph)
        content = _content(small_social_graph, profiles, snaple,
                           content_weight=0.0)
        for u in small_social_graph.vertices():
            for z, value in content.scores[u].items():
                assert value == pytest.approx(standard.scores[u][z])

    @pytest.mark.parametrize("score_name", ["counter", "PPR", "euclSum"])
    def test_zero_weight_equivalence_for_other_scores(self, small_social_graph,
                                                      score_name):
        snaple = _snaple_config().with_score(score_name)
        profiles = generate_profiles(small_social_graph, seed=1)
        standard = SnapleLinkPredictor(snaple).predict(small_social_graph)
        content = _content(small_social_graph, profiles, snaple,
                           content_weight=0.0)
        assert content.predictions == standard.predictions


class TestContentAwarePrediction:
    def test_rejects_profiles_that_do_not_cover_the_graph(self, small_social_graph,
                                                          random_graph):
        tiny_graph = random_graph(50, 2, 0.3, seed=2)
        profiles = generate_profiles(tiny_graph, seed=2)
        with pytest.raises(ConfigurationError):
            _content(small_social_graph, profiles)

    @pytest.mark.parametrize("bad", [-1, None, True, 1.5, "3"],
                             ids=["negative", "num_vertices", "bool", "float",
                                  "str"])
    def test_bad_vertex_ids_rejected(self, bad, small_social_graph):
        if bad is None:
            bad = small_social_graph.num_vertices
        profiles = generate_profiles(small_social_graph, seed=3)
        with pytest.raises(ConfigurationError, match="vertices must be"):
            _content(small_social_graph, profiles, vertices=[0, bad])

    def test_predictions_exclude_existing_neighbors(self, small_social_graph):
        profiles = generate_profiles(small_social_graph, seed=4)
        result = _content(small_social_graph, profiles, _snaple_config(),
                          content_weight=0.5)
        for u, targets in result.predictions.items():
            assert not (set(targets) & small_social_graph.neighbor_set(u))
            assert u not in targets

    def test_content_weight_changes_the_ranking(self, medium_social_graph):
        profiles = generate_profiles(medium_social_graph, homophily=0.9, seed=5)
        snaple = _snaple_config(k_local=10)
        topo = _content(medium_social_graph, profiles, snaple,
                        content_weight=0.0)
        blended = _content(medium_social_graph, profiles, snaple,
                           content_weight=0.8)
        assert topo.predictions != blended.predictions

    def test_homophilous_content_does_not_hurt_recall(self, medium_social_graph):
        """With strongly homophilous profiles a moderate content weight keeps
        recall within a small band of the purely topological recall (and the
        ablation benchmark reports where it actually helps)."""
        split = remove_random_edges(medium_social_graph, seed=6)
        profiles = generate_profiles(
            split.train_graph, homophily=0.95, tags_per_vertex=8, seed=6
        )
        snaple = SnapleConfig.paper_default("linearSum", k_local=20, seed=6)
        topo = _content(split.train_graph, profiles, snaple,
                        content_weight=0.0)
        blended = _content(split.train_graph, profiles, snaple,
                           content_weight=0.3)
        recall_topo = evaluate_predictions(topo.predictions, split).recall
        recall_blended = evaluate_predictions(blended.predictions, split).recall
        assert recall_topo > 0.1
        assert recall_blended > 0.8 * recall_topo

    def test_vertices_argument_restricts_scored_sources(self, small_social_graph):
        profiles = generate_profiles(small_social_graph, seed=7)
        result = _content(small_social_graph, profiles, vertices=[0, 1])
        assert set(result.predictions) == {0, 1}

    def test_streamed_batches_equal_one_run(self, small_social_graph):
        # prepare caches the blended Γ̂ and kept neighbours, so predict_iter
        # runs phase 3 per batch of 7 targets.
        profiles = generate_profiles(small_social_graph, homophily=0.9, seed=7)
        config = _snaple_config(k_local=5)
        whole = _content(small_social_graph, profiles, config,
                         content_weight=0.5)
        streamed = list(SnapleLinkPredictor(config).predict_iter(
            small_social_graph, backend="content", batch_size=7,
            profiles=profiles, content_weight=0.5))
        assert [record.vertex for record in streamed] == \
            list(small_social_graph.vertices())
        for record in streamed:
            assert record.predicted == whole.predictions[record.vertex]
            assert record.scores == whole.scores[record.vertex]

    def test_predicted_edges_helper(self, small_social_graph):
        profiles = generate_profiles(small_social_graph, seed=8)
        result = _content(small_social_graph, profiles)
        edges = result.predicted_edges()
        assert len(edges) == sum(len(t) for t in result.predictions.values())

    def test_pure_content_weight_still_produces_predictions(self, small_social_graph):
        profiles = generate_profiles(small_social_graph, homophily=0.9, seed=9)
        result = _content(small_social_graph, profiles, _snaple_config(),
                          content_weight=1.0)
        assert any(result.predictions.values())
