"""End-to-end integration tests spanning the extension subsystems.

These tests exercise the full pipeline a downstream user of the extensions
would run — dataset analog, edge-removal protocol, predictor, metrics — and
pin the cross-implementation guarantees the library documents: every
execution path of the same configuration (``local``, ``gas``, ``khop`` at
K = 2, ``content`` at weight 0) returns identical predictions.
"""

from __future__ import annotations

import math

import pytest

from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime.partition import HdrfVertexCut
from repro.graph.attributes import generate_profiles
from repro.graph.datasets import load_dataset
from repro.snaple import SnapleConfig, SnapleLinkPredictor


@pytest.fixture(scope="module")
def split():
    graph = load_dataset("pokec", scale=0.2, seed=21)
    return remove_random_edges(graph, seed=21)


@pytest.fixture(scope="module")
def config():
    # No truncation so every execution path is fully deterministic.
    return SnapleConfig(
        k=5, truncation_threshold=math.inf, k_local=10, seed=21
    )


class TestAllExecutionPathsAgree:
    @pytest.fixture(scope="class")
    def local_result(self, split, config):
        return SnapleLinkPredictor(config).predict(split.train_graph)

    def test_gas_with_hdrf_partitioning_matches_local(self, split, config, local_result):
        gas = SnapleLinkPredictor(config).predict(
            split.train_graph,
            backend="gas",
            cluster=cluster_of(TYPE_I, 4),
            partitioner=HdrfVertexCut(),
        )
        assert gas.predictions == local_result.predictions

    def test_two_hop_khop_matches_local(self, split, config, local_result):
        khop = SnapleLinkPredictor(config).predict(
            split.train_graph, backend="khop", num_hops=2
        )
        assert khop.predictions == local_result.predictions

    def test_content_with_zero_weight_matches_local(self, split, config, local_result):
        profiles = generate_profiles(split.train_graph, seed=21)
        content = SnapleLinkPredictor(config).predict(
            split.train_graph, backend="content", profiles=profiles,
            content_weight=0.0
        )
        assert content.predictions == local_result.predictions

    def test_shared_recall_is_non_trivial(self, split, local_result):
        quality = evaluate_predictions(local_result.predictions, split)
        assert quality.recall > 0.05
        assert quality.hits > 0


class TestExtensionInteroperability:
    def test_content_and_khop_compose_with_the_protocol(self, split):
        """A realistic extension workflow: content-aware scoring for the
        2-hop candidates, with recall measured by the standard protocol."""
        profiles = generate_profiles(
            split.train_graph, homophily=0.9, tags_per_vertex=6, seed=22
        )
        snaple = SnapleConfig.paper_default("linearSum", k_local=10, seed=22)
        content = SnapleLinkPredictor(snaple).predict(
            split.train_graph, backend="content", profiles=profiles,
            content_weight=0.25
        )
        quality = evaluate_predictions(content.predictions, split)
        assert 0.0 < quality.recall <= 1.0
        assert quality.precision <= 1.0
