"""End-to-end integration tests exercising the full public API surface."""

from __future__ import annotations

import math

import pytest

import repro
from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.gas.cluster import TYPE_I, cluster_of
from repro.graph.io import read_edge_list, write_edge_list
from repro.snaple import SnapleConfig, SnapleLinkPredictor
from repro.snaple.kernel import REL_TOL


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_top_level_reexports(self):
        assert repro.SnapleLinkPredictor is SnapleLinkPredictor
        assert "linearSum" in repro.paper_score_names()
        assert set(repro.dataset_names()) >= {"gowalla", "twitter-rv"}

    def test_score_config_lookup(self):
        config = repro.score_config("geomMean")
        assert config.aggregator.name == "Mean"


class TestFullPipeline:
    def test_file_to_predictions_round_trip(self, tmp_path, medium_social_graph):
        # Persist a graph, reload it, split it, predict, evaluate — the whole
        # workflow a downstream user would run on their own edge list.
        path = tmp_path / "graph.tsv"
        write_edge_list(path, medium_social_graph.edges())
        graph = read_edge_list(path)
        split = remove_random_edges(graph, seed=3)
        config = SnapleConfig.paper_default("linearSum", k_local=20, seed=3)
        result = SnapleLinkPredictor(config).predict(split.train_graph)
        report = evaluate_predictions(result.predictions, split)
        assert report.recall > 0.05
        assert report.hits <= report.num_removed

    def test_snaple_pipeline_on_dataset_analog(self):
        graph = repro.load_dataset("gowalla", scale=0.3, seed=5)
        split = remove_random_edges(graph, seed=5)
        config = SnapleConfig.paper_default("counter", k_local=20, seed=5)
        result = SnapleLinkPredictor(config).predict(
            split.train_graph, backend="gas", cluster=cluster_of(TYPE_I, 4)
        )
        report = evaluate_predictions(result.predictions, split)
        assert report.recall > 0.05
        assert result.simulated_seconds > 0

    def test_three_predictors_on_same_split(self, medium_social_graph):
        split = remove_random_edges(medium_social_graph, seed=9)
        snaple = SnapleLinkPredictor(
            SnapleConfig.paper_default("linearSum", k_local=20, seed=9)
        ).predict(split.train_graph)
        baseline = SnapleLinkPredictor().predict(
            split.train_graph, backend="gas_baseline", enforce_memory=False
        )
        walker = SnapleLinkPredictor().predict(
            split.train_graph, backend="random_walk_ppr", num_walks=50,
            depth=3, seed=9
        )
        recalls = {
            "snaple": evaluate_predictions(snaple.predictions, split).recall,
            "baseline": evaluate_predictions(baseline.predictions, split).recall,
            "ppr": evaluate_predictions(walker.predictions, split).recall,
        }
        assert all(0.0 <= value <= 1.0 for value in recalls.values())
        assert recalls["snaple"] >= max(recalls["baseline"], recalls["ppr"]) * 0.8

    def test_error_types_are_exported(self, medium_social_graph):
        from repro import ResourceExhaustedError
        from repro.gas.cluster import TYPE_II, ClusterConfig

        tiny = ClusterConfig(machine=TYPE_II, num_machines=2, memory_scale=1e-9)
        with pytest.raises(ResourceExhaustedError):
            SnapleLinkPredictor().predict(medium_social_graph,
                                          backend="gas_baseline", cluster=tiny)

    def test_local_and_gas_modes_agree_end_to_end(self):
        graph = repro.load_dataset("gowalla", scale=0.25, seed=11)
        config = SnapleConfig(k_local=15, truncation_threshold=math.inf, seed=11)
        predictor = SnapleLinkPredictor(config)
        local = predictor.predict(graph)
        gas = predictor.predict(graph, backend="gas", cluster=cluster_of(TYPE_I, 4))
        assert local.predictions == gas.predictions
        # ``local`` folds each candidate's paths in selection order, the GAS
        # gather in CSR order: equal within REL_TOL.
        local_scores, gas_scores = dict(local.scores), dict(gas.scores)
        assert local_scores.keys() == gas_scores.keys()
        for u, expected in gas_scores.items():
            assert local_scores[u] == pytest.approx(expected, rel=REL_TOL)
