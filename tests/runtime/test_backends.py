"""Cross-backend prediction parity and RunReport normalization."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime import get_backend
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import truncating_config, unsupported_kernel_config


@pytest.fixture
def parity_config() -> SnapleConfig:
    """Deterministic configuration: no probabilistic truncation involved."""
    return SnapleConfig(k_local=10, truncation_threshold=math.inf, seed=5)


class TestCrossBackendParity:
    def test_local_and_gas_agree(self, small_social_graph, parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        local = predictor.predict(small_social_graph, backend="local")
        gas = predictor.predict(small_social_graph, backend="gas")
        assert local.predictions == gas.predictions

    def test_local_and_bsp_agree(self, small_social_graph, parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        local = predictor.predict(small_social_graph, backend="local")
        bsp = predictor.predict(small_social_graph, backend="bsp")
        assert local.predictions == bsp.predictions

    def test_gas_agreement_across_cluster_sizes(self, small_social_graph,
                                                parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        single = predictor.predict(small_social_graph, backend="gas")
        distributed = predictor.predict(
            small_social_graph, backend="gas", cluster=cluster_of(TYPE_I, 8)
        )
        assert single.predictions == distributed.predictions


class TestRunReportNormalization:
    def test_local_report_fields(self, small_social_graph, parity_config):
        report = SnapleLinkPredictor(parity_config).predict(
            small_social_graph, backend="local"
        )
        assert report.backend == "local"
        assert report.wall_clock_seconds > 0
        assert report.simulated_seconds is None
        assert report.network_bytes is None
        assert report.peak_memory_bytes is None
        assert report.supersteps is None
        assert report.time_seconds == report.wall_clock_seconds

    def test_gas_report_fields(self, small_social_graph, parity_config):
        report = SnapleLinkPredictor(parity_config).predict(
            small_social_graph, backend="gas", cluster=cluster_of(TYPE_I, 4)
        )
        assert report.backend == "gas"
        assert report.simulated_seconds > 0
        assert report.network_bytes > 0
        assert report.peak_memory_bytes > 0
        assert report.supersteps == 3
        assert report.time_seconds == report.simulated_seconds
        assert report.native is not None

    def test_bsp_report_fields(self, small_social_graph, parity_config):
        report = SnapleLinkPredictor(parity_config).predict(
            small_social_graph, backend="bsp", cluster=cluster_of(TYPE_I, 4)
        )
        assert report.backend == "bsp"
        assert report.simulated_seconds > 0
        assert report.network_bytes > 0
        assert report.supersteps == 4

    def test_cassovary_reports_simulated_time(self, small_social_graph):
        report = SnapleLinkPredictor().predict(
            small_social_graph, backend="cassovary", num_walks=10
        )
        assert report.simulated_seconds is not None
        assert report.extra["walk_steps"] > 0

    def test_random_walk_ppr_reports_wall_clock_only(self, small_social_graph):
        report = SnapleLinkPredictor().predict(
            small_social_graph, backend="random_walk_ppr", num_walks=10
        )
        assert report.simulated_seconds is None
        assert report.extra["walk_steps"] > 0

    def test_topological_backend_scores_candidates(self, small_social_graph):
        report = SnapleLinkPredictor().predict(
            small_social_graph, backend="topological", score="jaccard"
        )
        assert report.backend == "topological"
        assert any(report.predictions.values())

    def test_report_helpers(self, small_social_graph, parity_config):
        report = SnapleLinkPredictor(parity_config).predict(
            small_social_graph, backend="local"
        )
        edges = report.predicted_edges()
        assert all(isinstance(edge, tuple) and len(edge) == 2 for edge in edges)
        for vertex, targets in report.predictions.items():
            expected = targets[0] if targets else None
            assert report.top_prediction(vertex) == expected

    def test_to_dict_is_json_ready(self, small_social_graph, parity_config):
        import json

        report = SnapleLinkPredictor(parity_config).predict(
            small_social_graph, backend="gas"
        )
        payload = report.to_dict()
        assert payload["backend"] == "gas"
        assert payload["supersteps"] == 3
        assert "scores" not in payload
        json.dumps(payload)
        with_scores = report.to_dict(include_scores=True)
        assert "scores" in with_scores
        json.dumps(with_scores)


#: Every SNAPLE backend that takes a vertex subset, parallel GAS included.
SUBSET_BACKENDS = [("local", {}), ("gas", {}), ("gas", {"workers": 2}),
                   ("bsp", {})]
SUBSET_IDS = ["local", "gas", "gas-workers2", "bsp"]

#: Subset configurations: the paper default, truncation and klocal sampling
#: firing, and a custom callable (scalar step programs inside the workers).
SUBSET_CONFIGS = {
    "paper": lambda: SnapleConfig.paper_default(seed=1),
    "truncating": truncating_config,
    "custom": unsupported_kernel_config,
}


class TestVertexSubsets:
    def test_local_vertex_subset_matches_full_run(self, small_social_graph,
                                                  parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        subset = [0, 1, 2, 3, 4]
        full = predictor.predict(small_social_graph, backend="local")
        restricted = predictor.predict(small_social_graph, backend="local",
                                       vertices=subset)
        assert sorted(restricted.predictions) == subset
        for u in subset:
            assert restricted.predictions[u] == full.predictions[u]

    @pytest.mark.parametrize("config_name", sorted(SUBSET_CONFIGS))
    @pytest.mark.parametrize("backend,options", SUBSET_BACKENDS,
                             ids=SUBSET_IDS)
    def test_vertex_subset_equals_full_run(self, backend, options,
                                           config_name, random_graph):
        # Step 3 of a subset run reads the neighbours' Γ̂ and kept maps, so
        # every backend must compute those for the whole graph.
        graph = random_graph(200, 3, 0.3, seed=1)
        subset = [1, 2, 3]
        with SnapleLinkPredictor(SUBSET_CONFIGS[config_name]()) as predictor:
            full = predictor.predict(graph, backend=backend, **options)
            restricted = predictor.predict(graph, backend=backend,
                                           vertices=subset, **options)
        assert restricted.predictions == {
            u: full.predictions[u] for u in subset
        }
        assert {u: dict(restricted.scores[u]) for u in subset} == {
            u: dict(full.scores[u]) for u in subset
        }

    @pytest.mark.parametrize("bad", [-1, 200, True, 1.5, "3"])
    @pytest.mark.parametrize("backend,options", SUBSET_BACKENDS,
                             ids=SUBSET_IDS)
    def test_bad_vertex_ids_rejected(self, backend, options, bad,
                                     random_graph):
        graph = random_graph(200, 3, 0.3, seed=1)
        config = SnapleConfig.paper_default(seed=1)
        with SnapleLinkPredictor(config) as predictor:
            with pytest.raises(ConfigurationError, match="vertices must be"):
                predictor.predict(graph, backend=backend, vertices=[0, bad],
                                  **options)

    def test_bsp_vertex_subset_filters_output(self, small_social_graph,
                                              parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        subset = [3, 7, 11]
        restricted = predictor.predict(small_social_graph, backend="bsp",
                                       vertices=subset)
        assert sorted(restricted.predictions) == subset


class TestBspIsSimulatedOnly:
    """The BSP backend keeps its three simulated-cluster options; the
    parallel-executor options it used to take are rejected up front."""

    def test_options_and_capabilities(self):
        capabilities = get_backend("bsp").capabilities()
        assert capabilities.options == (
            "cluster", "partitioner", "enforce_memory",
        )
        assert capabilities.parallel is False

    @pytest.mark.parametrize("option,value", [
        ("workers", 2),
        ("checkpoint_dir", "ckpt"),
        ("checkpoint_every", 1),
        ("resume_from", "ckpt"),
        ("worker_timeout", 5.0),
        ("max_restarts", 1),
        ("fault", object()),
        ("pool", object()),
    ])
    def test_retired_option_raises(self, option, value):
        with pytest.raises(ConfigurationError,
                           match=f"'bsp' does not support option '{option}'"):
            get_backend("bsp", **{option: value})

    def test_predict_with_workers_fails_before_graph_work(self):
        # ``graph=None`` would break the first thing that touched it: the
        # error must come from option validation, not from the engine.
        with SnapleLinkPredictor() as predictor:
            with pytest.raises(ConfigurationError, match="workers"):
                predictor.predict(None, backend="bsp", workers=2)
            assert predictor.pool_spawns == 0


class TestDirectBackendUse:
    def test_backend_predict_convenience(self, small_social_graph,
                                         parity_config):
        backend = get_backend("local")
        report = backend.predict(small_social_graph, parity_config)
        via_predictor = SnapleLinkPredictor(parity_config).predict(
            small_social_graph, backend="local"
        )
        assert report.predictions == via_predictor.predictions

    def test_incremental_local_runs_are_consistent(self, small_social_graph,
                                                   parity_config):
        backend = get_backend("local").prepare(small_social_graph, parity_config)
        first = backend.run(vertices=[0, 1])
        second = backend.run(vertices=[2, 3])
        full = backend.run()
        assert first.predictions[0] == full.predictions[0]
        assert second.predictions[3] == full.predictions[3]

    def test_local_prepare_time_billed_once(self, small_social_graph,
                                            parity_config):
        backend = get_backend("local").prepare(small_social_graph, parity_config)
        first = backend.run(vertices=[0])
        second = backend.run(vertices=[1])
        prepare_seconds = first.extra["prepare_seconds"]
        assert prepare_seconds == second.extra["prepare_seconds"]
        # The first report carries the preparation cost; later batches only
        # bill their own per-vertex work.
        assert first.wall_clock_seconds >= prepare_seconds
        assert second.wall_clock_seconds < first.wall_clock_seconds
