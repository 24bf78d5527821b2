"""The unified ``predict``/``predict_iter`` surface and the result helpers."""

from __future__ import annotations

import math

import pytest

import repro
import repro.baselines
from repro.errors import ConfigurationError
from repro.runtime.report import VertexPrediction
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


@pytest.fixture
def parity_config() -> SnapleConfig:
    return SnapleConfig(k_local=10, truncation_threshold=math.inf, seed=5)


class TestPredictDispatch:
    def test_default_backend_is_local(self, small_social_graph):
        report = SnapleLinkPredictor().predict(small_social_graph)
        assert report.backend == "local"

    def test_unknown_backend_raises_configuration_error(self, small_social_graph):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            SnapleLinkPredictor().predict(small_social_graph, backend="spark")

    def test_unsupported_option_raises_configuration_error(self,
                                                           small_social_graph):
        # The historical failure mode: cluster= with the local backend used
        # to surface as a bare TypeError from the call machinery.
        with pytest.raises(ConfigurationError) as excinfo:
            SnapleLinkPredictor().predict(small_social_graph, backend="local",
                                          cluster=object())
        message = str(excinfo.value)
        assert "'local'" in message
        assert "'cluster'" in message

    @pytest.mark.parametrize("mode", ["spark", "gas"])
    def test_mode_that_is_no_backend_is_treated_as_execution_mode(
            self, small_social_graph, mode):
        # Passed to the default (local) backend as its execution mode, which
        # rejects unknown values — a backend name ("gas") included: mode
        # never selects a backend.
        with pytest.raises(ConfigurationError, match="mode"):
            SnapleLinkPredictor().predict(small_social_graph, mode=mode)

    def test_mode_selects_local_kernel(self, small_social_graph):
        predictor = SnapleLinkPredictor(SnapleConfig(k_local=5))
        vectorized = predictor.predict(small_social_graph, mode="vectorized")
        reference = predictor.predict(small_social_graph, mode="reference")
        assert vectorized.backend == reference.backend == "local"
        assert vectorized.extra["kernel_vectorized"] == 1.0
        assert reference.extra["kernel_vectorized"] == 0.0
        assert vectorized.predictions == reference.predictions
        assert vectorized.scores == reference.scores

    def test_mode_with_explicit_backend_is_an_option(self, small_social_graph):
        predictor = SnapleLinkPredictor(SnapleConfig(k_local=5))
        report = predictor.predict(small_social_graph, backend="local",
                                   mode="reference")
        assert report.extra["kernel_vectorized"] == 0.0
        # Backends without a 'mode' option reject it by name.
        with pytest.raises(ConfigurationError, match="mode"):
            predictor.predict(small_social_graph, backend="gas",
                              mode="vectorized")


class TestPredictIter:
    def test_streams_every_vertex_in_order(self, small_social_graph,
                                           parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        full = predictor.predict(small_social_graph, backend="local")
        streamed = list(predictor.predict_iter(small_social_graph,
                                               batch_size=17))
        assert [record.vertex for record in streamed] == \
            list(small_social_graph.vertices())
        assert all(isinstance(record, VertexPrediction) for record in streamed)
        assert {record.vertex: record.predicted for record in streamed} == \
            full.predictions

    def test_respects_vertex_selection(self, small_social_graph, parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        subset = [5, 2, 9]
        streamed = list(predictor.predict_iter(small_social_graph,
                                               vertices=subset))
        assert [record.vertex for record in streamed] == subset

    def test_works_on_non_incremental_backends(self, small_social_graph,
                                               parity_config):
        predictor = SnapleLinkPredictor(parity_config)
        local = predictor.predict(small_social_graph, backend="local")
        streamed = list(predictor.predict_iter(small_social_graph,
                                               backend="gas", batch_size=16))
        assert {record.vertex: record.predicted for record in streamed} == \
            local.predictions

    def test_rejects_bad_batch_size(self, small_social_graph):
        with pytest.raises(ConfigurationError, match="batch_size"):
            list(SnapleLinkPredictor().predict_iter(small_social_graph,
                                                    batch_size=0))

    def test_top_helper(self, small_social_graph, parity_config):
        record = next(SnapleLinkPredictor(parity_config).predict_iter(
            small_social_graph
        ))
        expected = record.predicted[0] if record.predicted else None
        assert record.top == expected


class TestResultHelpers:
    def test_baseline_report_predicted_edges(self, small_social_graph):
        result = SnapleLinkPredictor().predict(
            small_social_graph, backend="gas_baseline", k=3,
            enforce_memory=False)
        edges = result.predicted_edges()
        assert edges == {(u, z) for u, targets in result.predictions.items()
                         for z in targets}
        assert any(edges)

    def test_shims_are_gone(self):
        for name in ("predict_local", "predict_gas"):
            assert not hasattr(SnapleLinkPredictor, name)
        assert not hasattr(repro, "PredictionResult")
        for name in ("KHopLinkPredictor", "ContentAwareLinkPredictor",
                     "ContentConfig"):
            assert not hasattr(repro.snaple, name), name
        for name in ("GasBaselinePredictor", "TopologicalPredictor",
                     "RandomWalkPPRPredictor"):
            assert not hasattr(repro.baselines, name), name
