"""JSON round-trip coverage for :class:`~repro.runtime.report.RunReport`.

``RunReport.to_dict`` is the machine-readable boundary of every run — the
CLI's ``--json`` output, the benchmark JSON records, and anything a driver
persists.  These tests pin that the payload (a) survives a real
``json.dumps``/``json.loads`` round trip without loss, and (b) carries the
accounting added by the parallel/state-plane layers: the ``extra``
state-plane keys and the crash-recovery restart count.  They also pin that
``report.scores`` is read-only: a row a caller reads is the caller's own.
"""

from __future__ import annotations

import json

import pytest

from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


def roundtrip(payload):
    """Through real JSON text and back."""
    return json.loads(json.dumps(payload))


def assert_json_clean(payload, path="$"):
    """Only JSON-native types anywhere in the payload (no numpy leaks)."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            assert isinstance(key, (str, int, float, bool)) or key is None
            assert_json_clean(value, f"{path}.{key}")
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            assert_json_clean(value, f"{path}[{index}]")
    else:
        assert payload is None or isinstance(
            payload, (str, int, float, bool)
        ), f"non-JSON value {payload!r} of type {type(payload)} at {path}"


@pytest.fixture(scope="module")
def graph(request):
    from repro.graph.generators import powerlaw_cluster

    return powerlaw_cluster(80, 3, 0.3, seed=11)


@pytest.fixture(scope="module")
def predictor():
    # Closed explicitly: after a crash-recovery run the predictor's pool
    # lease can sit in a reference cycle, so garbage collection would
    # release its segments only at some later collection.
    with SnapleLinkPredictor(
            SnapleConfig.paper_default(seed=3, k_local=6)) as predictor:
        yield predictor


class TestSerialReportRoundtrip:
    def test_local_report(self, graph, predictor):
        report = predictor.predict(graph, backend="local")
        payload = report.to_dict()
        assert_json_clean(payload)
        restored = roundtrip(payload)
        assert restored["backend"] == "local"
        assert restored["num_vertices"] == len(report.predictions)
        assert restored["extra"]["kernel_vectorized"] == 1.0
        assert "prepare_seconds" in restored["extra"]
        # JSON stringifies int keys; the content must survive unchanged.
        assert restored["predictions"] == {
            str(u): targets for u, targets in payload["predictions"].items()
        }

    def test_scores_included_on_request(self, graph, predictor):
        report = predictor.predict(graph, backend="local")
        payload = report.to_dict(include_scores=True)
        assert_json_clean(payload)
        restored = roundtrip(payload)
        some_vertex = next(iter(report.scores))
        assert restored["scores"][str(some_vertex)] == {
            str(candidate): score
            for candidate, score in dict(report.scores[some_vertex]).items()
        }

    def test_serial_gas_report_has_no_state_plane_extras(self, graph,
                                                         predictor):
        report = predictor.predict(graph, backend="gas")
        restored = roundtrip(report.to_dict())
        assert restored["extra"] == {}
        assert restored["simulated_seconds"] > 0.0


class TestParallelReportRoundtrip:
    def test_parallel_report_with_state_plane_keys(self, graph, predictor):
        report = predictor.predict(graph, backend="gas", workers=2)
        payload = report.to_dict()
        assert_json_clean(payload)
        restored = roundtrip(payload)
        assert restored["workers"] == 2
        assert len(restored["per_partition_seconds"]) == 2
        assert len(restored["partitions"]) == 2
        for entry in restored["partitions"]:
            assert set(entry) >= {
                "partition", "num_vertices", "num_predictions",
                "num_predicted_edges", "gather_invocations",
                "apply_invocations", "compute_seconds",
            }
            assert "shipped_bytes" not in entry
        # Real worker processes simulate no network traffic.
        assert restored["network_bytes"] is None
        # The executor's per-superstep state-plane accounting.
        assert restored["extra"]["state_plane_peak_bytes"] > 0.0
        for step in range(restored["supersteps"]):
            assert f"state_plane_bytes_step{step}" in restored["extra"]
            assert f"routing_seconds_step{step}" in restored["extra"]
        assert restored["extra"]["worker_restarts"] == 0.0

    def test_recovered_report_fields(self, graph, predictor,
                                     fault_injector):
        first = predictor.predict(graph, backend="gas", workers=2)
        recovered = predictor.predict(
            graph, backend="gas", workers=2,
            fault=fault_injector.kill_worker(2, partition=1),
        )
        restored = roundtrip(recovered.to_dict())
        assert restored["extra"]["worker_restarts"] == 1.0
        assert restored["predictions"] == {
            str(u): targets for u, targets in first.predictions.items()
        }

    def test_roundtrip_is_stable(self, graph, predictor):
        """dumps(loads(dumps(x))) == dumps(loads(x)): no drift on re-encode."""
        payload = predictor.predict(graph, backend="gas", workers=2).to_dict()
        once = roundtrip(payload)
        twice = roundtrip(once)
        assert once == twice


@pytest.mark.parametrize("backend, options", [
    ("local", {}), ("gas", {}), ("gas", {"workers": 2}),
], ids=["local", "gas", "gas-workers2"])
def test_a_read_row_belongs_to_the_caller(graph, predictor, backend,
                                          options):
    """Clearing a row from ``scores[u]`` or ``dict(scores)`` changes
    nothing the report answers afterwards."""
    report = predictor.predict(graph, backend=backend, **options)
    reference = {u: dict(row) for u, row in report.scores.items()}
    u, v = [w for w, row in reference.items() if row][:2]
    report.scores[u].clear()
    dict(report.scores)[v].clear()
    assert report.scores[u] == reference[u]
    assert report.scores[v] == reference[v]
    assert report.scores == reference


class TestServingReportRoundtrip:
    @pytest.fixture(scope="class")
    def serving_report(self, graph):
        from repro.serving import PredictorService, ServingConfig

        config = SnapleConfig.paper_default(seed=3, k_local=6)
        with PredictorService(graph, config,
                              serving=ServingConfig(workers=2,
                                                    compact_every=1)
                              ) as service:
            service.top_k(0)
            service.top_k(0)  # result-cache hit
            u = next(w for w in range(service.num_vertices)
                     if service.top_k(w).predicted)
            service.ingest_edge(u, service.top_k(u).predicted[0])
            return service.report()

    def test_serving_extras(self, serving_report):
        payload = serving_report.to_dict()
        assert_json_clean(payload)
        restored = roundtrip(payload)
        assert restored["backend"] == "serving"
        extra = restored["extra"]
        assert extra["requests_served"] >= 3.0
        assert extra["edges_ingested"] == 1.0
        assert extra["dirty_vertices_rescored"] > 0.0
        assert extra["cache_hits"] >= 1.0
        assert extra["cache_misses"] >= 1.0
        assert extra["compactions"] == 1.0
        assert extra["delta_edges"] == 0.0
        assert restored["workers"] == 2
        assert restored["wall_clock_seconds"] > 0.0

    def test_serving_scores_roundtrip(self, serving_report):
        payload = serving_report.to_dict(include_scores=True)
        assert_json_clean(payload)
        restored = roundtrip(payload)
        some_vertex = next(
            u for u, targets in serving_report.predictions.items() if targets
        )
        assert restored["scores"][str(some_vertex)] == {
            str(candidate): score
            for candidate, score in serving_report.scores[some_vertex].items()
        }
