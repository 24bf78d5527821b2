"""Load generator: config validation and windowed accounting invariants."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    LoadConfig,
    LoadGenerator,
    PredictorService,
    ServingConfig,
)
from repro.snaple.config import SnapleConfig


class TestLoadConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"clients": 0},
        {"windows": 0},
        {"window_seconds": 0.0},
        {"window_seconds": -1.0},
        {"ingest_fraction": -0.1},
        {"ingest_fraction": 1.5},
        {"warmup_windows": -1},
        {"cooldown_windows": -1},
        # Stable cut empty: warmup + cooldown consume every window.
        {"windows": 3, "warmup_windows": 2, "cooldown_windows": 1},
        {"k": 0},
        {"k": 2.5},
        {"k": True},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadConfig(**kwargs)


class TestRunAccounting:
    @pytest.fixture(scope="class")
    def result(self, random_graph):
        graph = random_graph(100, 3, 0.3, seed=13)
        config = SnapleConfig.paper_default(seed=3, k_local=6)
        load = LoadConfig(clients=2, windows=3, window_seconds=0.15,
                          warmup_windows=1, ingest_fraction=0.2, seed=5)
        with PredictorService(graph, config,
                              serving=ServingConfig(workers=2)) as service:
            return LoadGenerator(service, load).run(), service.stats()

    def test_window_trajectory(self, result):
        run, _stats = result
        assert len(run.windows) == 3
        assert [w.window for w in run.windows] == [0, 1, 2]
        for window in run.windows:
            assert window.operations == window.queries + window.ingests
            assert window.throughput_ops == pytest.approx(
                window.operations / run.window_seconds
            )
            if window.operations:
                assert 0 <= window.p50_ms <= window.p99_ms

    def test_totals_are_sums(self, result):
        run, _stats = result
        assert run.total_operations == sum(w.operations for w in run.windows)
        assert run.total_ingests == sum(w.ingests for w in run.windows)
        assert run.total_queries == run.total_operations - run.total_ingests
        assert run.total_operations > 0

    def test_stable_cut_excludes_warmup(self, result):
        run, _stats = result
        assert run.stable_windows == 2
        stable_ops = sum(w.operations for w in run.windows[1:])
        assert run.stable_operations == stable_ops
        assert run.stable_throughput_ops == pytest.approx(
            stable_ops / (2 * run.window_seconds)
        )
        if run.stable_operations:
            assert 0 <= run.stable_p50_ms <= run.stable_p99_ms

    def test_mix_reached_the_service(self, result):
        run, stats = result
        # Operations completing after the last window still hit the service,
        # so the service-side counters bound the windowed totals from above.
        assert stats.requests_served >= run.total_queries
        assert run.total_ingests > 0

    def test_to_dict_is_json_ready(self, result):
        import json

        run, _stats = result
        payload = run.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["offered_clients"] == 2
        assert len(payload["windows"]) == 3

    def test_stage_stats_and_operational_analysis_attached(self, result):
        run, _stats = result
        assert run.stages is not None
        assert set(run.stages) >= {"query", "ingest"}
        assert run.operational is not None
        assert run.operational["bottleneck"] in run.operational["stages"]
        assert 0.0 <= run.operational["bottleneck_utilization"]


class _SlowService:
    """Duck-typed service stub with a controllable per-request latency."""

    def __init__(self, num_vertices=10, latency=0.0):
        self.num_vertices = num_vertices
        self._latency = latency

    def top_k(self, vertex, k=None):
        if self._latency:
            import time

            time.sleep(self._latency)
        return (vertex, [], [])

    def ingest(self, edges):
        return len(edges)


class TestWindowEdgeCases:
    def test_zero_completion_windows_degenerate_to_zeros(self):
        # One request outlives several windows: the windows it spans finish
        # zero operations and must report zero throughput and percentiles.
        run = LoadGenerator(_SlowService(latency=0.25), LoadConfig(
            clients=1, windows=4, window_seconds=0.05,
            warmup_windows=1, seed=1,
        )).run()
        empty = [w for w in run.windows if w.operations == 0]
        assert empty, "expected at least one zero-completion window"
        for window in empty:
            assert window.throughput_ops == 0.0
            assert window.p50_ms == window.p99_ms == 0.0
        # Stable aggregates stay well-defined even if the cut is all-empty.
        assert run.stable_windows == 3
        assert run.stable_p50_ms <= run.stable_p99_ms
        # The stub exposes no stage_stats, so the analysis is absent.
        assert run.stages is None
        assert run.operational is None

    def test_warmup_longer_than_run_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadConfig(windows=2, warmup_windows=2)
        with pytest.raises(ConfigurationError):
            LoadConfig(windows=3, warmup_windows=5)

    def test_single_window_percentile_degeneracy(self):
        # windows=1 forces warmup=cooldown=0; with exactly one slow request
        # completing, p50 == p99 == the single sample.
        run = LoadGenerator(_SlowService(latency=0.06), LoadConfig(
            clients=1, windows=1, window_seconds=0.1,
            warmup_windows=0, seed=2,
        )).run()
        assert run.stable_windows == 1
        assert len(run.windows) == 1
        window = run.windows[0]
        if window.operations == 1:
            assert window.p50_ms == pytest.approx(window.p99_ms)
            assert run.stable_p50_ms == pytest.approx(run.stable_p99_ms)
        assert run.total_operations == sum(
            w.operations for w in run.windows
        )
