"""Stage instrumentation: bounded sampling and operational laws."""

from __future__ import annotations

import pytest

from repro.serving.stages import StageRecorder, operational_analysis


class TestStageRecorder:
    def test_totals_and_samples(self):
        recorder = StageRecorder("stage", servers=2)
        recorder.record(0.1, 0.2)
        recorder.record(0.3, 0.4)
        recorder.sample_depth(5)
        snap = recorder.snapshot()
        assert snap["name"] == "stage"
        assert snap["servers"] == 2
        assert snap["count"] == 2
        assert snap["wait_total"] == pytest.approx(0.4)
        assert snap["service_total"] == pytest.approx(0.6)
        assert snap["busy_seconds"] == pytest.approx(0.6)
        assert snap["wait_samples"] == [0.1, 0.3]
        assert snap["service_samples"] == [0.2, 0.4]
        assert snap["depth_samples"] == [5]

    def test_decimation_bounds_memory_but_not_totals(self):
        recorder = StageRecorder("hot")
        total = 50_000
        for i in range(total):
            recorder.record(1e-6, 2e-6)
            recorder.sample_depth(i)
        snap = recorder.snapshot()
        assert snap["count"] == total
        assert snap["wait_total"] == pytest.approx(total * 1e-6)
        # Stride-doubling keeps the retained buffers bounded.
        assert len(snap["wait_samples"]) <= 4096
        assert len(snap["service_samples"]) == len(snap["wait_samples"])
        assert len(snap["depth_samples"]) <= 4096
        assert len(snap["wait_samples"]) > 0

    def test_reset(self):
        recorder = StageRecorder("stage")
        recorder.record(0.1, 0.2)
        recorder.sample_depth(3)
        recorder.reset()
        snap = recorder.snapshot()
        assert snap["count"] == 0
        assert snap["wait_total"] == 0.0
        assert snap["wait_samples"] == []
        assert snap["depth_samples"] == []


class TestOperationalAnalysis:
    def _snapshot(self, name, *, servers, count, wait, service, depths):
        return {
            "name": name,
            "servers": servers,
            "count": count,
            "wait_total": wait,
            "service_total": service,
            "busy_seconds": service,
            "wait_samples": [wait / count] * count if count else [],
            "service_samples": [service / count] * count if count else [],
            "depth_samples": depths,
        }

    def test_laws_and_bottleneck(self):
        snapshots = {
            "dispatch": self._snapshot("dispatch", servers=1, count=100,
                                       wait=1.0, service=2.0, depths=[3, 3]),
            "rescore": self._snapshot("rescore", servers=4, count=100,
                                      wait=0.5, service=32.0, depths=[]),
        }
        table = operational_analysis(snapshots, elapsed_seconds=10.0)
        assert table["elapsed_seconds"] == 10.0
        dispatch = table["stages"]["dispatch"]
        assert dispatch["arrival_rate_per_s"] == pytest.approx(10.0)
        # U = busy / (servers * elapsed) = 2 / 10.
        assert dispatch["utilization"] == pytest.approx(0.2)
        # L = lambda * W = 10 * (1 + 2) / 100.
        assert dispatch["little_queue_length"] == pytest.approx(0.3)
        assert dispatch["measured_queue_length"] == pytest.approx(3.0)
        assert dispatch["little_fit_error"] == pytest.approx(2.7 / 0.3)
        rescore = table["stages"]["rescore"]
        # U = 32 / (4 * 10): the saturating stage.
        assert rescore["utilization"] == pytest.approx(0.8)
        assert table["bottleneck"] == "rescore"
        assert table["bottleneck_utilization"] == pytest.approx(0.8)

    def test_idle_stage_degenerates_to_zeros(self):
        snapshots = {
            "idle": self._snapshot("idle", servers=1, count=0,
                                   wait=0.0, service=0.0, depths=[]),
        }
        table = operational_analysis(snapshots, elapsed_seconds=5.0)
        idle = table["stages"]["idle"]
        assert idle["utilization"] == 0.0
        assert idle["mean_wait_ms"] == 0.0
        assert idle["little_fit_error"] == 0.0
        assert idle["wait"] == {"p50_ms": 0.0, "p99_ms": 0.0}
        assert table["bottleneck"] == "idle"
        assert table["bottleneck_utilization"] == 0.0
