"""Stage instrumentation: totals and bounded sampling."""

from __future__ import annotations

import pytest

from repro.serving.stages import StageRecorder


class TestStageRecorder:
    def test_totals_and_samples(self):
        recorder = StageRecorder("stage")
        recorder.record(0.1, 0.2)
        recorder.record(0.3, 0.4)
        recorder.sample_depth(5)
        snap = recorder.snapshot()
        assert snap["name"] == "stage"
        assert snap["count"] == 2
        assert snap["wait_total"] == pytest.approx(0.4)
        assert snap["service_total"] == pytest.approx(0.6)
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

    def test_fresh_recorder_snapshot_is_empty(self):
        snap = StageRecorder("idle").snapshot()
        assert snap["count"] == 0
        assert snap["wait_total"] == snap["service_total"] == 0.0
        assert snap["wait_samples"] == snap["service_samples"] == []
        assert snap["depth_samples"] == []

    def test_snapshot_is_a_copy(self):
        recorder = StageRecorder("stage")
        recorder.record(0.1, 0.2)
        recorder.sample_depth(1)
        snap = recorder.snapshot()
        snap["wait_samples"].append(9.0)
        snap["depth_samples"].clear()
        recorder.record(0.3, 0.4)
        again = recorder.snapshot()
        assert again["wait_samples"] == [0.1, 0.3]
        assert again["depth_samples"] == [1]
        assert snap["count"] == 1

    def test_decimated_samples_span_the_whole_run(self):
        # Each record carries its own index, so the kept samples show which
        # part of the run survived the thinning.
        recorder = StageRecorder("hot")
        total = 20_000
        for i in range(total):
            recorder.record(float(i), 0.0)
        kept = recorder.snapshot()["wait_samples"]
        assert kept == sorted(kept)
        assert kept[0] == 0.0
        assert kept[-1] >= total * 3 / 4
        assert 4096 // 2 <= len(kept) <= 4096
