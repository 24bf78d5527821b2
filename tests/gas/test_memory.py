"""Unit tests for the memory tracker."""

from __future__ import annotations

import pytest

from repro.errors import ResourceExhaustedError
from repro.gas.cluster import TYPE_I, ClusterConfig
from repro.gas.memory import MemoryTracker


def _tracker(memory_scale=1.0, machines=2, enforce=True):
    cluster = ClusterConfig(machine=TYPE_I, num_machines=machines,
                            memory_scale=memory_scale)
    return MemoryTracker(cluster, enforce=enforce)


class TestCharging:
    def test_charge_and_release(self):
        tracker = _tracker()
        tracker.charge(0, 1000)
        assert tracker.usage_bytes(0) == 1000
        tracker.release(0, 400)
        assert tracker.usage_bytes(0) == 600

    def test_release_never_goes_negative(self):
        tracker = _tracker()
        tracker.charge(0, 100)
        tracker.release(0, 1_000_000)
        assert tracker.usage_bytes(0) == 0

    def test_peak_tracks_high_water_mark(self):
        tracker = _tracker()
        tracker.charge(1, 500)
        tracker.release(1, 500)
        tracker.charge(1, 200)
        assert tracker.peak_bytes(1) == 500
        assert tracker.usage_bytes(1) == 200

    def test_per_machine_isolation(self):
        tracker = _tracker(machines=3)
        tracker.charge(0, 100)
        tracker.charge(2, 300)
        assert tracker.usage_bytes(1) == 0
        assert tracker.peak_per_machine() == [100, 0, 300]
        assert tracker.total_peak_bytes() == 400


class TestEnforcement:
    def test_exceeding_capacity_raises(self):
        tracker = _tracker(memory_scale=1e-9)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            tracker.charge(0, 10_000)
        assert excinfo.value.machine == 0

    def test_error_carries_capacity_information(self):
        tracker = _tracker(memory_scale=1e-9)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            tracker.charge(1, 10_000)
        assert excinfo.value.requested_bytes == 10_000
        assert excinfo.value.capacity_bytes >= 0

    def test_enforcement_disabled_records_peak_only(self):
        tracker = _tracker(memory_scale=1e-9, enforce=False)
        tracker.charge(0, 10_000_000)
        assert tracker.peak_bytes(0) == 10_000_000

    def test_capacity_respects_memory_scale(self):
        full = _tracker(memory_scale=1.0)
        tiny = _tracker(memory_scale=0.001)
        assert tiny.capacity_bytes == pytest.approx(full.capacity_bytes * 0.001)
