"""Lifecycle tests for the segment plane.

The segment plane (:mod:`repro.runtime.shm`) maps the CSR graph and each
phase's assembled output into ``multiprocessing.shared_memory`` segments —
or spool files (:mod:`repro.runtime.ooc`) — so parallel tasks exchange
descriptors, never shared arrays.  Pinned here:

* **lifecycle** — every segment the coordinator creates is unlinked again,
  whether the run succeeds, a worker crashes, or the run recovers by
  replay; ``list_segments()`` doubles as the CI leak check;
* **descriptors** — a task carries its row ids and the
  :class:`~repro.runtime.shm.BlockHandle` s of the outputs it reads, on
  either plane.

The {shm, spool} parity grid against the scalar reference lives in
``test_parallel_parity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EngineError, WorkerCrashError
from repro.graph.digraph import CSR_ARRAY_NAMES, DiGraph
from repro.runtime.ooc import MemmapGraphHandle, MemmapRegistry, list_spool_dirs
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.partition import partition_vertices
from repro.runtime.shm import (
    AttachmentCache,
    BlockHandle,
    ShmGraphHandle,
    ShmRegistry,
    attach_graph,
    list_segments,
    share_graph,
    shm_available,
)
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import over_seeds, reseeded

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform lacks POSIX shared memory"
)


def parity_graph(random_graph):
    return random_graph(150, 3, 0.3, seed=11)


def parity_config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=10)


def assert_no_leaked_segments() -> None:
    assert list_segments() == [], (
        "shared-memory segments leaked: " + ", ".join(list_segments())
    )


@pytest.fixture(autouse=True)
def shm_leak_guard():
    """Every test in this module must leave /dev/shm clean."""
    assert_no_leaked_segments()
    yield
    assert_no_leaked_segments()


# ----------------------------------------------------------------------
# Registry lifecycle
# ----------------------------------------------------------------------
class TestRegistryLifecycle:
    def test_create_and_close_unlinks_everything(self):
        registry = ShmRegistry()
        registry.create(1024)
        registry.create(4096)
        assert registry.num_segments == 2
        assert len(list_segments()) == 2
        registry.close()
        assert registry.num_segments == 0
        assert_no_leaked_segments()

    def test_context_manager_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with ShmRegistry() as registry:
                registry.create(512)
                raise RuntimeError("boom")
        assert_no_leaked_segments()

    def test_release_unlinks_one_segment(self):
        with ShmRegistry() as registry:
            keep = registry.create(64)
            drop = registry.create(64)
            registry.release(drop.name)
            assert registry.num_segments == 1
            assert list_segments() == [keep.name]

    def test_close_is_idempotent(self):
        registry = ShmRegistry()
        registry.create(64)
        registry.close()
        registry.close()

    def test_release_with_live_view_defers_close_but_unlinks(self):
        with ShmRegistry() as registry:
            segment = registry.create(256)
            view = np.frombuffer(segment.buf, dtype=np.uint8)
            registry.release(segment.name)
            # The name is gone (no leak) even though the view still reads.
            assert_no_leaked_segments()
            assert view[0] == 0

    def test_accounting(self):
        with ShmRegistry() as registry:
            registry.create(100)
            registry.create(200)
            assert registry.created_bytes == 300
            assert registry.live_bytes() == 300

    def test_segment_names_carry_the_leak_check_prefix(self):
        with ShmRegistry() as registry:
            segment = registry.create(16)
            assert segment.name.startswith("snpl")
            assert len(segment.name) <= 31  # macOS shm name limit


class TestArraySharing:
    def test_share_array_roundtrip(self):
        data = np.arange(37, dtype=np.float64) * 1.5
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            handle = registry.share_array(data)
            view = cache.view(handle)
            np.testing.assert_array_equal(view, data)
            assert not view.flags.writeable
            del view  # release the buffer export so the mapping can close
            cache.retain(set())

    def test_share_arrays_packs_one_segment(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "c": np.array([], dtype=np.int32),
        }
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            block = registry.share_arrays(arrays)
            assert registry.num_segments == 1
            for key, original in arrays.items():
                np.testing.assert_array_equal(
                    cache.view(block.specs[key]), original
                )
            cache.retain(set())

    def test_attaching_a_released_segment_raises_engine_error(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            handle = registry.share_array(np.arange(4))
            registry.release(handle.segment)
            with pytest.raises(EngineError, match="vanished"):
                cache.view(handle)


class TestGraphSharing:
    def test_attached_graph_matches_original(self, random_graph):
        graph = parity_graph(random_graph)
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            handle = share_graph(registry, graph)
            attached = attach_graph(handle, cache)
            assert attached.num_vertices == graph.num_vertices
            assert attached.num_edges == graph.num_edges
            for u in range(0, graph.num_vertices, 17):
                np.testing.assert_array_equal(
                    attached.out_neighbors(u), graph.out_neighbors(u)
                )
                np.testing.assert_array_equal(
                    attached.in_neighbors(u), graph.in_neighbors(u)
                )
            # Drop the cache's pinned mapping before the registry unlinks.
            cache._pinned.clear()
            del attached
            cache.retain(set())

    @pytest.mark.parametrize(
        ("plane", "handle_type"),
        [(ShmRegistry, ShmGraphHandle), (MemmapRegistry, MemmapGraphHandle)],
        ids=["shm", "spool"],
    )
    def test_host_graph_then_attach_round_trips(self, plane, handle_type,
                                                monkeypatch, tmp_path,
                                                random_graph):
        """``registry.host_graph`` and ``handle.attach`` are the whole
        graph-hosting seam, on either plane."""
        monkeypatch.setenv("SNAPLE_OOC_DIR", str(tmp_path))
        cache = AttachmentCache()
        monkeypatch.setattr("repro.runtime.shm._worker_cache", cache)
        graph = parity_graph(random_graph)
        with plane() as registry:
            handle = registry.host_graph(graph)
            assert type(handle) is handle_type
            attached = handle.attach()
            assert attached.num_vertices == graph.num_vertices
            assert attached.num_edges == graph.num_edges
            for name in CSR_ARRAY_NAMES:
                np.testing.assert_array_equal(attached.csr_arrays()[name],
                                              graph.csr_arrays()[name])
            cache._pinned.clear()
            del attached
            cache.retain(set())
        assert list_spool_dirs() == []


# ----------------------------------------------------------------------
# End-to-end lifecycle through the parallel executor
# ----------------------------------------------------------------------
class TestRunLifecycle:
    def test_no_segments_after_successful_run(self, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            report = predictor.predict(graph, backend="gas", workers=2)
            assert report.extra.get("shm_enabled") == 1.0
            assert report.extra.get("transport_bytes", 0.0) > 0.0
        # Closing the predictor releases the pool lease and its graph plane.
        assert_no_leaked_segments()

    def test_no_segments_after_worker_crash(self, fault_injector,
                                            random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        fault = fault_injector.kill_worker(1, partition=0)
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              max_restarts=0, fault=fault)
        predictor.close()
        assert_no_leaked_segments()

    @pytest.mark.parametrize("superstep", range(3))
    def test_no_segments_after_crash_recovery(self, superstep,
                                              fault_injector, random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        baseline = predictor.predict(graph, backend="gas", workers=2)
        fault = fault_injector.kill_worker(superstep, partition=1)
        recovered = predictor.predict(graph, backend="gas", workers=2,
                                      fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        predictor.close()
        assert_no_leaked_segments()

    def test_no_segments_after_exhausted_budget_at_final_step(
            self, fault_injector, random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        fault = fault_injector.kill_worker(2, partition=0)
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              max_restarts=0, fault=fault)
        predictor.close()
        assert_no_leaked_segments()


class TestTaskPayloads:
    """Only descriptors cross the process boundary: besides its row ids, a
    task carries the ``BlockHandle`` s of the phase outputs it reads, on
    either plane."""

    @over_seeds
    def test_payloads_are_descriptors(self, seed, plane, monkeypatch,
                                      random_graph):
        shipped = []
        original = ParallelExecutor._map

        def recording_map(self, pool, fn, tasks):
            shipped.extend(tasks)
            return original(self, pool, fn, tasks)

        monkeypatch.setattr(ParallelExecutor, "_map", recording_map)
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(reseeded(parity_config(), seed)) as predictor:
            predictor.predict(graph, backend="gas", workers=2)
        owners = partition_vertices(graph, 2, seed=seed).vertex_machine
        # A task is ``(partition, phase, owned row ids, hosted blocks)``;
        # phase p reads the p outputs hosted before it.
        assert sorted({task[1] for task in shipped}) == [0, 1, 2]
        for partition, phase, rows, blocks in shipped:
            assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
            assert rows.tolist() == np.flatnonzero(
                owners == partition).tolist()
            assert len(blocks) == phase
            assert all(type(block) is BlockHandle for block in blocks)
            for part in (partition, phase, *blocks):
                assert not isinstance(part, (np.ndarray, DiGraph))
        assert_no_leaked_segments()
