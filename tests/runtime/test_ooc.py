"""Lifecycle and fallback tests for the spool-file segment plane.

:mod:`repro.runtime.ooc` hosts the parallel executor's segments in
file-backed mappings instead of POSIX shared memory — to bound peak RSS
(``SNAPLE_OOC=1``) and on platforms without shared memory.  Pinned here:

* **lifecycle** — every spool directory a run creates is removed again
  (success, crash, or recovery), and predictors release their pool lease on
  ``close()``;
* **fallback** — with no shared memory, ``workers=N`` runs land on spool
  files and still equal the scalar reference (the {shm, spool} parity grid
  itself lives in ``test_parallel_parity.py``);
* **portability** — a run that recovers from a worker crash on one plane
  equals the uninterrupted run on the other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EngineError, WorkerCrashError
from repro.runtime.ooc import (
    FileSegment,
    MemmapGraphHandle,
    MemmapRegistry,
    list_spool_dirs,
    ooc_enabled,
    segment_plane,
    spool_graph,
)
from repro.runtime.parallel import WorkerPoolLease
from repro.runtime.shm import AttachmentCache, ShmRegistry, list_segments
from repro.graph.digraph import CSR_ARRAY_NAMES
from repro.graph.storage import load_graph_memmap, save_graph_memmap
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    assert_matches_reference,
    over_seeds,
    reseeded,
    scalar_reference,
)


def parity_graph(random_graph):
    return random_graph(150, 3, 0.3, seed=11)


def parity_config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=10)


def assert_no_leaked_spools() -> None:
    assert list_spool_dirs() == [], (
        "spool directories leaked: " + ", ".join(list_spool_dirs())
    )


@pytest.fixture(autouse=True)
def spool_leak_guard(tmp_path, monkeypatch):
    """Every test spools under its own tmp dir and must leave it clean."""
    spool_parent = tmp_path / "spool"
    spool_parent.mkdir()
    monkeypatch.setenv("SNAPLE_OOC_DIR", str(spool_parent))
    assert_no_leaked_spools()
    yield
    assert_no_leaked_spools()


@pytest.fixture
def ooc_env(monkeypatch):
    monkeypatch.setenv("SNAPLE_OOC", "1")


# ----------------------------------------------------------------------
# FileSegment / MemmapRegistry units
# ----------------------------------------------------------------------
class TestFileSegment:
    def test_create_write_attach_read(self, tmp_path):
        path = tmp_path / "seg.bin"
        writer = FileSegment(path, 64, create=True)
        np.frombuffer(writer.buf, dtype=np.int64)[:] = np.arange(8)
        reader = FileSegment(path)
        np.testing.assert_array_equal(
            np.frombuffer(reader.buf, dtype=np.int64), np.arange(8))
        reader.close()
        writer.close()
        writer.unlink()
        assert not path.exists()

    def test_name_is_absolute_path(self, tmp_path):
        segment = FileSegment(tmp_path / "seg.bin", 8, create=True)
        try:
            assert segment.name == str(tmp_path / "seg.bin")
            assert segment.size == 8
        finally:
            segment.close()
            segment.unlink()

    def test_create_requires_size(self, tmp_path):
        with pytest.raises(ValueError):
            FileSegment(tmp_path / "seg.bin", create=True)

    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "seg.bin"
        path.write_bytes(b"x")
        with pytest.raises(FileExistsError):
            FileSegment(path, 8, create=True)

    def test_close_raises_while_views_live(self, tmp_path):
        segment = FileSegment(tmp_path / "seg.bin", 64, create=True)
        view = np.frombuffer(segment.buf, dtype=np.int64)
        with pytest.raises(BufferError):
            segment.close()
        del view
        segment.close()
        segment.unlink()

    def test_unlink_is_idempotent(self, tmp_path):
        segment = FileSegment(tmp_path / "seg.bin", 8, create=True)
        segment.close()
        segment.unlink()
        segment.unlink()


class TestMemmapRegistry:
    def test_spool_dir_created_and_removed(self):
        registry = MemmapRegistry()
        spool = registry.spool_dir
        assert spool.is_dir()
        assert list_spool_dirs() == [spool.name]
        registry.close()
        assert not spool.exists()
        assert_no_leaked_spools()

    def test_close_is_idempotent(self):
        registry = MemmapRegistry()
        registry.create(128)
        registry.close()
        registry.close()

    def test_share_arrays_round_trip(self):
        cache = AttachmentCache()
        with MemmapRegistry() as registry:
            arrays = {
                "a": np.arange(10, dtype=np.int64),
                "b": np.linspace(0.0, 1.0, 5),
            }
            block = registry.share_arrays(arrays)
            assert registry.num_segments == 1
            for name, array in arrays.items():
                view = cache.view(block.specs[name])
                np.testing.assert_array_equal(view, array)
                assert not view.flags.writeable
                del view
            cache.retain(set())

    def test_block_descriptors_carry_spool_paths(self):
        cache = AttachmentCache()
        with MemmapRegistry() as registry:
            block = registry.share_arrays({
                "indptr": np.array([0, 0, 3], dtype=np.int64),
                "indices": np.array([5, 6, 7], dtype=np.int64),
            })
            # Descriptors carry spool-file paths, which is what makes them
            # self-routing through the worker-side attachment cache.
            assert block.segment.startswith(str(registry.spool_dir))
            for spec in block.specs.values():
                assert spec.segment == block.segment
            view = cache.view(block.specs["indices"])
            np.testing.assert_array_equal(view, [5, 6, 7])
            del view
            cache.retain(set())

    def test_attachment_cache_missing_file_raises(self):
        cache = AttachmentCache()
        with MemmapRegistry() as registry:
            handle = registry.share_array(np.arange(4, dtype=np.int64))
        with pytest.raises(EngineError, match="vanished"):
            cache.view(handle)


class TestSpoolGraph:
    def test_in_ram_graph_spooled_into_registry(self, random_graph):
        graph = parity_graph(random_graph)
        registry = MemmapRegistry()
        try:
            handle = spool_graph(registry, graph)
            assert handle.num_vertices == graph.num_vertices
            assert handle.num_edges == graph.num_edges
            assert handle.path.startswith(str(registry.spool_dir))
            loaded = handle.attach()
            for name in CSR_ARRAY_NAMES:
                np.testing.assert_array_equal(
                    loaded.csr_arrays()[name], graph.csr_arrays()[name])
        finally:
            registry.close()

    def test_container_backed_graph_ships_without_copy(self, tmp_path,
                                                       random_graph):
        graph = parity_graph(random_graph)
        container = save_graph_memmap(graph, tmp_path / "g")
        mapped = load_graph_memmap(container)
        registry = MemmapRegistry()
        try:
            handle = spool_graph(registry, mapped)
            assert handle.path == str(container)
            assert not (registry.spool_dir / "graph").exists()
        finally:
            registry.close()


# ----------------------------------------------------------------------
# End-to-end parity and lifecycle
# ----------------------------------------------------------------------
class TestOutOfCoreParity:
    _reference: dict[tuple[str, int], object] = {}

    def _reference_run(self, backend, workers, random_graph):
        key = (backend, workers)
        if key not in self._reference:
            graph = parity_graph(random_graph)
            run = SnapleLinkPredictor(parity_config()).predict(
                graph, backend=backend)
            self._reference[key] = {
                "predictions": run.predictions,
                "scores": dict(run.scores),
            }
        return self._reference[key]

    def test_container_backed_graph_runs_parallel(self, tmp_path, ooc_env,
                                                  random_graph):
        graph = parity_graph(random_graph)
        container = save_graph_memmap(graph, tmp_path / "g")
        mapped = load_graph_memmap(container)
        reference = self._reference_run("gas", 2, random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            run = predictor.predict(mapped, backend="gas", workers=2)
        assert run.predictions == reference["predictions"]
        assert run.extra["ooc_enabled"] == 1.0
        assert_no_leaked_spools()

    def test_ooc_takes_precedence_over_shm(self, monkeypatch, ooc_env,
                                           random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            run = predictor.predict(graph, backend="gas", workers=2)
        assert run.extra["ooc_enabled"] == 1.0
        assert run.extra["shm_enabled"] == 0.0

    def test_spools_cleaned_after_worker_crash(self, fault_injector, ooc_env,
                                               random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        fault = fault_injector.kill_worker(1, partition=0)
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              max_restarts=0, fault=fault)
        predictor.close()
        assert_no_leaked_spools()


class TestSegmentPlane:
    @pytest.mark.parametrize(
        ("shm", "ooc", "expected"),
        [
            (True, False, ShmRegistry),
            (True, True, MemmapRegistry),
            (False, False, MemmapRegistry),
            (False, True, MemmapRegistry),
        ],
        ids=["shm", "shm-ooc", "no-shm", "no-shm-ooc"],
    )
    def test_chooser(self, shm, ooc, expected, monkeypatch):
        """Shared memory only when the platform has it and SNAPLE_OOC is
        unset; spool files in every other case."""
        monkeypatch.setattr("repro.runtime.ooc.shm_available", lambda: shm)
        if ooc:
            monkeypatch.setenv("SNAPLE_OOC", "1")
        else:
            monkeypatch.delenv("SNAPLE_OOC", raising=False)
        assert segment_plane() is expected


@pytest.fixture
def no_shm(monkeypatch):
    """A platform without POSIX shared memory, as the plane chooser sees it."""
    monkeypatch.setattr("repro.runtime.ooc.shm_available", lambda: False)
    monkeypatch.delenv("SNAPLE_OOC", raising=False)
    before = list_segments()
    yield
    assert list_segments() == before


class TestNoShmPlatform:
    @over_seeds
    def test_workers_fall_back_to_spool_files(self, seed, no_shm,
                                              random_graph):
        graph = parity_graph(random_graph)
        config = reseeded(parity_config(), seed)
        with SnapleLinkPredictor(config) as predictor:
            run = predictor.predict(graph, backend="gas", workers=2)
        assert_matches_reference(run, scalar_reference(graph, config))
        assert run.extra["ooc_enabled"] == 1.0
        assert run.extra["shm_enabled"] == 0.0
        assert_no_leaked_spools()


class TestCrossTierRecovery:
    """A crash recovered on one tier equals the other tier's clean run."""

    def _crash_on(self, crash_env, baseline_env, superstep, monkeypatch,
                  fault_injector, random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        for name, value in baseline_env.items():
            monkeypatch.setenv(name, value)
        baseline = predictor.predict(graph, backend="gas", workers=2)
        predictor.close()
        for name in baseline_env:
            monkeypatch.delenv(name)

        for name, value in crash_env.items():
            monkeypatch.setenv(name, value)
        fault = fault_injector.kill_worker(superstep, partition=0)
        recovered = predictor.predict(graph, backend="gas", workers=2,
                                      fault=fault)
        predictor.close()
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.extra["ooc_enabled"] == float(bool(crash_env))
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)
        assert_no_leaked_spools()

    @pytest.mark.parametrize("superstep", range(3))
    def test_crash_under_memmap_equals_shm_baseline(
            self, superstep, monkeypatch, fault_injector, random_graph):
        self._crash_on({"SNAPLE_OOC": "1"}, {}, superstep, monkeypatch,
                       fault_injector, random_graph)

    @pytest.mark.parametrize("superstep", range(3))
    def test_crash_under_shm_equals_memmap_baseline(
            self, superstep, monkeypatch, fault_injector, random_graph):
        self._crash_on({}, {"SNAPLE_OOC": "1"}, superstep, monkeypatch,
                       fault_injector, random_graph)


# ----------------------------------------------------------------------
# Worker-pool lease (satellite: pool reuse across predict() calls)
# ----------------------------------------------------------------------
class TestWorkerPoolLease:
    @pytest.mark.parametrize("env", [{}, {"SNAPLE_OOC": "1"}],
                             ids=["shm", "ooc"])
    def test_pool_reused_across_predicts(self, env, monkeypatch,
                                         random_graph):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            first = predictor.predict(graph, backend="gas", workers=2)
            second = predictor.predict(graph, backend="gas", workers=2)
            assert predictor.pool_spawns == 1
            assert first.predictions == second.predictions

    @pytest.mark.parametrize("env", [{}, {"SNAPLE_OOC": "1"}],
                             ids=["shm", "ooc"])
    def test_new_graph_at_a_freed_address_respawns_pool(self, env,
                                                        monkeypatch):
        # A graph allocated where a dropped one lived shares its id(); the
        # lease must still see a different graph and host it afresh.
        from repro.graph.generators import powerlaw_cluster

        for name, value in env.items():
            monkeypatch.setenv(name, value)
        config = parity_config()
        with SnapleLinkPredictor(config) as predictor:
            for seed in range(6):
                graph = powerlaw_cluster(300, 3, 0.3, seed=seed)
                run = predictor.predict(graph, backend="gas", workers=2)
                with SnapleLinkPredictor(config) as fresh:
                    expected = fresh.predict(graph, backend="gas", workers=2)
                assert run.predictions == expected.predictions
                assert dict(run.scores) == dict(expected.scores)
                del graph, run, expected
            assert predictor.pool_spawns == 6

    def test_env_change_respawns_pool(self, monkeypatch, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            predictor.predict(graph, backend="gas", workers=2)
            monkeypatch.setenv("SNAPLE_OOC", "1")
            run = predictor.predict(graph, backend="gas", workers=2)
            assert predictor.pool_spawns == 2
            assert run.extra["ooc_enabled"] == 1.0

    def test_worker_count_change_respawns_pool(self, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            predictor.predict(graph, backend="gas", workers=2)
            predictor.predict(graph, backend="gas", workers=3)
            assert predictor.pool_spawns == 2

    def test_close_is_idempotent_and_releases(self, ooc_env, random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        predictor.predict(graph, backend="gas", workers=2)
        assert predictor.pool_spawns == 1
        predictor.close()
        predictor.close()
        assert_no_leaked_spools()
        assert predictor.pool_spawns == 0

    def test_crash_invalidates_lease(self, fault_injector, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            baseline = predictor.predict(graph, backend="gas", workers=2)
            fault = fault_injector.kill_worker(1, partition=0)
            with pytest.raises(WorkerCrashError):
                predictor.predict(graph, backend="gas", workers=2,
                                  max_restarts=0, fault=fault)
            # The fault run bypassed the lease; the pooled workers are
            # still healthy and reused.
            after = predictor.predict(graph, backend="gas", workers=2)
            assert predictor.pool_spawns == 1
            assert after.predictions == baseline.predictions

    def test_lease_requires_lease_instance(self, random_graph):
        from repro.errors import ConfigurationError
        from repro.runtime.parallel import ParallelExecutor

        graph = parity_graph(random_graph)
        with pytest.raises(ConfigurationError, match="pool"):
            ParallelExecutor(graph, parity_config(), workers=2,
                             pool=object())

    def test_pool_option_requires_workers(self, random_graph):
        from repro.errors import ConfigurationError
        from repro.runtime import get_backend

        with pytest.raises(ConfigurationError, match="workers"):
            get_backend("gas", pool=WorkerPoolLease())

    def test_lease_context_manager(self, random_graph):
        graph = parity_graph(random_graph)
        config = parity_config()
        with WorkerPoolLease() as lease:
            first = SnapleLinkPredictor(config).predict(
                graph, backend="gas", workers=2, pool=lease)
            second = SnapleLinkPredictor(config).predict(
                graph, backend="gas", workers=2, pool=lease)
            assert lease.spawns == 1
            assert first.predictions == second.predictions
        assert_no_leaked_spools()
