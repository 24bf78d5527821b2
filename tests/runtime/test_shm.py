"""Lifecycle tests for the segment plane.

The segment plane (:mod:`repro.runtime.shm`) hosts the graph as a container
and each phase's assembled output as a segment file in one run-scoped
directory, which workers map read-only — so parallel tasks exchange
descriptors, never shared arrays.  Pinned here:

* **lifecycle** — every run directory the coordinator creates is removed
  again, whether the run succeeds, a worker crashes, or the run recovers by
  replay, under ``/dev/shm`` and under the temporary directory alike;
  ``list_segments()`` doubles as the CI leak check;
* **coordinator death** — the directory of a SIGKILLed coordinator is
  removed by the next registry, and an open registry's directory, an
  unprefixed entry or a symlink's target never is;
* **graph inputs** — an in-RAM graph is saved into the run directory and
  removed with it, a container graph ships its own path and outlives the
  run, and a crash recovered with either input equals the other's clean
  run;
* **descriptors** — a task carries its row ids and the
  :class:`~repro.runtime.shm.BlockHandle` s of the outputs it reads.

The parity grid against the scalar reference lives in
``test_parallel_parity.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import EngineError, WorkerCrashError
from repro.graph.digraph import CSR_ARRAY_NAMES, DiGraph
from repro.graph.storage import load_graph_memmap, save_graph_memmap
from repro.runtime import shm
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.partition import partition_vertices
from repro.runtime.shm import (
    AttachmentCache,
    BlockHandle,
    ShmRegistry,
    attach_graph,
    list_segments,
    share_graph,
)
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


def assert_no_leaked_segments() -> None:
    assert list_segments() == [], (
        "run directories leaked: " + ", ".join(list_segments())
    )


@pytest.fixture(autouse=True)
def shm_leak_guard():
    """Every test in this module must leave the segment parent clean."""
    assert_no_leaked_segments()
    yield
    assert_no_leaked_segments()


@pytest.fixture
def fallback_parent(monkeypatch, tmp_path):
    """A platform without a writable ``/dev/shm``: run directories go under
    the temporary directory, here a fresh one."""
    monkeypatch.setattr(shm, "_shm_writable", lambda: False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return str(tmp_path)


@pytest.fixture(params=["dev-shm", "fallback"])
def segment_parent(request):
    """Each parent the plane can put its run directories in."""
    if request.param == "fallback":
        return request.getfixturevalue("fallback_parent")
    if not shm._shm_writable():
        pytest.skip("no writable /dev/shm on this platform")
    return "/dev/shm"


# ----------------------------------------------------------------------
# Registry lifecycle
# ----------------------------------------------------------------------
class TestRegistryLifecycle:
    def test_listed_while_holding_a_segment_and_removed_on_close(
            self, segment_parent):
        registry = ShmRegistry()
        block = registry.share_arrays({"ids": np.arange(4)})
        assert os.path.dirname(registry.path) == segment_parent
        assert list_segments() == [os.path.basename(registry.path)]
        assert os.path.isfile(block.segment)
        registry.close()
        assert not os.path.exists(registry.path)
        assert list_segments() == []

    def test_context_manager_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with ShmRegistry() as registry:
                registry.share_arrays({"ids": np.arange(4)})
                raise RuntimeError("boom")
        assert_no_leaked_segments()

    def test_close_is_idempotent(self):
        registry = ShmRegistry()
        registry.share_arrays({"ids": np.arange(4)})
        registry.close()
        registry.close()

    def test_views_outlive_close_and_retain(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            block = registry.share_arrays({"ids": np.arange(32)})
            view = cache.view(block.specs["ids"])
        # The directory is gone (no leak) even though the view still reads;
        # dropping the mapping while a view is live defers the unmap.
        assert_no_leaked_segments()
        cache.retain(set())
        np.testing.assert_array_equal(view, np.arange(32))

    def test_run_directory_names_carry_the_leak_check_prefix(self):
        with ShmRegistry() as registry:
            assert os.path.basename(registry.path).startswith("snpl")

    def test_registries_get_distinct_directories(self):
        with ShmRegistry() as first, ShmRegistry() as second:
            assert first.path != second.path
            assert list_segments() == sorted(
                os.path.basename(registry.path)
                for registry in (first, second))

    def test_close_removes_every_segment_and_the_hosted_graph(
            self, random_graph):
        registry = ShmRegistry()
        blocks = [registry.share_arrays({"ids": np.arange(size)})
                  for size in (1, 2, 3)]
        graph_path = share_graph(registry, parity_graph(random_graph))
        registry.close()
        for path in [block.segment for block in blocks] + [graph_path]:
            assert not os.path.exists(path)
        assert_no_leaked_segments()


class TestCoordinatorDeath:
    """The registry's ``flock`` is the backstop when the coordinator dies
    before its ``finally`` runs."""

    COORDINATOR = (
        "import time\n"
        "import numpy as np\n"
        "from repro.runtime.shm import ShmRegistry\n"
        "registry = ShmRegistry()\n"
        "block = registry.share_arrays({'ids': np.arange(8)})\n"
        "print(block.segment, flush=True)\n"
        "time.sleep(120)\n"
    )

    def test_killed_coordinators_segments_are_removed(self, tmp_path):
        before = list_segments()
        script = tmp_path / "coordinator.py"
        script.write_text(self.COORDINATOR)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        coordinator = subprocess.Popen([sys.executable, str(script)],
                                       env=env, stdout=subprocess.PIPE,
                                       text=True)
        try:
            assert coordinator.stdout.readline().strip()
            assert list_segments() != before
        finally:
            coordinator.kill()
            coordinator.wait(timeout=30)
            coordinator.stdout.close()
        deadline = time.monotonic() + 5.0
        while True:
            ShmRegistry().close()
            if list_segments() == before or time.monotonic() > deadline:
                break
            time.sleep(0.1)
        assert list_segments() == before

    def test_an_abandoned_directory_is_swept(self, segment_parent):
        # A prefixed directory nobody holds a lock on is what a killed
        # coordinator leaves behind.
        abandoned = tempfile.mkdtemp(prefix=shm.SEGMENT_PREFIX,
                                     dir=segment_parent)
        Path(abandoned, "seg-000001").write_bytes(b"x" * 64)
        assert os.path.basename(abandoned) in list_segments()
        ShmRegistry().close()
        assert not os.path.exists(abandoned)

    @pytest.mark.usefixtures("fallback_parent")
    def test_a_sweep_leaves_unprefixed_directories_alone(self):
        other = tempfile.mkdtemp(prefix="other")
        ShmRegistry().close()
        assert os.path.isdir(other)

    @pytest.mark.parametrize("kind", ["symlink", "file"])
    def test_a_sweep_removes_only_directories(self, kind, fallback_parent,
                                              tmp_path_factory):
        # A prefixed symlink is never followed: its target, which may be
        # anyone's directory, survives the sweep, and so does a plain file.
        target = tmp_path_factory.mktemp("target")
        (target / "keep").write_bytes(b"x")
        entry = Path(fallback_parent, shm.SEGMENT_PREFIX + kind)
        if kind == "symlink":
            entry.symlink_to(target, target_is_directory=True)
        else:
            entry.write_bytes(b"x")
        try:
            ShmRegistry().close()
            assert (target / "keep").is_file()
            assert os.path.lexists(entry)
        finally:
            entry.unlink()

    def test_a_sweep_leaves_an_open_registry_alone(self):
        cache = AttachmentCache()
        with ShmRegistry() as held:
            block = held.share_arrays({"ids": np.arange(8)})
            ShmRegistry().close()
            assert list_segments() == [os.path.basename(held.path)]
            np.testing.assert_array_equal(cache.view(block.specs["ids"]),
                                          np.arange(8))


class TestArraySharing:
    def test_share_arrays_packs_one_aligned_segment(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "c": np.array([], dtype=np.int32),
        }
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            block = registry.share_arrays(arrays)
            assert os.listdir(registry.path) == [
                os.path.basename(block.segment)]
            assert os.path.dirname(block.segment) == registry.path
            for key, original in arrays.items():
                spec = block.specs[key]
                assert spec.segment == block.segment
                assert spec.offset % 64 == 0
                view = cache.view(spec)
                np.testing.assert_array_equal(view, original)
                assert view.dtype == original.dtype
                assert not view.flags.writeable

    def test_empty_block_round_trips(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            block = registry.share_arrays(
                {"ids": np.array([], dtype=np.int64)})
            assert cache.view(block.specs["ids"]).size == 0

    def test_each_block_is_a_new_segment(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            first = registry.share_arrays({"ids": np.arange(3)})
            second = registry.share_arrays({"ids": np.arange(5)})
            assert first.segment != second.segment
            np.testing.assert_array_equal(cache.view(first.specs["ids"]),
                                          np.arange(3))
            np.testing.assert_array_equal(cache.view(second.specs["ids"]),
                                          np.arange(5))

    def test_segment_paths_are_absolute(self):
        with ShmRegistry() as registry:
            block = registry.share_arrays({"a": np.arange(3),
                                           "b": np.arange(4)})
            assert os.path.isabs(block.segment)
            assert os.path.dirname(block.segment) == registry.path
            assert {spec.segment for spec in block.specs.values()} == {
                block.segment}

    def test_segments_are_created_exclusively(self):
        # A segment file is never reused: writing into a name that already
        # exists would change an array a worker may be reading.
        with ShmRegistry() as registry:
            first = registry.share_arrays({"ids": np.arange(4)})
            registry._sequence -= 1
            with pytest.raises(FileExistsError):
                registry.share_arrays({"ids": np.arange(8)})
            np.testing.assert_array_equal(
                AttachmentCache().view(first.specs["ids"]), np.arange(4))

    def test_retain_keeps_the_named_mappings(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            kept = registry.share_arrays({"ids": np.arange(4)})
            dropped = registry.share_arrays({"ids": np.arange(6)})
            for block in (kept, dropped):
                cache.view(block.specs["ids"])
            cache.retain({kept.segment})
            assert set(cache._mappings) == {kept.segment}
            np.testing.assert_array_equal(cache.view(kept.specs["ids"]),
                                          np.arange(4))

    def test_worker_cache_is_process_wide(self):
        assert shm.attachment_cache() is shm.attachment_cache()

    def test_attaching_a_removed_segment_raises_engine_error(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            block = registry.share_arrays({"ids": np.arange(4)})
        with pytest.raises(EngineError, match="vanished"):
            cache.view(block.specs["ids"])


class TestGraphSharing:
    @pytest.mark.parametrize("source", ["in-ram", "container"])
    def test_host_graph_then_attach_round_trips(self, source, tmp_path,
                                                random_graph):
        """``share_graph`` and ``attach_graph`` are the whole graph-hosting
        seam: an in-RAM graph is saved into the run directory, a container
        graph ships its own path without a copy."""
        graph = parity_graph(random_graph)
        if source == "container":
            graph = load_graph_memmap(save_graph_memmap(graph,
                                                        tmp_path / "g"))
        with ShmRegistry() as registry:
            handle = share_graph(registry, graph)
            if source == "container":
                assert handle == graph.memmap_path
                assert os.listdir(registry.path) == []
            else:
                assert os.path.dirname(handle) == registry.path
            attached = attach_graph(handle, AttachmentCache())
            assert attached.num_vertices == graph.num_vertices
            assert attached.num_edges == graph.num_edges
            for name in CSR_ARRAY_NAMES:
                np.testing.assert_array_equal(attached.csr_arrays()[name],
                                              graph.csr_arrays()[name])
            del attached

    def test_attached_graph_matches_original(self, graph_source,
                                             random_graph):
        original = parity_graph(random_graph)
        graph = graph_source(original)
        with ShmRegistry() as registry:
            attached = attach_graph(share_graph(registry, graph))
            assert attached.memmap_path is not None
            for vertex in range(original.num_vertices):
                assert (attached.out_neighbors(vertex).tolist()
                        == original.out_neighbors(vertex).tolist())
                assert (attached.in_neighbors(vertex).tolist()
                        == original.in_neighbors(vertex).tolist())
            for array in attached.csr_arrays().values():
                assert not array.flags.writeable
            del attached

    def test_in_ram_graph_is_removed_with_the_run_directory(
            self, random_graph):
        registry = ShmRegistry()
        handle = share_graph(registry, parity_graph(random_graph))
        assert os.path.commonpath([handle, registry.path]) == registry.path
        registry.close()
        assert not os.path.exists(handle)

    def test_container_graph_outlives_the_registry(self, tmp_path,
                                                   random_graph):
        # The registry only removes what it created: a caller's container
        # is shipped by path and must survive the run.
        graph = load_graph_memmap(save_graph_memmap(
            parity_graph(random_graph), tmp_path / "g"))
        with ShmRegistry() as registry:
            handle = share_graph(registry, graph)
        assert os.path.isdir(handle)
        attached = attach_graph(handle)
        assert attached.num_edges == graph.num_edges
        del attached


# ----------------------------------------------------------------------
# End-to-end lifecycle through the parallel executor
# ----------------------------------------------------------------------
class TestRunLifecycle:
    def test_no_segments_after_successful_run(self, random_graph):
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            report = predictor.predict(graph, backend="gas", workers=2)
            assert report.extra.get("transport_bytes", 0.0) > 0.0
        # Closing the predictor releases the pool lease and its graph.
        assert_no_leaked_segments()

    @over_seeds
    @pytest.mark.usefixtures("fallback_parent")
    def test_fallback_parent_run_equals_reference(self, seed, graph_source,
                                                  random_graph):
        graph = parity_graph(random_graph)
        config = reseeded(parity_config(), seed)
        with SnapleLinkPredictor(config) as predictor:
            run = predictor.predict(graph_source(graph), backend="gas",
                                    workers=2)
            assert len(list_segments()) == 1  # the lease's run directory
        assert_matches_reference(run, scalar_reference(graph, config))
        assert list_segments() == []

    @pytest.mark.usefixtures("fallback_parent")
    def test_fallback_parent_cleaned_after_worker_crash(self, fault_injector,
                                                       random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        fault = fault_injector.kill_worker(1, partition=0)
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              max_restarts=0, fault=fault)
        predictor.close()
        assert list_segments() == []

    def test_container_backed_graph_runs_parallel(self, tmp_path,
                                                  random_graph):
        graph = parity_graph(random_graph)
        mapped = load_graph_memmap(save_graph_memmap(graph, tmp_path / "g"))
        with SnapleLinkPredictor(parity_config()) as predictor:
            run = predictor.predict(mapped, backend="gas", workers=2)
        assert_matches_reference(run, scalar_reference(graph,
                                                       parity_config()))

    def test_no_segments_after_worker_crash(self, fault_injector,
                                            graph_source, random_graph):
        graph = graph_source(parity_graph(random_graph))
        predictor = SnapleLinkPredictor(parity_config())
        fault = fault_injector.kill_worker(1, partition=0)
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              max_restarts=0, fault=fault)
        predictor.close()
        assert_no_leaked_segments()

    @pytest.mark.parametrize("superstep", range(3))
    def test_no_segments_after_crash_recovery(self, superstep,
                                              fault_injector, graph_source,
                                              random_graph):
        graph = graph_source(parity_graph(random_graph))
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


class TestCrossSourceRecovery:
    """A crash recovered with one graph input equals the other input's
    clean run: replay re-attaches whichever container the run hosted."""

    def _crash_with(self, crashed_source, clean_source, superstep,
                    fault_injector, random_graph, tmp_path):
        graph = parity_graph(random_graph)
        inputs = {
            "in-ram": graph,
            "container": load_graph_memmap(save_graph_memmap(
                graph, tmp_path / "g")),
        }
        with SnapleLinkPredictor(parity_config()) as predictor:
            baseline = predictor.predict(inputs[clean_source],
                                         backend="gas", workers=2)
        fault = fault_injector.kill_worker(superstep, partition=0)
        recovered = SnapleLinkPredictor(parity_config()).predict(
            inputs[crashed_source], backend="gas", workers=2, fault=fault)
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)
        assert_no_leaked_segments()

    @pytest.mark.parametrize("superstep", range(3))
    def test_crash_on_container_equals_in_ram_baseline(
            self, superstep, fault_injector, random_graph, tmp_path):
        self._crash_with("container", "in-ram", superstep, fault_injector,
                         random_graph, tmp_path)

    @pytest.mark.parametrize("superstep", range(3))
    def test_crash_on_in_ram_equals_container_baseline(
            self, superstep, fault_injector, random_graph, tmp_path):
        self._crash_with("in-ram", "container", superstep, fault_injector,
                         random_graph, tmp_path)


class TestTaskPayloads:
    """Only descriptors cross the process boundary: besides its row ids, a
    task carries the ``BlockHandle`` s of the phase outputs it reads."""

    @over_seeds
    def test_payloads_are_descriptors(self, seed, monkeypatch, graph_source,
                                      random_graph):
        shipped = []
        original = ParallelExecutor._map

        def recording_map(self, pool, fn, tasks):
            shipped.extend(tasks)
            return original(self, pool, fn, tasks)

        monkeypatch.setattr(ParallelExecutor, "_map", recording_map)
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(reseeded(parity_config(), seed)) as predictor:
            predictor.predict(graph_source(graph), backend="gas", workers=2)
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
