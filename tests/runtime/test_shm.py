"""Lifecycle and parity tests for the segment plane.

The segment plane (:mod:`repro.runtime.shm`) maps the CSR graph and the
columnar state columns into ``multiprocessing.shared_memory`` segments — or
spool files (:mod:`repro.runtime.ooc`) — so parallel supersteps exchange
descriptors, never arrays.  Two guarantees are pinned here:

* **lifecycle** — every segment the coordinator creates is unlinked again,
  whether the run succeeds, a worker crashes, or the run resumes from a
  checkpoint; ``list_segments()`` doubles as the CI leak check;
* **parity** — predictions and scores equal the serial scalar reference,
  and deterministic accounting is identical, on both planes (shm, spool)
  and across worker counts and partitioners, for kernel-supported and
  custom-callable configurations alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EngineError, WorkerCrashError
from repro.graph.digraph import CSR_ARRAY_NAMES, DiGraph
from repro.runtime.ooc import MemmapGraphHandle, MemmapRegistry, list_spool_dirs
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.shm import (
    AttachmentCache,
    ShmColumnAllocator,
    ShmGraphHandle,
    ShmRegistry,
    ShmSliceHandle,
    attach_graph,
    list_segments,
    share_graph,
    shm_available,
    state_slice_handle,
)
from repro.runtime.state import (
    FieldKind,
    StateField,
    StateSchema,
    StateSlice,
    StateStore,
)
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    PARTITIONERS,
    assert_matches_reference,
    partitioner_option,
    scalar_reference,
    unsupported_kernel_config,
)

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
# Shm-backed StateStore columns and slice handles
# ----------------------------------------------------------------------
def _parity_schema() -> StateSchema:
    return StateSchema([
        StateField("gamma", FieldKind.INT_LIST),
        StateField("sims", FieldKind.INT_FLOAT_MAP),
    ])


def _fill_store(store: StateStore, seed: int = 5) -> None:
    rng = np.random.default_rng(seed)
    for vertex in range(store.num_vertices):
        size = int(rng.integers(0, 9))
        ids = np.sort(rng.choice(200, size=size, replace=False))
        store.set_rows("gamma", np.array([vertex]), np.array([size]),
                       ids.astype(np.int64))
        store.set_rows("sims", np.array([vertex]), np.array([size]),
                       ids.astype(np.int64), rng.random(size))


class TestShmStateStore:
    def _store(self, registry: ShmRegistry) -> StateStore:
        return StateStore(40, _parity_schema(),
                          allocator=ShmColumnAllocator(registry))

    def test_slice_handle_materializes_like_extract(self):
        cache = AttachmentCache()
        with ShmRegistry() as registry:
            store = self._store(registry)
            _fill_store(store)
            rows = np.array([3, 7, 11, 29], dtype=np.int64)
            expected = store.extract(rows, ("gamma", "sims"))
            handle = state_slice_handle(store, rows, ("gamma", "sims"))
            actual = handle.materialize(cache)
            np.testing.assert_array_equal(actual.rows, expected.rows)
            for name in ("gamma", "sims"):
                exp_counts, exp_ids, exp_vals, exp_present = \
                    expected.ragged[name]
                act_counts, act_ids, act_vals, act_present = \
                    actual.ragged[name]
                np.testing.assert_array_equal(act_counts, exp_counts)
                np.testing.assert_array_equal(act_present, exp_present)
                np.testing.assert_array_equal(act_ids, exp_ids)
                if exp_vals is None:
                    assert act_vals is None
                else:
                    np.testing.assert_array_equal(act_vals, exp_vals)
            # Descriptors travel, not arrays: the transport payload is just
            # the row-index vector.
            assert handle.transport_nbytes() == rows.nbytes
            cache.retain(set())
            del store

    def test_snapshot_copies_out_of_shared_memory(self):
        registry = ShmRegistry()
        store = self._store(registry)
        _fill_store(store)
        snapshot = store.snapshot()
        column = store._column("sims")
        _counts, snap_ids, snap_vals, _present = snapshot.ragged["sims"]
        assert not np.shares_memory(snap_ids, column._ids)
        assert not np.shares_memory(snap_vals, column._vals)
        before = tuple(array.copy() if array is not None else None
                       for array in store.field_csr("sims"))
        registry.close()
        # The snapshot (what checkpoints persist) survives the unlink.
        restored = StateStore(40, _parity_schema())
        restored.merge(snapshot)
        after = restored.field_csr("sims")
        for expected, actual in zip(before, after):
            np.testing.assert_array_equal(actual, expected)

    def test_growth_migrates_buffers_without_leaking(self):
        with ShmRegistry() as registry:
            store = self._store(registry)
            rng = np.random.default_rng(9)
            # Repeated writes force _reserve/_maybe_compact to reallocate
            # buffers many times over; every stale segment must be released.
            for _ in range(6):
                for vertex in range(40):
                    size = int(rng.integers(1, 40))
                    ids = np.sort(rng.choice(500, size=size, replace=False))
                    store.set_rows("sims", np.array([vertex]),
                                   np.array([size]), ids.astype(np.int64),
                                   rng.random(size))
            # Only the registry's live segments remain in /dev/shm.
            assert set(list_segments()) == set(registry._segments)
            del store
        assert_no_leaked_segments()

    def test_slice_handle_refuses_scalar_fields(self):
        # Only ragged fields ship by descriptor: no schema the executor
        # runs has a scalar field, so a scalar request is an error.
        schema = StateSchema([
            StateField("gamma", FieldKind.INT_LIST),
            StateField("rank", FieldKind.SCALAR),
        ])
        with ShmRegistry() as registry:
            store = StateStore(8, schema,
                               allocator=ShmColumnAllocator(registry))
            handle = state_slice_handle(store, np.arange(4), ("gamma",))
            assert set(handle.ragged) == {"gamma"}
            with pytest.raises(EngineError, match="'rank'"):
                state_slice_handle(store, np.arange(4), ("rank",))
            del store


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

    def test_no_segments_after_crash_recovery(self, fault_injector, tmp_path,
                                              random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        baseline = predictor.predict(graph, backend="gas", workers=2)
        fault = fault_injector.kill_worker(1, partition=1)
        recovered = predictor.predict(
            graph, backend="gas", workers=2,
            checkpoint_dir=tmp_path / "ckpt", fault=fault,
        )
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        predictor.close()
        assert_no_leaked_segments()

    def test_no_segments_after_checkpoint_resume(self, fault_injector,
                                                 tmp_path, random_graph):
        graph = parity_graph(random_graph)
        predictor = SnapleLinkPredictor(parity_config())
        baseline = predictor.predict(graph, backend="gas", workers=2)
        checkpoint_dir = tmp_path / "ckpt"
        fault = fault_injector.kill_worker(2, partition=0)
        with pytest.raises(WorkerCrashError):
            predictor.predict(graph, backend="gas", workers=2,
                              checkpoint_dir=checkpoint_dir,
                              max_restarts=0, fault=fault)
        predictor.close()
        assert_no_leaked_segments()
        resumed = predictor.predict(graph, backend="gas", workers=2,
                                    resume_from=checkpoint_dir)
        assert resumed.predictions == baseline.predictions
        assert dict(resumed.scores) == dict(baseline.scores)
        predictor.close()
        assert_no_leaked_segments()


# ----------------------------------------------------------------------
# Plane parity grid
# ----------------------------------------------------------------------
@pytest.fixture(params=["shm", "spool"])
def transport(request, monkeypatch, tmp_path):
    """Columnar state on shared-memory segments or spool files."""
    monkeypatch.setenv("SNAPLE_OOC_DIR", str(tmp_path))
    if request.param == "spool":
        monkeypatch.setenv("SNAPLE_OOC", "1")
    else:
        monkeypatch.delenv("SNAPLE_OOC", raising=False)
    yield request.param
    assert list_spool_dirs() == []


#: A configuration the vectorized kernel runs, and a custom callable whose
#: GAS workers run the scalar step programs over the same shipped columns.
GRID_CONFIGS = {
    "paper": parity_config,
    "custom": unsupported_kernel_config,
}


class TestTransportParityGrid:
    """{paper, custom} × {shm, spool} × {random, greedy cut} × {1, 4 workers}
    == scalar reference."""

    _references: dict[str, tuple] = {}
    _accounting: dict[tuple[str, str, int], list] = {}

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("config_name", sorted(GRID_CONFIGS))
    def test_grid_cell_matches_reference(self, config_name, partitioner,
                                         workers, transport, random_graph):
        graph = parity_graph(random_graph)
        config = GRID_CONFIGS[config_name]()
        if config_name not in self._references:
            self._references[config_name] = scalar_reference(graph, config)
        with SnapleLinkPredictor(config) as predictor:
            run = predictor.predict(graph, backend="gas", workers=workers,
                                    **partitioner_option(partitioner))
        assert_matches_reference(run, self._references[config_name])
        # Deterministic accounting, shipped boundary bytes included, is
        # plane-independent, and both planes ship the same descriptors:
        # they must agree exactly.
        accounting = [
            (p.gather_invocations, p.apply_invocations, p.shipped_bytes)
            for p in run.partition_reports
        ] + [run.extra["transport_bytes"]]
        expected = self._accounting.setdefault(
            (config_name, partitioner, workers), accounting)
        assert accounting == expected
        assert run.extra["shm_enabled"] == float(transport == "shm")
        assert run.extra["ooc_enabled"] == float(transport == "spool")
        assert_no_leaked_segments()


def _assert_descriptor(payload) -> None:
    if isinstance(payload, tuple):
        for part in payload:
            _assert_descriptor(part)
    else:
        assert payload is None or isinstance(payload, ShmSliceHandle), \
            type(payload)


class TestTaskPayloads:
    """Only descriptors cross the process boundary: every task's state
    payload is ``None``, a ``ShmSliceHandle`` or a tuple of these, on
    either plane."""

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_payloads_are_descriptors(self, partitioner, transport,
                                      monkeypatch, random_graph):
        shipped = []
        original = ParallelExecutor._map

        def recording_map(self, pool, fn, tasks):
            shipped.extend(tasks)
            return original(self, pool, fn, tasks)

        monkeypatch.setattr(ParallelExecutor, "_map", recording_map)
        graph = parity_graph(random_graph)
        with SnapleLinkPredictor(parity_config()) as predictor:
            predictor.predict(graph, backend="gas", workers=2,
                              **partitioner_option(partitioner))
        assert shipped
        seen = set()
        for task in shipped:
            # A task is ``(partition, step, owned vertices, state payload)``.
            payload = task[3]
            _assert_descriptor(payload)
            parts = payload if isinstance(payload, tuple) else (payload,)
            seen.update(type(part) for part in parts)
            for part in task:
                assert not isinstance(part, (StateSlice, DiGraph))
        assert ShmSliceHandle in seen
        assert_no_leaked_segments()
