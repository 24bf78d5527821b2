"""Sharded serving plane: bit-exact parity with the single-process service.

The acceptance contract of the tentpole: for any shard count, at any point
in an edge stream (additions *and* removals, across compaction boundaries),
the sharded service's answers — predictions *and* scores — are bit-identical
to the threaded :class:`PredictorService` and to a cold batch ``predict``
over the merged graph.  Plus the operational plumbing around it: batching,
stage stats, crash handling, and shm hygiene.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    GraphError,
    ServingError,
    VertexNotFoundError,
)
from repro.graph.digraph import DiGraph
from repro.runtime.ooc import list_spool_dirs
from repro.runtime.partition import partition_vertices
from repro.serving import (
    PredictorService,
    ServingConfig,
    ShardedPredictorService,
    ShardMap,
)
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor

CONFIG = SnapleConfig.paper_default(seed=3, k_local=6)
SHARD_COUNTS = (1, 2, 4)
SERVING = ServingConfig(workers=2, compact_every=6)


def _stream(graph, count, seed):
    rng = np.random.default_rng(seed)
    edges, seen = [], set()
    while len(edges) < count:
        u = int(rng.integers(graph.num_vertices))
        v = int(rng.integers(graph.num_vertices))
        if u != v and (u, v) not in seen and not graph.has_edge(u, v):
            edges.append((u, v))
            seen.add((u, v))
    return edges


def _unique_base_edge(graph):
    """A base edge whose (u, v) pair occurs exactly once."""
    src, dst = graph.edge_arrays()
    pairs = list(zip(src.tolist(), dst.tolist()))
    counts: dict[tuple[int, int], int] = {}
    for pair in pairs:
        counts[pair] = counts.get(pair, 0) + 1
    for pair in pairs:
        if counts[pair] == 1:
            return pair
    raise AssertionError("graph has no multiplicity-1 edge")


def _merged(base, stream, removals):
    """base + stream − removals, as a plain graph (growth-aware)."""
    src, dst = base.edge_arrays()
    edges = list(zip(src.tolist(), dst.tolist())) + list(stream)
    for edge in removals:
        edges.remove(edge)
    num_vertices = max(base.num_vertices,
                       max(max(u, v) for u, v in edges) + 1)
    return DiGraph(num_vertices, [u for u, _ in edges],
                   [v for _, v in edges])


def _shm_entries():
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("snpl")}
    except FileNotFoundError:  # pragma: no cover - no /dev/shm
        return set()


@pytest.fixture(scope="module")
def grid(random_graph):
    """The same add+remove stream through every plane, plus the cold truth.

    The stream grows the vertex set (hash-fallback ownership) and crosses a
    compaction boundary (compact_every=6 < 11 streamed edges); the removals
    hit one overlay edge that compaction already folded into the base
    (tombstone path) and one original base edge.
    """
    base = random_graph(110, 3, 0.3, seed=21)
    stream = _stream(base, 10, seed=23)
    stream.append((5, base.num_vertices + 3))  # grows the vertex set
    removals = [stream[4], _unique_base_edge(base)]

    single = PredictorService(base, CONFIG, serving=SERVING).start()
    single_ingests = [single.ingest([edge]) for edge in stream]
    single_removal = single.remove(removals)

    sharded = {}
    for shards in SHARD_COUNTS:
        service = ShardedPredictorService(
            base, CONFIG, shards=shards, serving=SERVING,
        ).start()
        ingests = [service.ingest([edge]) for edge in stream]
        removal = service.remove(removals)
        sharded[shards] = (service, ingests, removal)

    merged = _merged(base, stream, removals)
    cold = SnapleLinkPredictor(CONFIG).predict(merged, backend="gas",
                                               workers=1)
    yield {
        "single": single,
        "single_ingests": single_ingests,
        "single_removal": single_removal,
        "sharded": sharded,
        "merged": merged,
        "cold": cold,
    }
    single.stop()
    for service, _, _ in sharded.values():
        service.close()


class TestParity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_single_service_and_cold_batch(self, grid, shards):
        service, _, _ = grid["sharded"][shards]
        single, merged, cold = grid["single"], grid["merged"], grid["cold"]
        for u in range(merged.num_vertices):
            answer = service.top_k(u)
            reference = single.top_k(u)
            assert answer.predicted == reference.predicted
            assert answer.scores == reference.scores
            assert answer.predicted == cold.predictions[u]
            assert answer.scores == [cold.scores[u][z]
                                     for z in answer.predicted]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_k_truncation(self, grid, shards):
        service, _, _ = grid["sharded"][shards]
        cold = grid["cold"]
        u = 5
        answer = service.top_k(u, k=2)
        assert answer.predicted == cold.predictions[u][:2]
        assert len(answer.scores) == len(answer.predicted) <= 2

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_update_results_match_single_plane(self, grid, shards):
        """Owned phase-3b slices are disjoint and covering, so the per-update
        rescored counts summed across shards equal the unsharded counts."""
        _, ingests, removal = grid["sharded"][shards]
        for sharded_result, single_result in zip(ingests,
                                                 grid["single_ingests"]):
            assert sharded_result.added == single_result.added
            assert sharded_result.rescored == single_result.rescored
        assert removal.removed == grid["single_removal"].removed
        assert removal.rescored == grid["single_removal"].rescored
        assert removal.requested == 2
        assert len(removal.removed) == 2

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_stream_crossed_a_compaction(self, grid, shards):
        service, ingests, _ = grid["sharded"][shards]
        assert any(result.compacted for result in ingests)
        assert service.stats().compactions >= 1


class TestOperations:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_stats_counters(self, grid, shards):
        service, ingests, _ = grid["sharded"][shards]
        stats = service.stats()
        assert stats.shards == shards
        assert stats.edges_ingested == sum(len(r.added) for r in ingests)
        assert stats.edges_removed == 2
        assert stats.updates_applied == len(ingests) + 1
        assert stats.requests_served > 0
        assert stats.batches_dispatched > 0
        assert stats.mean_batch_size >= 1.0
        assert stats.pending == 0

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_stage_stats_cover_the_pipeline(self, grid, shards):
        service, _, _ = grid["sharded"][shards]
        stages = service.stage_stats()
        assert set(stages) == {"dispatch", "shard_queue", "rescore", "reply"}
        # Per-shard recorders fold into one snapshot per stage.
        assert stages["shard_queue"]["servers"] == shards
        assert stages["rescore"]["servers"] == shards
        assert stages["dispatch"]["count"] > 0
        assert stages["shard_queue"]["count"] > 0
        assert stages["rescore"]["count"] > 0
        assert stages["reply"]["count"] > 0

    def test_burst_coalesces_into_batches(self, random_graph):
        """A submit burst must produce fewer dispatch flushes than requests
        (retried to keep the timing-dependent check deterministic)."""
        graph = random_graph(60, 3, 0.3, seed=31)
        with ShardedPredictorService(graph, CONFIG, shards=1,
                                     serving=SERVING,
                                     batch_max=16) as service:
            coalesced = False
            for _ in range(5):
                before = service.stats()
                futures = [service.submit_top_k(u % graph.num_vertices)
                           for u in range(256)]
                for future in futures:
                    future.result(timeout=60)
                after = service.stats()
                served = after.requests_served - before.requests_served
                batches = (after.batches_dispatched
                           - before.batches_dispatched)
                assert served == 256
                if batches < served:
                    coalesced = True
                    break
            assert coalesced, "no burst coalesced into multi-request batches"

    def test_validation_and_lifecycle_errors(self, random_graph):
        graph = random_graph(40, 3, 0.3, seed=33)
        with pytest.raises(ConfigurationError):
            ShardedPredictorService(graph, CONFIG, shards=0)
        with pytest.raises(ConfigurationError):
            ShardedPredictorService(graph, CONFIG, batch_max=0)
        service = ShardedPredictorService(graph, CONFIG, shards=1)
        with pytest.raises(ServingError):
            service.top_k(0)  # not started
        with service:
            with pytest.raises(VertexNotFoundError):
                service.top_k(graph.num_vertices + 5)
            with pytest.raises(GraphError):
                service.ingest([(0, -2)])
        with pytest.raises(ServingError):
            service.top_k(0)  # closed


class TestCrashSafety:
    def test_shard_crash_fails_pending_and_leaks_nothing(self, random_graph):
        graph = random_graph(60, 3, 0.3, seed=35)
        before = _shm_entries()
        service = ShardedPredictorService(graph, CONFIG, shards=2,
                                          serving=SERVING).start()
        try:
            assert service.top_k(0).vertex == 0
            # Simulate a SIGKILLed shard under live traffic.
            service._processes[0].kill()
            service._processes[0].join(timeout=10)
            with pytest.raises(ServingError):
                for u in range(graph.num_vertices):
                    service.top_k(u, timeout=30)
            with pytest.raises(ServingError):
                service.top_k(0)  # service is marked failed
        finally:
            service.close()
        assert _shm_entries() == before

    def test_clean_shutdown_leaks_nothing(self, random_graph):
        graph = random_graph(60, 3, 0.3, seed=37)
        before = _shm_entries()
        with ShardedPredictorService(graph, CONFIG, shards=2,
                                     serving=SERVING) as service:
            service.ingest([(0, 7)])
            service.top_k(0)
        assert _shm_entries() == before


class TestNoShmPlatform:
    def test_falls_back_to_spool_files(self, monkeypatch, tmp_path,
                                       random_graph):
        """Without shared memory the graph plane is a spool file, and the
        service still answers exactly like the threaded one."""
        monkeypatch.setattr("repro.runtime.ooc.shm_available", lambda: False)
        monkeypatch.delenv("SNAPLE_OOC", raising=False)
        monkeypatch.setenv("SNAPLE_OOC_DIR", str(tmp_path))
        graph = random_graph(60, 3, 0.3, seed=41)
        stream = _stream(graph, 3, seed=43)
        before = _shm_entries()
        with PredictorService(graph, CONFIG, serving=SERVING) as single, \
                ShardedPredictorService(graph, CONFIG, shards=2,
                                        serving=SERVING) as sharded:
            assert len(list_spool_dirs()) == 1
            assert _shm_entries() == before
            for edge in stream:
                single.ingest([edge])
                sharded.ingest([edge])
            for u in range(graph.num_vertices):
                answer, reference = sharded.top_k(u), single.top_k(u)
                assert answer.predicted == reference.predicted
                assert answer.scores == reference.scores
        assert _shm_entries() == before
        assert list_spool_dirs() == []


class TestShardMap:
    def test_base_range_matches_partitioner(self, random_graph):
        graph = random_graph(80, 3, 0.3, seed=39)
        partition = partition_vertices(graph, 4, seed=0)
        shard_map = ShardMap(num_shards=4, seed=0,
                             base_assignment=partition.vertex_machine)
        vertices = np.arange(graph.num_vertices)
        np.testing.assert_array_equal(shard_map.owners(vertices),
                                      partition.vertex_machine)

    def test_grown_vertices_use_consistent_hash(self, random_graph):
        graph = random_graph(80, 3, 0.3, seed=39)
        partition = partition_vertices(graph, 4, seed=0)
        shard_map = ShardMap(num_shards=4, seed=0,
                             base_assignment=partition.vertex_machine)
        grown = np.arange(graph.num_vertices, graph.num_vertices + 50)
        owners = shard_map.owners(grown)
        assert ((owners >= 0) & (owners < 4)).all()
        # Scalar and vector paths agree.
        assert [shard_map.owner(int(v)) for v in grown] == owners.tolist()

    def test_target_filters_partition_the_vertices(self, random_graph):
        graph = random_graph(80, 3, 0.3, seed=39)
        partition = partition_vertices(graph, 3, seed=0)
        shard_map = ShardMap(num_shards=3, seed=0,
                             base_assignment=partition.vertex_machine)
        universe = np.arange(graph.num_vertices + 20)
        owned = [shard_map.target_filter(s)(universe) for s in range(3)]
        assert sum(part.size for part in owned) == universe.size
        np.testing.assert_array_equal(
            np.sort(np.concatenate(owned)), universe
        )
