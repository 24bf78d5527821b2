"""An add+remove stream through the threaded service, on 1, 2 or 4 workers.

The same edge stream — additions that grow the vertex set, a compaction
boundary, then removals of a folded overlay edge (tombstone path) and of an
original base edge — is fed to one service per worker count.  At the end
every answer, predictions *and* scores, is bit-identical to a cold batch
``predict`` over the merged graph, and the per-update accounting does not
depend on how many workers served the stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, ServingError, VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.serving import PredictorService, ServingConfig
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor

CONFIG = SnapleConfig.paper_default(seed=3, k_local=6)
WORKER_COUNTS = (1, 2, 4)


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


@pytest.fixture(scope="module")
def grid(random_graph):
    """One fed service per worker count, plus the cold truth.

    The stream grows the vertex set and crosses a compaction boundary
    (compact_every=6 < 11 streamed edges); the removals hit one overlay
    edge that compaction already folded into the base and one original
    base edge.
    """
    base = random_graph(110, 3, 0.3, seed=21)
    stream = _stream(base, 10, seed=23)
    stream.append((5, base.num_vertices + 3))  # grows the vertex set
    removals = [stream[4], _unique_base_edge(base)]

    services = {}
    for workers in WORKER_COUNTS:
        serving = ServingConfig(workers=workers, compact_every=6)
        service = PredictorService(base, CONFIG, serving=serving).start()
        ingests = [service.ingest([edge]) for edge in stream]
        removal = service.remove(removals)
        services[workers] = (service, ingests, removal)

    merged = _merged(base, stream, removals)
    cold = SnapleLinkPredictor(CONFIG).predict(merged, backend="gas",
                                               workers=1)
    yield {"services": services, "merged": merged, "cold": cold}
    for service, _, _ in services.values():
        service.stop()


class TestParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_top_k_matches_cold_batch(self, grid, workers):
        service, _, _ = grid["services"][workers]
        merged, cold = grid["merged"], grid["cold"]
        assert service.num_vertices == merged.num_vertices
        for u in range(merged.num_vertices):
            answer = service.top_k(u)
            assert answer.predicted == cold.predictions[u]
            assert answer.scores == [cold.scores[u][z]
                                     for z in answer.predicted]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_report_matches_cold_batch(self, grid, workers):
        service, _, _ = grid["services"][workers]
        merged, cold = grid["merged"], grid["cold"]
        served = service.report()
        assert served.predictions == cold.predictions
        for u in range(merged.num_vertices):
            assert served.scores[u] == dict(cold.scores[u])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_k_truncation(self, grid, workers):
        service, _, _ = grid["services"][workers]
        cold = grid["cold"]
        u = 5
        answer = service.top_k(u, k=2)
        assert answer.predicted == cold.predictions[u][:2]
        assert len(answer.scores) == len(answer.predicted) <= 2

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_update_results_do_not_depend_on_workers(self, grid, workers):
        _, ingests, removal = grid["services"][workers]
        _, reference_ingests, reference_removal = grid["services"][1]
        for result, reference in zip(ingests, reference_ingests):
            assert result.requested == 1
            assert len(result.added) == 1
            assert result.added == reference.added
            assert result.rescored == reference.rescored
        assert removal.removed == reference_removal.removed
        assert removal.rescored == reference_removal.rescored
        assert removal.requested == 2
        assert len(removal.removed) == 2
        assert removal.rescored > 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stream_crossed_a_compaction(self, grid, workers):
        service, ingests, removal = grid["services"][workers]
        assert any(result.compacted for result in ingests)
        # The removal's two tombstones lift the pending edits to the
        # cadence again, so it compacts too.
        assert removal.compacted
        assert service.stats().compactions == sum(
            result.compacted for result in ingests
        ) + removal.compacted


class TestOperations:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stats_counters(self, grid, workers):
        service, ingests, _ = grid["services"][workers]
        stats = service.stats()
        assert stats.workers == workers
        assert stats.edges_ingested == sum(len(r.added) for r in ingests)
        assert stats.requests_served > 0
        assert stats.dirty_vertices_rescored > 0
        assert stats.queue_depth == 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_stage_stats_cover_the_pipeline(self, grid, workers):
        service, ingests, _ = grid["services"][workers]
        stages = service.stage_stats()
        assert set(stages) == {"query", "ingest"}
        assert stages["query"]["count"] > 0
        # Each single-edge ingest plus the one removal batch.
        assert stages["ingest"]["count"] == len(ingests) + 1

    def test_validation_and_lifecycle_errors(self, random_graph):
        graph = random_graph(40, 3, 0.3, seed=33)
        service = PredictorService(graph, CONFIG,
                                   serving=ServingConfig(workers=2))
        with pytest.raises(ServingError):
            service.top_k(0)  # not started
        with service:
            before = service.top_k(0)
            with pytest.raises(VertexNotFoundError):
                service.top_k(graph.num_vertices + 5)
            with pytest.raises(GraphError):
                service.ingest([(0, -2)])
            # A rejected update leaves the service serving the same answers.
            after = service.top_k(0)
            assert (after.predicted, after.scores) == (before.predicted,
                                                       before.scores)
            assert service.stats().edges_ingested == 0
        with pytest.raises(ServingError):
            service.top_k(0)  # stopped
