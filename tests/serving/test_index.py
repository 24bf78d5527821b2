"""IncrementalIndex: dirty-region rescoring stays exact and bounded."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_cluster
from repro.serving import GraphDelta, IncrementalIndex
from repro.serving.service import PredictorService
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import custom_aggregator_config


def _absent_edges(graph, count, seed):
    rng = np.random.default_rng(seed)
    edges, seen = [], set()
    while len(edges) < count:
        u = int(rng.integers(graph.num_vertices))
        v = int(rng.integers(graph.num_vertices))
        if u != v and (u, v) not in seen and not graph.has_edge(u, v):
            edges.append((u, v))
            seen.add((u, v))
    return edges


def _final_graph(base: DiGraph, stream) -> DiGraph:
    src, dst = base.edge_arrays()
    return DiGraph(
        max(base.num_vertices, max((max(u, v) for u, v in stream),
                                   default=-1) + 1),
        np.concatenate([src, np.asarray([u for u, _ in stream])]),
        np.concatenate([dst, np.asarray([v for _, v in stream])]),
    )


def _assert_same_state(index: IncrementalIndex, other: IncrementalIndex):
    assert index.all_predictions() == other.all_predictions()
    for u in range(index.num_vertices):
        assert index.prediction_scores(u) == other.prediction_scores(u)
    assert index.scores_view() == other.scores_view()


@pytest.fixture(scope="module")
def config() -> SnapleConfig:
    return SnapleConfig.paper_default(seed=3, k_local=6)


class TestIncrementalEqualsCold:
    def test_one_edge_at_a_time(self, random_graph, config):
        base = random_graph(90, 3, 0.3, seed=7)
        stream = _absent_edges(base, 12, seed=1)
        index = IncrementalIndex(base, config)
        for edge in stream:
            index.apply_edges([edge])
        _assert_same_state(index, IncrementalIndex(_final_graph(base, stream),
                                                   config))

    def test_batched_with_compaction(self, random_graph, config):
        base = random_graph(90, 3, 0.3, seed=7)
        stream = _absent_edges(base, 12, seed=2)
        index = IncrementalIndex(base, config)
        index.apply_edges(stream[:5])
        index.compact()
        assert index.graph.num_delta_edges == 0
        index.apply_edges(stream[5:])
        _assert_same_state(index, IncrementalIndex(_final_graph(base, stream),
                                                   config))

    def test_truncating_config(self, random_graph):
        config = SnapleConfig.paper_default(seed=5, k=4, k_local=3,
                                            truncation_threshold=4)
        base = random_graph(90, 3, 0.3, seed=7)
        stream = _absent_edges(base, 8, seed=3)
        index = IncrementalIndex(base, config)
        for edge in stream:
            index.apply_edges([edge])
        _assert_same_state(index, IncrementalIndex(_final_graph(base, stream),
                                                   config))

    def test_without_pair_cache(self, random_graph, config):
        base = random_graph(60, 3, 0.3, seed=8)
        stream = _absent_edges(base, 6, seed=4)
        cached = IncrementalIndex(base, config)
        uncached = IncrementalIndex(GraphDelta(base), config,
                                    use_pair_cache=False)
        assert uncached.pair_cache is None
        for edge in stream:
            cached.apply_edges([edge])
            uncached.apply_edges([edge])
        _assert_same_state(cached, uncached)


class TestCustomFold:
    """An aggregator outside the kernel ranks through ``fold_paths``."""

    def test_cold_index_equals_parallel_run_and_survives_an_update(
            self, random_graph):
        config = custom_aggregator_config()
        base = random_graph(90, 3, 0.3, seed=7)
        with SnapleLinkPredictor(config) as predictor:
            parallel = predictor.predict(base, backend="gas", workers=2)
        index = IncrementalIndex(base, config)
        assert index.all_predictions() == parallel.predictions
        for u in range(base.num_vertices):
            assert index.scores(u) == dict(parallel.scores[u])
            assert index.prediction_scores(u) == [
                parallel.scores[u][z] for z in parallel.predictions[u]]
        stream = _absent_edges(base, 1, seed=4)
        index.apply_edges(stream)
        _assert_same_state(index, IncrementalIndex(_final_graph(base, stream),
                                                   config))

    def test_service_serves_a_custom_aggregator(self, random_graph):
        config = custom_aggregator_config()
        base = random_graph(90, 3, 0.3, seed=7)
        expected = IncrementalIndex(base, config).predictions(5)
        with PredictorService(base, config) as service:
            assert service.top_k(5).predicted == expected


class TestDirtyTracking:
    def test_rescored_covers_sources(self, random_graph, config):
        base = random_graph(90, 3, 0.3, seed=7)
        index = IncrementalIndex(base, config)
        (u, v), = _absent_edges(base, 1, seed=5)
        update = index.apply_edges([(u, v)])
        assert update.added == [(u, v)]
        assert u in update.gamma_dirty.tolist()
        rescored = set(update.rescored.tolist())
        assert set(update.gamma_dirty.tolist()) <= rescored
        # The dirty closure stays a region, not the whole graph.
        assert update.num_rescored < index.num_vertices
        assert index.rescored_total == update.num_rescored

    def test_duplicate_only_batch_is_noop(self, random_graph, config):
        base = random_graph(60, 3, 0.3, seed=8)
        index = IncrementalIndex(base, config)
        before = index.all_predictions()
        src, dst = base.edge_arrays()
        update = index.apply_edges([(int(src[0]), int(dst[0]))])
        assert update.added == []
        assert update.num_rescored == 0
        assert index.all_predictions() == before

    def test_growth_and_bad_vertex(self, random_graph, config):
        base = random_graph(60, 3, 0.3, seed=8)
        index = IncrementalIndex(base, config)
        with pytest.raises(VertexNotFoundError):
            index.predictions(base.num_vertices)
        index.apply_edges([(0, base.num_vertices + 2)])
        assert index.num_vertices == base.num_vertices + 3
        assert index.predictions(base.num_vertices + 2) == []


def _final_graph_after_removals(base, stream, removals):
    src, dst = base.edge_arrays()
    edges = list(zip(src.tolist(), dst.tolist())) + list(stream)
    for edge in removals:
        edges.remove(edge)
    num_vertices = max(
        base.num_vertices, max(max(u, v) for u, v in edges) + 1
    )
    return DiGraph(num_vertices, [u for u, _ in edges],
                   [v for _, v in edges])


class TestRemovals:
    def test_removal_rescoring_equals_cold(self, random_graph, config):
        """Dirty-region parity for deletions: the incrementally maintained
        index after remove == a cold index on the post-removal graph."""
        base = random_graph(90, 3, 0.3, seed=7)
        stream = _absent_edges(base, 10, seed=1)
        index = IncrementalIndex(base, config)
        index.apply_edges(stream)
        src, dst = base.edge_arrays()
        removals = [stream[2], (int(src[0]), int(dst[0]))]
        update = index.apply_removals(removals)
        assert update.removed == removals
        assert update.num_rescored > 0
        cold = IncrementalIndex(
            _final_graph_after_removals(base, stream, removals), config
        )
        _assert_same_state(index, cold)

    def test_removal_across_compaction(self, random_graph, config):
        base = random_graph(90, 3, 0.3, seed=7)
        stream = _absent_edges(base, 8, seed=2)
        index = IncrementalIndex(base, config)
        index.apply_edges(stream)
        index.compact()
        # The streamed edges are base edges now: tombstone path.
        removals = [stream[1], stream[5]]
        index.apply_removals(removals)
        index.compact()
        cold = IncrementalIndex(
            _final_graph_after_removals(base, stream, removals), config
        )
        _assert_same_state(index, cold)

    def test_absent_removal_is_noop(self, random_graph, config):
        base = random_graph(60, 3, 0.3, seed=8)
        index = IncrementalIndex(base, config)
        before = index.all_predictions()
        (absent,) = _absent_edges(base, 1, seed=9)
        update = index.apply_removals([absent])
        assert update.removed == []
        assert update.num_rescored == 0
        assert index.all_predictions() == before

    def test_removal_dirty_closure_covers_sources(self, random_graph,
                                                  config):
        base = random_graph(90, 3, 0.3, seed=7)
        index = IncrementalIndex(base, config)
        src, dst = base.edge_arrays()
        u, v = int(src[4]), int(dst[4])
        update = index.apply_removals([(u, v)])
        assert u in update.gamma_dirty.tolist()
        assert set(update.gamma_dirty.tolist()) <= set(
            update.rescored.tolist()
        )
        assert update.num_rescored < index.num_vertices


class TestPairCache:
    def test_hits_accumulate_and_invalidate(self, random_graph, config):
        base = random_graph(90, 3, 0.3, seed=7)
        index = IncrementalIndex(base, config)
        cache = index.pair_cache
        assert cache.misses > 0 and cache.hits == 0  # cold build
        cold_misses = cache.misses
        (edge,) = _absent_edges(base, 1, seed=6)
        index.apply_edges([edge])
        # The rescored region re-reads mostly unchanged pairs.
        assert cache.hits > 0
        assert cache.invalidated > 0
        assert cache.misses - cold_misses < cold_misses

    def test_scores_view_matches_scores(self, random_graph, config):
        base = random_graph(60, 3, 0.3, seed=8)
        index = IncrementalIndex(base, config)
        view = index.scores_view()
        assert len(view) == index.num_vertices
        assert view[3] == index.scores(3)
        with pytest.raises(KeyError):
            view[index.num_vertices]


def _assert_top_k_reads_its_score_row(index: IncrementalIndex):
    for u in range(index.num_vertices):
        row = index.scores(u)
        assert index.prediction_scores(u) == [
            row[v] for v in index.predictions(u)
        ]


class TestIndexMemory:
    def test_index_keeps_no_candidate_rows(self):
        """The index retains its top-k rows, not every candidate's score."""
        graph = powerlaw_cluster(2000, 5, 0.5, seed=1)
        config = SnapleConfig.paper_default(seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = IncrementalIndex(graph, config, use_pair_cache=False)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        candidates = sum(len(row) for row in index.scores_view().values())
        assert retained <= 0.5 * 16 * candidates

    def test_top_k_scores_match_score_rows_across_updates(self, random_graph,
                                                          config):
        base = random_graph(90, 3, 0.3, seed=7)
        stream = _absent_edges(base, 10, seed=5)
        stream.insert(4, (3, base.num_vertices + 2))  # grows the vertex set
        index = IncrementalIndex(base, config)
        _assert_top_k_reads_its_score_row(index)
        index.apply_edges(stream[:6])
        index.compact()
        _assert_top_k_reads_its_score_row(index)
        for edge in stream[6:]:
            index.apply_edges([edge])
        assert index.num_vertices == base.num_vertices + 3
        _assert_top_k_reads_its_score_row(index)
