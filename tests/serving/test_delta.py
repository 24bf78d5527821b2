"""GraphDelta: the merged overlay must be indistinguishable from a rebuild."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.serving import GraphDelta


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


def _rebuild(delta: GraphDelta) -> DiGraph:
    src = [u for u, _ in delta.edges()]
    dst = [v for _, v in delta.edges()]
    return DiGraph(delta.num_vertices, src, dst)


class TestMergedView:
    def test_csr_matches_full_rebuild(self, random_graph):
        base = random_graph(120, 3, 0.4, seed=3)
        delta = GraphDelta(base)
        delta.add_edges(_absent_edges(base, 40, seed=5))
        indptr, indices = delta.csr_out_adjacency()
        want_indptr, want_indices = _rebuild(delta).csr_out_adjacency()
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)

    def test_csr_matches_compacted_self(self, random_graph):
        base = random_graph(120, 3, 0.4, seed=3)
        delta = GraphDelta(base)
        delta.add_edges(_absent_edges(base, 25, seed=6))
        indptr, indices = delta.csr_out_adjacency()
        compacted = delta.compact()
        assert delta.num_delta_edges == 0
        want_indptr, want_indices = compacted.csr_out_adjacency()
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)

    def test_neighbors_match_compacted(self, random_graph):
        base = random_graph(80, 3, 0.3, seed=9)
        delta = GraphDelta(base)
        delta.add_edges(_absent_edges(base, 30, seed=10))
        rebuilt = _rebuild(delta)
        for u in range(delta.num_vertices):
            np.testing.assert_array_equal(
                delta.out_neighbors(u), rebuilt.out_neighbors(u)
            )
            np.testing.assert_array_equal(
                np.sort(delta.in_neighbors(u)),
                np.sort(rebuilt.in_neighbors(u)),
            )
            assert delta.out_degree(u) == rebuilt.out_degree(u)
            assert delta.in_degree(u) == rebuilt.in_degree(u)

    def test_base_duplicate_edges_preserved(self):
        # The kernel's GAS fold walks raw adjacency, so base duplicates
        # must survive the merge even though ingest dedupes.
        base = DiGraph(3, [0, 0, 1], [1, 1, 2])
        delta = GraphDelta(base)
        assert delta.add_edge(0, 2)
        np.testing.assert_array_equal(delta.out_neighbors(0), [1, 1, 2])
        indptr, indices = delta.csr_out_adjacency()
        np.testing.assert_array_equal(indices[indptr[0]:indptr[1]], [1, 1, 2])


class TestIngest:
    def test_duplicate_edge_is_noop(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        assert not delta.add_edge(0, 1)  # base edge
        assert delta.add_edge(0, 2)
        assert not delta.add_edge(0, 2)  # delta edge
        assert delta.num_delta_edges == 1
        assert delta.num_edges == triangle_graph.num_edges + 1

    def test_add_edges_returns_only_added(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        added = delta.add_edges([(0, 1), (0, 2), (0, 2), (2, 1)])
        assert added == [(0, 2), (2, 1)]
        assert delta.delta_edges() == [(0, 2), (2, 1)]

    def test_growth(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        assert delta.add_edge(1, 6)
        assert delta.num_vertices == 7
        assert delta.has_edge(1, 6)
        np.testing.assert_array_equal(delta.out_neighbors(6), [])
        np.testing.assert_array_equal(delta.in_neighbors(6), [1])
        indptr, _ = delta.csr_out_adjacency()
        assert indptr.size == delta.num_vertices + 1

    def test_negative_endpoint_rejected(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        with pytest.raises(GraphError):
            delta.add_edge(-1, 2)
        with pytest.raises(GraphError):
            delta.add_edge(0, -3)

    def test_bad_batch_is_rejected_whole(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        before = delta.csr_out_adjacency()
        with pytest.raises(GraphError):
            delta.add_edges([(0, 2), (-1, 2)])
        with pytest.raises(GraphError):
            delta.remove_edges([(0, 1), (1, -2)])
        assert delta.num_delta_edges == 0
        assert delta.num_removed_edges == 0
        after = delta.csr_out_adjacency()
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_unknown_vertex_rejected_on_reads(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        with pytest.raises(VertexNotFoundError):
            delta.has_edge(0, 99)
        with pytest.raises(VertexNotFoundError):
            delta.out_neighbors(99)
        with pytest.raises(VertexNotFoundError):
            delta.in_neighbors(-1)


class TestCompaction:
    def test_compact_swaps_base_and_clears_delta(self, random_graph):
        base = random_graph(60, 3, 0.3, seed=2)
        delta = GraphDelta(base)
        stream = _absent_edges(base, 10, seed=4)
        delta.add_edges(stream)
        compacted = delta.compact()
        assert delta.base is compacted
        assert delta.num_delta_edges == 0
        assert compacted.num_edges == base.num_edges + len(stream)
        # Edge stream can continue after compaction.
        more = _absent_edges(compacted, 5, seed=8)
        assert delta.add_edges(more) == more
        assert delta.num_delta_edges == len(more)

    def test_compact_preserves_merged_view(self, random_graph):
        base = random_graph(60, 3, 0.3, seed=2)
        delta = GraphDelta(base)
        delta.add_edges(_absent_edges(base, 10, seed=4))
        before = delta.csr_out_adjacency()
        delta.compact()
        after = delta.csr_out_adjacency()
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])


class TestRemoval:
    def _unique_base_edge(self, graph):
        src, dst = graph.edge_arrays()
        pairs = list(zip(src.tolist(), dst.tolist()))
        counts: dict[tuple[int, int], int] = {}
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
        return next(pair for pair in pairs if counts[pair] == 1)

    def test_delta_edge_removed_physically(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        assert delta.add_edge(0, 2)
        assert delta.remove_edge(0, 2)
        assert delta.num_delta_edges == 0
        assert delta.num_removed_edges == 0
        assert not delta.has_edge(0, 2)
        assert delta.num_edges == triangle_graph.num_edges

    def test_base_edge_tombstoned(self, random_graph):
        base = random_graph(60, 3, 0.3, seed=2)
        u, v = self._unique_base_edge(base)
        delta = GraphDelta(base)
        assert delta.remove_edge(u, v)
        assert delta.num_removed_edges == 1
        assert not delta.has_edge(u, v)
        assert delta.num_edges == base.num_edges - 1
        assert v not in delta.out_neighbors(u).tolist()
        assert u not in delta.in_neighbors(v).tolist()
        assert delta.out_degree(u) == base.out_degree(u) - 1
        assert delta.in_degree(v) == base.in_degree(v) - 1
        # Removing an edge that no longer survives is a no-op.
        assert not delta.remove_edge(u, v)

    def test_merged_view_matches_rebuild_after_removals(self, random_graph):
        base = random_graph(80, 3, 0.3, seed=9)
        delta = GraphDelta(base)
        added = delta.add_edges(_absent_edges(base, 12, seed=10))
        removed = [added[3], self._unique_base_edge(base)]
        assert delta.remove_edges(removed) == removed
        rebuilt = _rebuild(delta)
        indptr, indices = delta.csr_out_adjacency()
        want_indptr, want_indices = rebuilt.csr_out_adjacency()
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)
        for u in range(delta.num_vertices):
            np.testing.assert_array_equal(delta.out_neighbors(u),
                                          rebuilt.out_neighbors(u))
            assert delta.in_degree(u) == rebuilt.in_degree(u)

    def test_duplicate_base_edge_removed_one_occurrence_at_a_time(self):
        base = DiGraph(3, [0, 0, 1], [1, 1, 2])
        delta = GraphDelta(base)
        assert delta.remove_edge(0, 1)
        assert delta.has_edge(0, 1)  # one copy survives
        np.testing.assert_array_equal(delta.out_neighbors(0), [1])
        assert delta.remove_edge(0, 1)
        assert not delta.has_edge(0, 1)
        assert not delta.remove_edge(0, 1)
        assert delta.num_edges == 1

    def test_readd_after_removal(self, random_graph):
        base = random_graph(60, 3, 0.3, seed=2)
        u, v = self._unique_base_edge(base)
        delta = GraphDelta(base)
        assert delta.remove_edge(u, v)
        assert delta.add_edge(u, v)
        assert delta.has_edge(u, v)
        assert delta.num_edges == base.num_edges

    def test_compact_folds_out_tombstones(self, random_graph):
        base = random_graph(80, 3, 0.3, seed=9)
        delta = GraphDelta(base)
        added = delta.add_edges(_absent_edges(base, 8, seed=10))
        removed = [added[0], self._unique_base_edge(base)]
        delta.remove_edges(removed)
        before = delta.csr_out_adjacency()
        compacted = delta.compact()
        assert delta.num_delta_edges == 0
        assert delta.num_removed_edges == 0
        for u, v in removed:
            assert not compacted.has_edge(u, v)
        after = compacted.csr_out_adjacency()
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_compact_drops_repeated_tombstones_of_a_duplicated_edge(self):
        base = DiGraph(4, [0, 2, 0, 1, 0, 3, 2],
                       [1, 3, 1, 2, 1, 0, 3])
        delta = GraphDelta(base)
        for edge in [(0, 1), (2, 3), (0, 1), (3, 0)]:
            assert delta.remove_edge(*edge)
        compacted = delta.compact()
        # One (0, 1) and one (2, 3) survive: the last occurrence of each.
        rebuilt = DiGraph(4, [1, 0, 2], [2, 1, 3])
        for got, want in zip(compacted.edge_arrays(), rebuilt.edge_arrays()):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(compacted.csr_out_adjacency(),
                             rebuilt.csr_out_adjacency()):
            np.testing.assert_array_equal(got, want)

    def test_invalid_removals(self, triangle_graph):
        delta = GraphDelta(triangle_graph)
        with pytest.raises(GraphError):
            delta.remove_edge(-1, 0)
        assert not delta.remove_edge(0, 99)  # out of range: nothing to do
        assert not delta.remove_edge(0, 2)  # absent edge
