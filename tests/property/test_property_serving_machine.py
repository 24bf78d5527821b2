"""Hypothesis state machine: an index under any mix of updates stays exact.

Drives one :class:`IncrementalIndex` (and its :class:`GraphDelta`) through
random interleavings of ingests, removals of delta and of base edges,
compactions, vertex growth and reads of the merged CSR — no threads.
After every step the maintained predictions and scores must equal a cold
index on a plain :class:`DiGraph` of the merged edges, and the merged CSR
must equal that graph's CSR.  Reads of the CSR between mutations exercise
its stale-row patch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_cluster
from repro.serving import IncrementalIndex
from repro.snaple.config import SnapleConfig
from tests.conftest import examples

configs = st.builds(
    SnapleConfig.paper_default,
    st.sampled_from(["linearSum", "counter"]),
    k=st.integers(min_value=1, max_value=4),
    k_local=st.sampled_from([2, 4]),
    truncation_threshold=st.sampled_from([3.0, 200.0]),
    sampler_name=st.sampled_from(["max", "rnd"]),
    seed=st.integers(min_value=0, max_value=50),
)


class ServingMachine(RuleBasedStateMachine):
    """The model is the multiset of merged edges plus the vertex count."""

    @initialize(num_vertices=st.integers(min_value=20, max_value=60),
                edges_per_vertex=st.integers(min_value=2, max_value=3),
                seed=st.integers(min_value=0, max_value=200),
                config=configs)
    def build(self, num_vertices, edges_per_vertex, seed, config):
        graph = powerlaw_cluster(num_vertices, edges_per_vertex, 0.4,
                                 seed=seed)
        self.config = config
        self.index = IncrementalIndex(graph, config)
        self.num_vertices = graph.num_vertices
        src, dst = graph.edge_arrays()
        self.edges = list(zip(src.tolist(), dst.tolist()))

    # -- mutations ------------------------------------------------------
    @rule(data=st.data())
    def ingest(self, data):
        n = self.num_vertices
        batch = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1, max_size=3))
        update = self.index.apply_edges(batch)
        present = set(self.edges)
        expected = []
        for u, v in batch:
            if (u, v) not in present:
                present.add((u, v))
                expected.append((u, v))
        assert update.added == expected
        self.edges.extend(expected)

    @precondition(lambda self: self.index.graph.num_delta_edges > 0)
    @rule(data=st.data())
    def remove_delta_edge(self, data):
        edge = data.draw(st.sampled_from(self.index.graph.delta_edges()))
        self._remove(edge)

    @precondition(lambda self: self.index.graph.base.num_edges > 0)
    @rule(data=st.data())
    def remove_base_edge(self, data):
        src, dst = self.index.graph.base.edge_arrays()
        pick = data.draw(st.integers(0, src.size - 1))
        self._remove((int(src[pick]), int(dst[pick])))

    def _remove(self, edge):
        update = self.index.apply_removals([edge])
        if edge in self.edges:
            assert update.removed == [edge]
            self.edges.remove(edge)
        else:  # a base edge already tombstoned
            assert update.removed == []

    @rule()
    def compact(self):
        self.index.compact()
        assert self.index.graph.num_delta_edges == 0

    @rule(data=st.data(), extra=st.integers(min_value=1, max_value=3))
    def grow_vertex(self, data, extra):
        u = data.draw(st.integers(0, self.num_vertices - 1))
        v = self.num_vertices + extra - 1
        assert self.index.apply_edges([(u, v)]).added == [(u, v)]
        self.edges.append((u, v))
        self.num_vertices = v + 1

    @rule()
    def read_csr(self):
        self._assert_csr()

    # -- invariants -----------------------------------------------------
    def _merged(self) -> DiGraph:
        return DiGraph(self.num_vertices, [u for u, _ in self.edges],
                       [v for _, v in self.edges])

    def _assert_csr(self):
        indptr, indices = self.index.graph.csr_out_adjacency()
        expected_indptr, expected_indices = self._merged().csr_out_adjacency()
        np.testing.assert_array_equal(indptr, expected_indptr)
        np.testing.assert_array_equal(indices, expected_indices)

    @invariant()
    def equals_cold_index(self):
        assert self.index.num_vertices == self.num_vertices
        self._assert_csr()
        cold = IncrementalIndex(self._merged(), self.config)
        assert self.index.all_predictions() == cold.all_predictions()
        for u in range(self.num_vertices):
            assert (self.index.prediction_scores(u)
                    == cold.prediction_scores(u))
        assert self.index.scores_view() == cold.scores_view()


ServingMachine.TestCase.settings = settings(max_examples=examples(25),
                                           stateful_step_count=15)
TestServingMachine = ServingMachine.TestCase
