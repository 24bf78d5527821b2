"""Hypothesis property tests for the GAS engine and predictor invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gas.cluster import TYPE_I, cluster_of
from repro.gas.engine import GasEngine
from repro.runtime.partition import partition_graph
from repro.gas.vertex_program import VertexProgram
from repro.graph.generators import powerlaw_cluster
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


class _DegreeProgram(VertexProgram):
    name = "degree"

    def gather(self, u, v, u_data, v_data):
        return 1

    def sum(self, left, right):
        return left + right

    def apply(self, u, u_data, gathered):
        u_data["degree"] = gathered if gathered is not None else 0


graphs = st.builds(
    powerlaw_cluster,
    st.integers(min_value=20, max_value=80),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=1000),
)


class TestPartitionProperties:
    @given(graphs, st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_partition_covers_all_edges_and_vertices(self, graph, machines, seed):
        partition = partition_graph(graph, machines, seed=seed)
        assert partition.num_edges == graph.num_edges
        assert partition.num_vertices == graph.num_vertices
        assert partition.edges_per_machine().sum() == graph.num_edges
        for vertex in graph.vertices():
            assert int(partition.vertex_master[vertex]) in partition.machines_of(vertex)

    @given(graphs, st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_replication_factor_bounded_by_machines(self, graph, machines, seed):
        partition = partition_graph(graph, machines, seed=seed)
        assert 1.0 <= partition.replication_factor() <= machines


class TestEngineProperties:
    @given(graphs, st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_engine_results_independent_of_machine_count(self, graph, machines):
        single = GasEngine(graph=graph, cluster=cluster_of(TYPE_I, 1))
        multi = GasEngine(graph=graph, cluster=cluster_of(TYPE_I, machines))
        result_single = single.run([_DegreeProgram()])
        result_multi = multi.run([_DegreeProgram()])
        for vertex in graph.vertices():
            assert (
                result_single.data_of(vertex)["degree"]
                == result_multi.data_of(vertex)["degree"]
                == graph.out_degree(vertex)
            )

    @given(graphs)
    @settings(max_examples=20, deadline=None)
    def test_gather_invocations_match_edge_count(self, graph):
        engine = GasEngine(graph=graph)
        result = engine.run([_DegreeProgram()])
        assert result.metrics.steps[0].gather_invocations == graph.num_edges


class TestPredictorProperties:
    @given(graphs, st.integers(min_value=1, max_value=8),
           st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_predictions_are_valid_new_edges(self, graph, k, k_local):
        config = SnapleConfig(k=k, k_local=k_local)
        result = SnapleLinkPredictor(config).predict(graph)
        for u, targets in result.predictions.items():
            assert len(targets) <= k
            assert len(set(targets)) == len(targets)
            direct = graph.neighbor_set(u)
            for z in targets:
                assert z != u
                assert z not in direct
                assert 0 <= z < graph.num_vertices

    @given(graphs, st.integers(min_value=2, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_predicted_candidates_lie_in_two_hop_neighborhood(self, graph, k_local):
        config = SnapleConfig(k_local=k_local)
        result = SnapleLinkPredictor(config).predict(graph)
        for u, targets in result.predictions.items():
            two_hop = graph.two_hop_neighbors(u)
            assert set(targets) <= two_hop
