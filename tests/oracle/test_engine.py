"""Unit tests for the oracle's synchronous GAS engine."""

from __future__ import annotations

import pytest

from repro.errors import EngineError, ResourceExhaustedError
from repro.gas.cluster import TYPE_I, TYPE_II, ClusterConfig, cluster_of
from tests.oracle.engine import GasEngine, VertexProgram


class DegreeCountProgram(VertexProgram):
    """Counts out-neighbors; the simplest non-trivial GAS step."""

    name = "degree-count"

    def gather(self, u, v, u_data, v_data):
        return 1

    def sum(self, left, right):
        return left + right

    def apply(self, u, u_data, gathered):
        u_data["degree"] = gathered if gathered is not None else 0


class NeighborIdProgram(VertexProgram):
    """Collects neighbor ids (mirrors SNAPLE's step 1)."""

    name = "neighbor-ids"

    def gather(self, u, v, u_data, v_data):
        return [v]

    def sum(self, left, right):
        return left + right

    def apply(self, u, u_data, gathered):
        u_data["neighbors"] = sorted(gathered or [])


class TestEngineCorrectness:
    def test_degree_count_matches_graph(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph)
        result = engine.run([DegreeCountProgram()])
        for vertex in small_social_graph.vertices():
            assert result.data_of(vertex)["degree"] == small_social_graph.out_degree(vertex)

    def test_results_identical_across_cluster_sizes(self, small_social_graph):
        single = GasEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 1))
        distributed = GasEngine(graph=small_social_graph, cluster=cluster_of(TYPE_I, 8))
        result_single = single.run([NeighborIdProgram()])
        result_distributed = distributed.run([NeighborIdProgram()])
        for vertex in small_social_graph.vertices():
            assert (
                result_single.data_of(vertex)["neighbors"]
                == result_distributed.data_of(vertex)["neighbors"]
            )

    def test_restricted_vertex_set(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph)
        result = engine.run([DegreeCountProgram()], vertices=[0, 1, 2])
        assert "degree" in result.data_of(0)
        assert "degree" not in result.data_of(10)

    def test_restriction_applies_to_the_last_step_only(self,
                                                       small_social_graph):
        class SumNeighborDegrees(VertexProgram):
            name = "sum-neighbor-degrees"

            def gather(self, u, v, u_data, v_data):
                return v_data["degree"]

            def sum(self, left, right):
                return left + right

            def apply(self, u, u_data, gathered):
                u_data["neighbor_degrees"] = gathered or 0

        graph = small_social_graph
        full = GasEngine(graph=graph).run(
            [DegreeCountProgram(), SumNeighborDegrees()])
        restricted = GasEngine(graph=graph).run(
            [DegreeCountProgram(), SumNeighborDegrees()], vertices=[0, 1])
        assert all("degree" in data for data in restricted.vertex_data)
        assert [u for u, data in enumerate(restricted.vertex_data)
                if "neighbor_degrees" in data] == [0, 1]
        for u in (0, 1):
            assert restricted.data_of(u) == full.data_of(u)

    def test_empty_step_list_rejected(self, triangle_graph):
        with pytest.raises(EngineError):
            GasEngine(graph=triangle_graph).run([])

    def test_sequential_steps_share_vertex_data(self, triangle_graph):
        class ReadPrevious(VertexProgram):
            name = "read-previous"

            def gather(self, u, v, u_data, v_data):
                return v_data.get("degree", 0)

            def sum(self, left, right):
                return left + right

            def apply(self, u, u_data, gathered):
                u_data["neighbor_degree_sum"] = gathered or 0

        engine = GasEngine(graph=triangle_graph)
        result = engine.run([DegreeCountProgram(), ReadPrevious()])
        assert result.data_of(0)["neighbor_degree_sum"] == 1


class TestEngineAccounting:
    def test_gather_invocations_equal_edges(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph)
        result = engine.run([DegreeCountProgram()])
        step = result.metrics.steps[0]
        assert step.gather_invocations == small_social_graph.num_edges

    def test_single_machine_has_no_network_traffic(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 1))
        result = engine.run([NeighborIdProgram()])
        assert result.metrics.total_network_bytes == 0

    def test_distributed_run_has_network_traffic(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph, cluster=cluster_of(TYPE_I, 8))
        result = engine.run([NeighborIdProgram()])
        assert result.metrics.total_network_bytes > 0

    def test_more_machines_not_slower_in_compute(self, medium_social_graph):
        few = GasEngine(graph=medium_social_graph, cluster=cluster_of(TYPE_I, 2))
        many = GasEngine(graph=medium_social_graph, cluster=cluster_of(TYPE_I, 16))
        cost_few = max(few.run([DegreeCountProgram()]).metrics.steps[0]
                       .compute_units_per_machine)
        cost_many = max(many.run([DegreeCountProgram()]).metrics.steps[0]
                        .compute_units_per_machine)
        assert cost_many <= cost_few

    def test_simulated_time_positive(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph, cluster=cluster_of(TYPE_I, 4))
        result = engine.run([NeighborIdProgram()])
        assert result.simulated_seconds > 0
        assert result.wall_clock_seconds > 0

    def test_peak_memory_recorded(self, small_social_graph):
        engine = GasEngine(graph=small_social_graph)
        result = engine.run([NeighborIdProgram()])
        assert result.metrics.peak_machine_memory_bytes > 0

    def test_metrics_describe_mentions_steps(self, triangle_graph):
        engine = GasEngine(graph=triangle_graph)
        result = engine.run([DegreeCountProgram()])
        assert "degree-count" in result.metrics.describe()


class TestMemoryEnforcement:
    def test_tiny_capacity_triggers_resource_exhaustion(self, medium_social_graph):
        tiny = ClusterConfig(machine=TYPE_I, num_machines=2, memory_scale=1e-9)
        engine = GasEngine(graph=medium_social_graph, cluster=tiny, enforce_memory=True)
        with pytest.raises(ResourceExhaustedError) as excinfo:
            engine.run([NeighborIdProgram()])
        assert excinfo.value.machine is not None
        assert excinfo.value.requested_bytes > excinfo.value.capacity_bytes

    def test_enforcement_can_be_disabled(self, medium_social_graph):
        tiny = ClusterConfig(machine=TYPE_I, num_machines=2, memory_scale=1e-9)
        engine = GasEngine(graph=medium_social_graph, cluster=tiny, enforce_memory=False)
        result = engine.run([NeighborIdProgram()])
        assert result.metrics.peak_machine_memory_bytes > tiny.per_machine_memory_bytes
