"""Tests for the superstep BSP engine and its accounting."""

from __future__ import annotations

from typing import Any

import pytest

from repro.bsp.engine import BspEngine
from repro.runtime.partition import BlockVertexPartitioner
from repro.bsp.programs import OutDegreeProgram, PageRankProgram
from repro.bsp.vertex import BspVertexProgram, ComputeContext, SumCombiner
from repro.errors import EngineError, ResourceExhaustedError
from repro.gas.cluster import TYPE_I, TYPE_II, ClusterConfig, cluster_of
from repro.graph.digraph import DiGraph


class EchoDegreeProgram(BspVertexProgram):
    """Superstep 0: send 1 along every out-edge; superstep 1: count receipts."""

    name = "echo-degree"
    max_supersteps = 2

    def initial_state(self, vertex: int) -> dict[str, Any]:
        return {"in_degree": 0}

    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        if context.superstep == 0:
            context.send_message_to_all_neighbors(1)
            context.vote_to_halt()
        else:
            state["in_degree"] = sum(messages)
            context.vote_to_halt()


class TestBspEngineBasics:
    def test_out_degree_program_matches_graph(self, small_social_graph):
        engine = BspEngine(graph=small_social_graph)
        result = engine.run(OutDegreeProgram())
        for u in small_social_graph.vertices():
            assert result.state_of(u)["degree"] == small_social_graph.out_degree(u)

    def test_messages_compute_in_degrees(self, small_social_graph):
        engine = BspEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 4))
        result = engine.run(EchoDegreeProgram())
        for u in small_social_graph.vertices():
            assert result.state_of(u)["in_degree"] == small_social_graph.in_degree(u)

    def test_run_stops_when_all_vertices_halt(self, triangle_graph):
        engine = BspEngine(graph=triangle_graph)
        result = engine.run(OutDegreeProgram())
        assert result.supersteps == 1

    def test_max_supersteps_bounds_non_halting_programs(self, triangle_graph):
        class NeverHaltProgram(BspVertexProgram):
            name = "never-halt"
            max_supersteps = 5

            def compute(self, state, messages, context):
                context.send_message_to_all_neighbors(1)

        engine = BspEngine(graph=triangle_graph)
        result = engine.run(NeverHaltProgram())
        assert result.supersteps == 5

    def test_rejects_zero_max_supersteps(self, triangle_graph):
        program = OutDegreeProgram()
        program.max_supersteps = 0
        engine = BspEngine(graph=triangle_graph)
        with pytest.raises(EngineError):
            engine.run(program)

    def test_message_to_unknown_vertex_is_rejected(self, triangle_graph):
        class BadTargetProgram(BspVertexProgram):
            name = "bad-target"
            max_supersteps = 1

            def compute(self, state, messages, context):
                context.send_message(999, 1)

        engine = BspEngine(graph=triangle_graph)
        with pytest.raises(EngineError):
            engine.run(BadTargetProgram())

    def test_restricting_initial_vertices(self, star_graph):
        class MarkProgram(BspVertexProgram):
            name = "mark"
            max_supersteps = 1

            def initial_state(self, vertex):
                return {"marked": False}

            def compute(self, state, messages, context):
                state["marked"] = True
                context.vote_to_halt()

        engine = BspEngine(graph=star_graph)
        result = engine.run(MarkProgram(), vertices=[0, 1])
        marked = [u for u in star_graph.vertices() if result.state_of(u)["marked"]]
        assert marked == [0, 1]

    def test_message_reactivates_halted_vertex(self):
        # 0 -> 1: vertex 1 halts at superstep 0 but must wake up when the
        # message from 0 arrives at superstep 1.
        graph = DiGraph(2, [0], [1])

        class WakeProgram(BspVertexProgram):
            name = "wake"
            max_supersteps = 3

            def initial_state(self, vertex):
                return {"woken": 0}

            def compute(self, state, messages, context):
                if context.superstep == 0 and context.vertex == 0:
                    context.send_message(1, "wake-up")
                if messages:
                    state["woken"] += len(messages)
                context.vote_to_halt()

        result = BspEngine(graph=graph).run(WakeProgram())
        assert result.state_of(1)["woken"] == 1


class TestBspEngineAccounting:
    def test_local_messages_are_free_remote_messages_are_charged(self):
        # Chain 0 -> 1 -> 2 -> 3 split in half: with the block placement the
        # only remote edge is 1 -> 2, so exactly one message crosses.
        graph = DiGraph(4, [0, 1, 2], [1, 2, 3])
        cluster = cluster_of(TYPE_II, 2)
        engine = BspEngine(
            graph=graph, cluster=cluster, partitioner=BlockVertexPartitioner()
        )
        result = engine.run(EchoDegreeProgram())
        step0 = result.metrics.steps[0]
        per_message = 8  # one integer payload
        assert sum(step0.network_bytes_per_machine) == 2 * per_message

    def test_single_machine_run_has_no_network_traffic(self, small_social_graph):
        engine = BspEngine(graph=small_social_graph, cluster=cluster_of(TYPE_II, 1))
        result = engine.run(EchoDegreeProgram())
        assert result.metrics.total_network_bytes == 0

    def test_combiner_reduces_network_traffic(self, medium_social_graph):
        cluster = cluster_of(TYPE_I, 4)

        class FanInProgram(BspVertexProgram):
            """Every vertex sends 1.0 to vertex 0 (heavy fan-in)."""

            name = "fan-in"
            max_supersteps = 2

            def compute(self, state, messages, context):
                if context.superstep == 0:
                    context.send_message(0, 1.0)
                else:
                    state["total"] = sum(messages)
                context.vote_to_halt()

        without = FanInProgram()
        with_combiner = FanInProgram()
        with_combiner.combiner = SumCombiner()

        plain = BspEngine(graph=medium_social_graph, cluster=cluster, seed=1).run(without)
        combined = BspEngine(graph=medium_social_graph, cluster=cluster, seed=1).run(
            with_combiner
        )
        assert combined.metrics.total_network_bytes < plain.metrics.total_network_bytes
        # The combiner must not change the computed result.
        assert combined.state_of(0)["total"] == plain.state_of(0)["total"]

    def test_simulated_time_includes_the_per_superstep_barrier(self, triangle_graph):
        # The cost model charges one barrier per superstep, which is the
        # floor of the simulated time for a tiny graph.
        result = BspEngine(graph=triangle_graph, cluster=cluster_of(TYPE_II, 4)).run(
            EchoDegreeProgram()
        )
        barrier = TYPE_II.barrier_latency_seconds
        assert result.simulated_seconds >= result.supersteps * barrier

    def test_memory_enforcement_raises_on_tiny_capacity(self, medium_social_graph):
        tiny_cluster = ClusterConfig(
            machine=TYPE_I, num_machines=2, memory_scale=1e-9
        )
        engine = BspEngine(graph=medium_social_graph, cluster=tiny_cluster)
        with pytest.raises(ResourceExhaustedError):
            engine.run(PageRankProgram(num_iterations=2))

    def test_memory_enforcement_can_be_disabled(self, medium_social_graph):
        tiny_cluster = ClusterConfig(
            machine=TYPE_I, num_machines=2, memory_scale=1e-9
        )
        engine = BspEngine(
            graph=medium_social_graph, cluster=tiny_cluster, enforce_memory=False
        )
        result = engine.run(PageRankProgram(num_iterations=2))
        assert result.metrics.peak_machine_memory_bytes > 0

    def test_wall_clock_and_simulated_times_are_recorded(self, small_social_graph):
        result = BspEngine(graph=small_social_graph).run(EchoDegreeProgram())
        assert result.wall_clock_seconds > 0
        assert result.simulated_seconds > 0
        assert len(result.metrics.steps) == result.supersteps

    def test_undeclared_aggregator_is_rejected(self, triangle_graph):
        class RogueAggregatorProgram(BspVertexProgram):
            name = "rogue"
            max_supersteps = 1

            def compute(self, state, messages, context):
                context.aggregate("undeclared", 1)

        with pytest.raises(EngineError):
            BspEngine(graph=triangle_graph).run(RogueAggregatorProgram())
