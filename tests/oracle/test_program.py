"""Unit tests for the oracle's Algorithm 2: the three GAS vertex programs."""

from __future__ import annotations

import math

import pytest

from repro.graph.digraph import DiGraph
from repro.snaple.config import SnapleConfig
from tests.oracle import GasEngine, build_snaple_steps


class TestStepSequence:
    def test_three_steps_in_order(self, small_social_graph):
        steps = build_snaple_steps(SnapleConfig(), small_social_graph)
        assert [step.name for step in steps] == [
            "sample-neighborhood",
            "estimate-similarities",
            "compute-recommendations",
        ]

    def test_step1_collects_full_neighborhood_without_truncation(self, small_social_graph):
        config = SnapleConfig(truncation_threshold=math.inf)
        engine = GasEngine(graph=small_social_graph)
        result = engine.run(build_snaple_steps(config, small_social_graph))
        for vertex in range(0, 50, 5):
            assert result.data_of(vertex)["gamma"] == sorted(
                small_social_graph.out_neighbors(vertex).tolist()
            )

    def test_step1_truncates_large_neighborhoods(self, star_graph):
        config = SnapleConfig(truncation_threshold=3, exact_truncation=True, seed=1)
        engine = GasEngine(graph=star_graph)
        result = engine.run(build_snaple_steps(config, star_graph))
        assert len(result.data_of(0)["gamma"]) <= 3

    def test_step2_limits_to_k_local(self, small_social_graph):
        config = SnapleConfig(k_local=3)
        engine = GasEngine(graph=small_social_graph)
        result = engine.run(build_snaple_steps(config, small_social_graph))
        for vertex in range(small_social_graph.num_vertices):
            assert len(result.data_of(vertex)["sims"]) <= 3

    def test_step2_similarities_are_jaccard(self):
        # Graph: 0 -> {1, 2}, 1 -> {2}, 2 -> {1}: sim(1, 2) uses Γ(1)={2} and
        # Γ(2)={1}, which are disjoint, so the similarity is 0; sim(0, 1)
        # compares {1, 2} with {2} giving 1/2.
        graph = DiGraph(3, [0, 0, 1, 2], [1, 2, 2, 1])
        config = SnapleConfig(k_local=math.inf, truncation_threshold=math.inf)
        engine = GasEngine(graph=graph)
        result = engine.run(build_snaple_steps(config, graph))
        assert result.data_of(0)["sims"][1] == pytest.approx(0.5)
        assert result.data_of(1)["sims"][2] == pytest.approx(0.0)

    def test_step3_excludes_direct_neighbors_and_self(self, small_social_graph):
        config = SnapleConfig()
        engine = GasEngine(graph=small_social_graph)
        result = engine.run(build_snaple_steps(config, small_social_graph))
        for vertex in range(small_social_graph.num_vertices):
            direct = set(small_social_graph.out_neighbors(vertex).tolist())
            for predicted in result.data_of(vertex)["predicted"]:
                assert predicted != vertex
                assert predicted not in direct

    def test_step3_returns_at_most_k(self, small_social_graph):
        config = SnapleConfig(k=3)
        engine = GasEngine(graph=small_social_graph)
        result = engine.run(build_snaple_steps(config, small_social_graph))
        for vertex in range(small_social_graph.num_vertices):
            assert len(result.data_of(vertex)["predicted"]) <= 3

    def test_counter_score_counts_two_hop_paths(self):
        # 0 -> {1, 2}; 1 -> {3}; 2 -> {3}: vertex 3 is reachable from 0 over
        # exactly two 2-hop paths, so the counter score must be 2.
        graph = DiGraph(4, [0, 0, 1, 2], [1, 2, 3, 3])
        config = SnapleConfig.paper_default("counter",
                                            k_local=math.inf,
                                            truncation_threshold=math.inf)
        steps = build_snaple_steps(config, graph)
        GasEngine(graph=graph).run(steps)
        assert steps[-1].collected_scores[0][3] == pytest.approx(2.0)

    def test_candidates_not_in_truncated_neighborhood(self, paper_figure3_graph):
        config = SnapleConfig()
        steps = build_snaple_steps(config, paper_figure3_graph)
        GasEngine(graph=paper_figure3_graph).run(steps)
        # Vertex a (id 0) should only ever score e, f, g (ids 5, 6, 7) — the
        # 2-hop candidates of Figure 3.
        candidate_labels = set(steps[-1].collected_scores[0])
        assert candidate_labels <= {5, 6, 7}

    def test_vertex_data_keeps_only_compact_state(self, small_social_graph):
        # Algorithm 2 only persists Γ̂, sims and the top-k predictions in the
        # vertex data; the full candidate score map must not be replicated.
        config = SnapleConfig(k_local=10)
        steps = build_snaple_steps(config, small_social_graph)
        result = GasEngine(graph=small_social_graph).run(steps)
        assert "scores" not in result.data_of(0)
        assert set(result.data_of(0)) <= {"gamma", "sims", "predicted"}
