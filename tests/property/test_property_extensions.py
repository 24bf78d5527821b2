"""Hypothesis property tests for edge-cut partitioning and the SNAPLE extensions."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.partition import (
    BlockVertexPartitioner,
    HashVertexPartitioner,
    partition_vertices,
)
from repro.graph.attributes import (
    generate_profiles,
    profile_cosine,
    profile_jaccard,
    profile_overlap,
)
from repro.graph.digraph import DiGraph
from repro.snaple.combinators import COMBINATORS


# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------
def _random_graph(num_vertices: int, num_edges: int, seed: int) -> DiGraph:
    """Small random multigraph-free directed graph built from a seed."""
    rng = random.Random(seed)
    edges = set()
    attempts = 0
    while len(edges) < num_edges and attempts < 10 * num_edges:
        attempts += 1
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            edges.add((u, v))
    sources = [u for u, _ in edges]
    targets = [v for _, v in edges]
    return DiGraph(num_vertices, sources, targets)


graph_params = st.tuples(
    st.integers(min_value=2, max_value=60),   # vertices
    st.integers(min_value=0, max_value=150),  # requested edges
    st.integers(min_value=0, max_value=2**16),  # seed
)

profile_sets = st.frozensets(st.integers(min_value=0, max_value=30), max_size=12)

similarities = st.floats(min_value=0.0, max_value=1.0,
                         allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# Edge-cut vertex partitioning
# ----------------------------------------------------------------------
class TestVertexPartitionProperties:
    @given(graph_params, st.integers(min_value=1, max_value=12),
           st.sampled_from(["hash", "block"]))
    @settings(max_examples=60, deadline=None)
    def test_every_vertex_gets_exactly_one_machine(self, params, machines, kind):
        num_vertices, num_edges, seed = params
        graph = _random_graph(num_vertices, num_edges, seed)
        partitioner = (
            HashVertexPartitioner() if kind == "hash" else BlockVertexPartitioner()
        )
        partition = partition_vertices(
            graph, machines, partitioner=partitioner, seed=seed
        )
        assert partition.vertex_machine.shape == (num_vertices,)
        assert partition.vertex_machine.min() >= 0
        assert partition.vertex_machine.max() < machines

    @given(graph_params, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_cut_edges_are_bounded_by_total_edges(self, params, machines):
        num_vertices, num_edges, seed = params
        graph = _random_graph(num_vertices, num_edges, seed)
        partition = partition_vertices(graph, machines, seed=seed)
        assert 0 <= partition.cut_edges(graph) <= graph.num_edges
        assert 0.0 <= partition.cut_fraction(graph) <= 1.0

    @given(graph_params)
    @settings(max_examples=40, deadline=None)
    def test_single_machine_never_cuts_an_edge(self, params):
        num_vertices, num_edges, seed = params
        graph = _random_graph(num_vertices, num_edges, seed)
        partition = partition_vertices(graph, 1, seed=seed)
        assert partition.cut_edges(graph) == 0

    @given(graph_params, st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_vertices_per_machine_sums_to_vertex_count(self, params, machines):
        num_vertices, num_edges, seed = params
        graph = _random_graph(num_vertices, num_edges, seed)
        partition = partition_vertices(graph, machines, seed=seed)
        assert int(partition.vertices_per_machine().sum()) == num_vertices


# ----------------------------------------------------------------------
# Combinator fold (the K-hop extension's core operation)
# ----------------------------------------------------------------------
class TestCombinatorFoldProperties:
    @given(st.lists(similarities, min_size=1, max_size=6),
           st.sampled_from(sorted(COMBINATORS)))
    @settings(max_examples=150, deadline=None)
    def test_fold_of_singleton_is_identity(self, values, name):
        combinator = COMBINATORS[name]
        assert combinator.fold([values[0]]) == values[0]

    @given(st.lists(similarities, min_size=2, max_size=6),
           st.sampled_from(sorted(COMBINATORS)))
    @settings(max_examples=150, deadline=None)
    def test_fold_matches_repeated_combination(self, values, name):
        combinator = COMBINATORS[name]
        expected = values[0]
        for value in values[1:]:
            expected = combinator.combine(expected, value)
        assert combinator.fold(values) == expected

    @given(similarities, similarities, st.sampled_from(sorted(COMBINATORS)))
    @settings(max_examples=150, deadline=None)
    def test_path_similarity_is_never_negative(self, a, b, name):
        assert COMBINATORS[name].combine(a, b) >= 0.0

    @given(similarities, similarities, similarities,
           st.sampled_from(sorted(COMBINATORS)))
    @settings(max_examples=150, deadline=None)
    def test_combinators_are_monotone_in_the_second_argument(self, a, b, delta, name):
        # The paper requires ⊗ to be monotonically increasing in both
        # arguments (Section 3.1); check the second one (the first follows by
        # the same argument for the symmetric combinators, and linear is
        # monotone by construction).
        combinator = COMBINATORS[name]
        lower = combinator.combine(a, b)
        higher = combinator.combine(a, min(1.0, b + delta))
        assert higher >= lower - 1e-12


# ----------------------------------------------------------------------
# Vertex profiles
# ----------------------------------------------------------------------
class TestProfileSimilarityProperties:
    @given(profile_sets, profile_sets)
    @settings(max_examples=200, deadline=None)
    def test_similarities_are_bounded_and_symmetric(self, a, b):
        for fn in (profile_jaccard, profile_cosine, profile_overlap):
            value = fn(a, b)
            assert 0.0 <= value <= 1.0
            assert value == fn(b, a)

    @given(profile_sets)
    @settings(max_examples=100, deadline=None)
    def test_identical_non_empty_profiles_have_similarity_one(self, profile):
        if profile:
            assert profile_jaccard(profile, profile) == 1.0
            assert profile_cosine(profile, profile) == 1.0
            assert profile_overlap(profile, profile) == 1.0

    @given(profile_sets, profile_sets)
    @settings(max_examples=100, deadline=None)
    def test_jaccard_is_a_lower_bound_on_overlap(self, a, b):
        assert profile_jaccard(a, b) <= profile_overlap(a, b) + 1e-12

    @given(graph_params,
           st.integers(min_value=1, max_value=20),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_generated_profiles_respect_bounds(self, params, num_tags, per_vertex):
        num_vertices, num_edges, seed = params
        graph = _random_graph(num_vertices, num_edges, seed)
        profiles = generate_profiles(
            graph, num_tags=num_tags, tags_per_vertex=per_vertex, seed=seed
        )
        assert profiles.num_vertices == num_vertices
        for u in graph.vertices():
            profile = profiles.of(u)
            assert len(profile) <= min(per_vertex, num_tags)
            assert all(0 <= tag < num_tags for tag in profile)
