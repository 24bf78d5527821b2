"""Unit tests for the ``gas_baseline`` engine: the naive 2-hop BASELINE on GAS.

The parity grid holds the engine, which answers from the CSR and charges
from arrays, to the two BASELINE vertex programs run edge by edge on the
oracle :class:`~tests.oracle.engine.GasEngine`: predictions, scores, every
:class:`~repro.gas.metrics.StepMetrics` field but wall time, the simulated
seconds, and the raised error, cell for cell.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.gas.cluster import TYPE_I, TYPE_II, ClusterConfig, cluster_of
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi, powerlaw_cluster
from repro.runtime import get_backend
from repro.snaple.accounting import SimulatedRun
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.oracle import DirectScoringStep, GasEngine, NeighborhoodPropagationStep
from tests.runtime.test_simulated_parity import (
    SUBSET,
    assert_same_accounting,
    multigraph,
)


def _baseline(graph: DiGraph, **options):
    return SnapleLinkPredictor().predict(graph, backend="gas_baseline",
                                         **options)


class TestBaselineCorrectness:
    def test_scores_all_two_hop_candidates(self, small_social_graph):
        result = _baseline(small_social_graph, k=5, enforce_memory=False)
        for vertex in range(0, 50, 7):
            expected = small_social_graph.two_hop_neighbors(vertex)
            assert set(result.scores[vertex]) == expected

    def test_scores_are_jaccard(self):
        # 0 -> {1, 2}; 1 -> {3}; 2 -> {3}; 3 -> {1, 2}.
        # Candidate 3 of vertex 0: jaccard(Γ(0)={1,2}, Γ(3)={1,2}) = 1.
        graph = DiGraph(4, [0, 0, 1, 2, 3, 3], [1, 2, 3, 3, 1, 2])
        result = _baseline(graph, enforce_memory=False)
        assert result.scores[0][3] == pytest.approx(1.0)

    def test_predictions_exclude_direct_neighbors(self, small_social_graph):
        result = _baseline(small_social_graph, enforce_memory=False)
        for vertex, targets in result.predictions.items():
            direct = set(small_social_graph.out_neighbors(vertex).tolist())
            assert not set(targets) & direct

    def test_predictions_bounded_by_k(self, small_social_graph):
        result = _baseline(small_social_graph, k=3, enforce_memory=False)
        assert all(len(targets) <= 3 for targets in result.predictions.values())

    def test_predicted_edges_helper(self, small_social_graph):
        result = _baseline(small_social_graph, enforce_memory=False)
        assert all(len(edge) == 2 for edge in result.predicted_edges())

    def test_k_defaults_to_the_config(self, small_social_graph):
        result = SnapleLinkPredictor(SnapleConfig(k=2)).predict(
            small_social_graph, backend="gas_baseline", enforce_memory=False)
        assert max(len(targets) for targets in result.predictions.values()) == 2

    def test_vertex_restriction(self, small_social_graph):
        result = _baseline(small_social_graph, vertices=[1, 2],
                           enforce_memory=False)
        assert set(result.predictions) == {1, 2}

    def test_vertex_subset_equals_full_run(self, small_social_graph):
        # The scoring step reads the propagated neighbourhoods of the
        # subset's neighbours, so propagation covers every vertex.
        subset = [1, 2, 3]
        full = _baseline(small_social_graph, enforce_memory=False)
        restricted = _baseline(small_social_graph, vertices=subset,
                               enforce_memory=False)
        assert restricted.predictions == {
            u: full.predictions[u] for u in subset
        }
        assert restricted.scores == {u: full.scores[u] for u in subset}


class TestBaselineReport:
    def test_report_carries_the_run_metrics(self, small_social_graph):
        report = _baseline(small_social_graph, cluster=cluster_of(TYPE_I, 4),
                           enforce_memory=False)
        assert isinstance(report.native, SimulatedRun)
        metrics = report.native.metrics
        assert report.simulated_seconds == metrics.simulated_seconds > 0
        assert report.network_bytes == metrics.total_network_bytes > 0
        assert report.peak_memory_bytes == metrics.peak_machine_memory_bytes
        assert report.supersteps == len(metrics.steps) == 2
        assert report.extra == {}

    def test_out_of_range_vertex_is_a_configuration_error(self,
                                                         random_graph):
        # The engine checks ids before any graph work, where an unknown id
        # used to fail as a bare IndexError.
        graph = random_graph(200, 3, 0.3, seed=1)
        with pytest.raises(ConfigurationError, match="vertices must be"):
            _baseline(graph, vertices=[10**6])


class TestBaselineCost:
    def test_baseline_moves_more_data_than_snaple(self, medium_social_graph):
        cluster = cluster_of(TYPE_I, 8)
        baseline = _baseline(medium_social_graph, cluster=cluster,
                             enforce_memory=False)
        snaple = SnapleLinkPredictor(SnapleConfig(k_local=20)).predict(
            medium_social_graph, backend="gas", cluster=cluster,
            enforce_memory=False
        )
        assert (
            baseline.network_bytes
            > snaple.native.metrics.total_network_bytes
        )

    def test_baseline_uses_more_memory_than_snaple(self, medium_social_graph):
        cluster = cluster_of(TYPE_II, 4)
        baseline = _baseline(medium_social_graph, cluster=cluster,
                             enforce_memory=False)
        snaple = SnapleLinkPredictor(SnapleConfig(k_local=20)).predict(
            medium_social_graph, backend="gas", cluster=cluster,
            enforce_memory=False
        )
        assert (
            baseline.peak_memory_bytes
            > snaple.native.metrics.peak_machine_memory_bytes
        )

    def test_baseline_slower_than_snaple_in_simulated_time(self, medium_social_graph):
        cluster = cluster_of(TYPE_II, 4)
        baseline = _baseline(medium_social_graph, cluster=cluster,
                             enforce_memory=False)
        snaple = SnapleLinkPredictor(SnapleConfig(k_local=20)).predict(
            medium_social_graph, backend="gas", cluster=cluster,
            enforce_memory=False
        )
        assert baseline.simulated_seconds > snaple.simulated_seconds

    def test_baseline_exhausts_memory_on_constrained_cluster(self, medium_social_graph):
        # The paper reports BASELINE failing on the largest graphs because it
        # replicates whole neighborhoods; a memory-constrained simulated
        # cluster reproduces that failure while SNAPLE still completes.
        constrained = ClusterConfig(machine=TYPE_II, num_machines=4,
                                    memory_scale=3.0e-6)
        with pytest.raises(ResourceExhaustedError):
            _baseline(medium_social_graph, cluster=constrained,
                      enforce_memory=True)
        snaple = SnapleLinkPredictor(SnapleConfig(k_local=20)).predict(
            medium_social_graph, backend="gas", cluster=constrained,
            enforce_memory=True
        )
        assert snaple.predictions


#: The grid's graphs: conftest's ``small_social_graph``, an Erdős–Rényi
#: graph, and a multigraph with duplicate edges and self-loops.
GRAPHS = {
    "social": powerlaw_cluster(300, 4, 0.5, seed=7),
    "erdos-renyi": erdos_renyi(120, 0.05, seed=3),
    "multigraph": multigraph(),
}
CLUSTERS = {
    "1-machine": cluster_of(TYPE_II, 1),
    "4-machines": cluster_of(TYPE_I, 4),
    "3-machines": cluster_of(TYPE_I, 3),
}
CELLS = list(itertools.product(sorted(GRAPHS), sorted(CLUSTERS),
                               (False, True), ("all", "subset")))


def baseline_reference(graph, cluster, config, *, enforce_memory,
                       vertices=None):
    """``(predictions, scores, run)`` of the two BASELINE programs on the
    oracle engine, placed as the ``gas_baseline`` engine places them."""
    engine = GasEngine(graph=graph, cluster=cluster,
                       enforce_memory=enforce_memory, seed=config.seed)
    scoring = DirectScoringStep(config.k)
    run = engine.run([NeighborhoodPropagationStep(graph), scoring],
                     vertices=vertices)
    targets = graph.vertices() if vertices is None else vertices
    return ({u: run.data_of(u)["predicted"] for u in targets},
            {u: scoring.collected_scores[u] for u in targets}, run)


def run_engine(graph, cluster, config, *, enforce_memory, vertices=None):
    return get_backend("gas_baseline", cluster=cluster,
                       enforce_memory=enforce_memory).prepare(
        graph, config).run(vertices=vertices)


@pytest.mark.parametrize("cell", CELLS, ids=["-".join(
    [graph, cluster, "enforced" if enforce else "recorded", targets])
    for graph, cluster, enforce, targets in CELLS])
def test_baseline_matches_the_gas_programs(cell):
    graph_name, cluster_name, enforce, targets = cell
    graph, cluster = GRAPHS[graph_name], CLUSTERS[cluster_name]
    config = SnapleConfig(seed=3)
    vertices = SUBSET if targets == "subset" else None
    report = run_engine(graph, cluster, config, enforce_memory=enforce,
                        vertices=vertices)
    predictions, scores, run = baseline_reference(
        graph, cluster, config, enforce_memory=enforce, vertices=vertices)
    assert report.predictions == predictions
    assert dict(report.scores) == scores
    assert_same_accounting(report, run)


@pytest.mark.parametrize("step,scale", [(0, 3.0e-7), (1, 2.365e-6)],
                         ids=["propagate-neighborhoods",
                              "direct-2hop-scoring"])
def test_memory_exhaustion_matches_the_gas_programs(step, scale):
    """On 4 type-II machines, the engine raises in the step the programs
    raise in, on the same machine with the same requested bytes and
    capacity."""
    graph = GRAPHS["social"]
    cluster = ClusterConfig(TYPE_II, 4, memory_scale=scale)
    config = SnapleConfig(seed=0)
    with pytest.raises(ResourceExhaustedError) as expected:
        baseline_reference(graph, cluster, config, enforce_memory=True)
    with pytest.raises(ResourceExhaustedError) as got:
        run_engine(graph, cluster, config, enforce_memory=True)
    assert (got.value.machine, got.value.requested_bytes,
            got.value.capacity_bytes) == (expected.value.machine,
                                          expected.value.requested_bytes,
                                          expected.value.capacity_bytes)
    footprints = [max(s.vertex_data_bytes_per_machine) for s in run_engine(
        graph, cluster, config, enforce_memory=False).native.metrics.steps]
    floor = footprints[step - 1] if step else 0
    assert floor <= got.value.capacity_bytes < footprints[step]
