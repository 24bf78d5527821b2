"""The serial ``gas`` backend against Algorithm 2's GAS program.

The backend computes its answers with the kernel and derives its
accounting from arrays (:mod:`repro.snaple.accounting`); the oracle is the
serial :class:`~repro.gas.engine.GasEngine` running the vertex programs of
:mod:`repro.snaple.program` (``serial_program_reference``).  Predictions,
every :class:`~repro.gas.metrics.StepMetrics` field and the simulated
seconds must match exactly.  Scores match exactly on one machine; on a
multi-machine cluster the engine folds each mirror's partial first, so
scores there match within ``REL_TOL``.

The grid crosses the sampler, the truncation/``klocal`` limits, exact
truncation, the cluster and partitioner, a simple graph and a multigraph
(duplicate edges, self-loops) and full/subset targets; the Table 3 score
rotates through the cells, so each score meets every value of every other
axis in some cell.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.errors import ResourceExhaustedError
from repro.gas.cluster import TYPE_I, TYPE_II, ClusterConfig, cluster_of
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_cluster
from repro.runtime import get_backend
from repro.runtime.partition import GreedyVertexCut, HdrfVertexCut
from repro.snaple import kernel
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import REL_TOL
from repro.snaple.sampler import get_sampler
from repro.snaple.scoring import PAPER_SCORES
from tests.conftest import (
    custom_aggregator_config,
    serial_program_reference,
    unsupported_kernel_config,
)
from tests.snaple.test_kernel_parity import ORACLE_LIMITS

#: name -> (cluster, partitioner); ``None`` partitions at random.
CLUSTERS = {
    "1-machine": (cluster_of(TYPE_II, 1), None),
    "4-random": (cluster_of(TYPE_I, 4), None),
    "3-greedy": (cluster_of(TYPE_I, 3), GreedyVertexCut()),
    "4-hdrf": (cluster_of(TYPE_I, 4), HdrfVertexCut()),
}


def simple_graph() -> DiGraph:
    return powerlaw_cluster(60, 3, 0.3, seed=11)


def multigraph() -> DiGraph:
    """The simple graph plus every fifth edge again and five self-loops."""
    base = simple_graph()
    src, dst = base.edge_arrays()
    loops = np.arange(0, 60, 12)
    return DiGraph(base.num_vertices,
                   np.concatenate([src, src[::5], loops]),
                   np.concatenate([dst, dst[::5], loops]))


GRAPHS = {"simple": simple_graph(), "multigraph": multigraph()}

#: Targets of a subset run: unsorted, with one repeat.
SUBSET = [41, 3, 17, 3, 58, 0, 29]

SAMPLERS = ("max", "min", "rnd")
LIMIT_IDS = ("thr8-klocal5", "unbounded", "thr12-klocal3")
SCORES = sorted(PAPER_SCORES)

CELLS = list(itertools.product(SAMPLERS, range(len(ORACLE_LIMITS)),
                               (False, True), sorted(CLUSTERS),
                               sorted(GRAPHS), ("all", "subset")))


def cell_id(cell) -> str:
    sampler, limits, exact, cluster, graph, targets = cell
    return "-".join([sampler, LIMIT_IDS[limits],
                     "exact" if exact else "bernoulli", cluster, graph,
                     targets])


def assert_same_answers(report, predictions, scores, *,
                        exact_scores: bool) -> None:
    assert report.predictions == predictions
    got = dict(report.scores)
    assert got.keys() == scores.keys()
    for u, expected in scores.items():
        if exact_scores:
            assert got[u] == expected
        else:
            assert got[u].keys() == expected.keys()
            for z, value in expected.items():
                assert got[u][z] == pytest.approx(value, rel=REL_TOL)


def assert_same_accounting(report, run) -> None:
    metrics = report.native.metrics
    assert len(metrics.steps) == len(run.metrics.steps)
    for step, expected in zip(metrics.steps, run.metrics.steps):
        fields = {f.name for f in dataclasses.fields(expected)}
        fields.discard("wall_clock_seconds")
        for name in fields:
            assert getattr(step, name) == getattr(expected, name), name
    assert report.simulated_seconds == run.simulated_seconds
    assert report.network_bytes == run.metrics.total_network_bytes
    assert report.peak_memory_bytes == run.metrics.peak_machine_memory_bytes
    assert report.native.partition.replication_factor() == \
        run.partition.replication_factor()


def assert_same_run(report, reference, *, exact_scores: bool) -> None:
    predictions, scores, run = reference
    assert_same_answers(report, predictions, scores,
                        exact_scores=exact_scores)
    assert_same_accounting(report, run)


def run_both(graph, config, cluster_name, vertices=None):
    cluster, partitioner = CLUSTERS[cluster_name]
    report = get_backend("gas", cluster=cluster,
                         partitioner=partitioner).prepare(
        graph, config).run(vertices=vertices)
    reference = serial_program_reference(graph, config, cluster, partitioner,
                                         vertices=vertices)
    return report, reference


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_backend_matches_the_gas_program(cell):
    sampler, limits, exact, cluster_name, graph_name, targets = cell
    threshold, k_local = ORACLE_LIMITS[limits]
    config = SnapleConfig(
        k=5,
        score=PAPER_SCORES[SCORES[CELLS.index(cell) % len(SCORES)]],
        truncation_threshold=threshold,
        k_local=k_local,
        sampler=get_sampler(sampler),
        exact_truncation=exact,
        seed=3,
    )
    vertices = SUBSET if targets == "subset" else None
    report, reference = run_both(GRAPHS[graph_name], config, cluster_name,
                                 vertices)
    assert_same_run(report, reference,
                    exact_scores=cluster_name == "1-machine")


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("config", [unsupported_kernel_config(),
                                    custom_aggregator_config()],
                         ids=["custom-similarity", "custom-aggregator"])
def test_custom_configs_match_the_gas_program(config, cluster_name):
    """Custom configurations: the accounting is the cluster's, and the
    answers are the one-machine program's, bit for bit, on any cluster.

    The custom aggregator's ``pre`` is not commutative, so the engine's
    per-mirror fold on a multi-machine cluster gives other scores; the
    backend folds in CSR order everywhere.
    """
    graph = GRAPHS["multigraph"]
    report, (_, _, run) = run_both(graph, config, cluster_name)
    assert_same_accounting(report, run)
    predictions, scores, _ = serial_program_reference(graph, config)
    assert_same_answers(report, predictions, scores, exact_scores=True)


def test_every_score_runs_on_one_machine():
    """The rotation above gives each Table 3 score several cells; this
    checks the full score axis on one configuration besides."""
    graph = GRAPHS["multigraph"]
    for name in SCORES:
        config = SnapleConfig.paper_default(name, seed=4, k_local=5,
                                            truncation_threshold=8)
        report, reference = run_both(graph, config, "1-machine")
        assert_same_run(report, reference, exact_scores=True)


@pytest.mark.parametrize("block_paths", [1, 40])
@pytest.mark.parametrize("cluster_name", ["1-machine", "4-random"])
@pytest.mark.parametrize("targets", ["all", "subset"])
def test_phase_3b_blocks_change_nothing(targets, cluster_name, block_paths,
                                        monkeypatch):
    """Blocks of at most one path (a target per block, most of them over
    the bound) and of a few targets give the one-block answers and
    accounting."""
    monkeypatch.setattr(kernel, "BLOCK_PATHS", block_paths)
    config = SnapleConfig.paper_default(seed=3, k_local=5,
                                        truncation_threshold=8)
    vertices = SUBSET if targets == "subset" else None
    report, reference = run_both(GRAPHS["multigraph"], config, cluster_name,
                                 vertices)
    assert_same_run(report, reference,
                    exact_scores=cluster_name == "1-machine")


@pytest.mark.parametrize("step", [0, 1, 2])
def test_memory_exhaustion_matches_the_engine(step):
    """A capacity between two step-end footprints trips in that step, on
    the machine and with the bytes the engine reports."""
    graph = GRAPHS["multigraph"]
    config = SnapleConfig.paper_default(seed=3, k_local=5,
                                        truncation_threshold=8)
    cluster, partitioner = CLUSTERS["4-hdrf"]
    footprints = [max(s.vertex_data_bytes_per_machine) for s in
                  get_backend("gas", cluster=cluster, partitioner=partitioner,
                              enforce_memory=False).prepare(graph, config)
                  .run().native.metrics.steps]
    floor = footprints[step - 1] if step else 0
    capacity = (floor + footprints[step]) // 2
    tiny = ClusterConfig(machine=TYPE_I, num_machines=4,
                         memory_scale=capacity / TYPE_I.memory_bytes)
    with pytest.raises(ResourceExhaustedError) as expected:
        serial_program_reference(graph, config, tiny, partitioner)
    with pytest.raises(ResourceExhaustedError) as got:
        get_backend("gas", cluster=tiny, partitioner=partitioner).prepare(
            graph, config).run()
    assert str(got.value) == str(expected.value)
    assert "naive" not in str(got.value)
    assert (got.value.machine, got.value.requested_bytes,
            got.value.capacity_bytes) == (expected.value.machine,
                                          expected.value.requested_bytes,
                                          expected.value.capacity_bytes)
    # It tripped inside the chosen step, not before it.
    assert floor < got.value.requested_bytes <= footprints[step]
