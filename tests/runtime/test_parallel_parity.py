"""Serial/parallel parity harness for the shared-nothing execution layer.

For every backend advertising :attr:`BackendCapabilities.parallel` these
tests assert that ``workers=1`` and ``workers=N`` produce *identical*
predictions, candidate scores (bit-exact floats) and superstep counts on
seeded random graphs — the paper's scale-out claim requires that
distribution never changes the answer.  They also pin the accounting
invariant: a report's totals must equal the sum of its per-partition
reports, for serial and parallel runs alike.

The CI parity job sets ``SNAPLE_PARITY_WORKERS`` to restrict the worker
counts exercised (e.g. ``2``); locally both 2 and 4 run.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime.partition import GreedyVertexCut
from repro.runtime import available_backends, backend_capabilities, get_backend
from repro.runtime.report import RunReport
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor


def _parity_worker_counts() -> list[int]:
    override = os.environ.get("SNAPLE_PARITY_WORKERS")
    if override:
        return [int(value) for value in override.split(",")]
    return [2, 4]


PARITY_WORKERS = _parity_worker_counts()

PARALLEL_BACKENDS = [
    name for name in available_backends()
    if backend_capabilities(name).parallel
]

SERIAL_BACKENDS = [
    name for name in available_backends()
    if not backend_capabilities(name).parallel
]


@pytest.fixture(scope="module")
def small_graph(random_graph):
    """The 150-vertex parity graph, shared session-wide via random_graph."""
    return random_graph(150, 3, 0.3, seed=11)


def assert_reports_identical(left: RunReport, right: RunReport) -> None:
    """Predictions, scores (bit-exact) and superstep counts must match."""
    assert left.predictions == right.predictions
    assert left.scores == right.scores
    assert left.supersteps == right.supersteps


def assert_partition_totals(report: RunReport) -> None:
    """The merged report's totals equal the sum of its partition reports."""
    assert report.partition_reports, "report carries no partition accounting"
    assert len(report.predictions) == sum(
        partition.num_predictions for partition in report.partition_reports
    )
    assert sum(len(targets) for targets in report.predictions.values()) == sum(
        partition.num_predicted_edges
        for partition in report.partition_reports
    )
    assert report.per_partition_seconds == [
        partition.compute_seconds for partition in report.partition_reports
    ]
    for partition in report.partition_reports:
        assert partition.num_predictions <= partition.num_vertices
        assert partition.compute_seconds >= 0.0
        assert partition.shipped_bytes >= 0


class TestWorkersParity:
    """workers=1 and workers=N must be prediction-identical."""

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("workers", PARITY_WORKERS)
    def test_parity_on_seeded_graph(self, backend, workers, small_graph):
        graph = small_graph
        config = SnapleConfig.paper_default(seed=3, k_local=10)
        predictor = SnapleLinkPredictor(config)
        baseline = predictor.predict(graph, backend=backend, workers=1)
        run = predictor.predict(graph, backend=backend, workers=workers)
        assert_reports_identical(baseline, run)
        assert run.workers == workers
        assert len(run.per_partition_seconds) == workers
        assert run.sync_overhead_seconds is not None
        assert run.sync_overhead_seconds >= 0.0

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_parity_with_truncation_randomness(self, backend, random_graph):
        """Per-vertex RNG keeps runs identical even when truncation fires."""
        graph = random_graph(200, 4, 0.3, seed=7)
        config = SnapleConfig.paper_default(
            seed=9, k_local=6, truncation_threshold=5
        )
        predictor = SnapleLinkPredictor(config)
        baseline = predictor.predict(graph, backend=backend, workers=1)
        run = predictor.predict(graph, backend=backend,
                                workers=max(PARITY_WORKERS))
        assert_reports_identical(baseline, run)

    @pytest.mark.slow
    def test_gas_parity_on_1k_vertex_graph(self, random_graph):
        """The acceptance graph: 1k vertices, workers=4 == workers=1."""
        graph = random_graph(1000, 3, 0.2, seed=42)
        config = SnapleConfig.paper_default(seed=42, k_local=10)
        predictor = SnapleLinkPredictor(config)
        baseline = predictor.predict(graph, backend="gas", workers=1)
        run = predictor.predict(graph, backend="gas", workers=4)
        assert_reports_identical(baseline, run)
        assert run.predictions  # non-degenerate

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_serial_matches_parallel_without_randomness(self, backend,
                                                       random_graph):
        """When no truncation randomness fires, serial == parallel exactly."""
        graph = random_graph(120, model="erdos_renyi", edge_probability=0.06,
                             seed=5)
        config = SnapleConfig.paper_default(seed=1, k_local=8)
        predictor = SnapleLinkPredictor(config)
        serial = predictor.predict(graph, backend=backend)
        parallel = predictor.predict(graph, backend=backend,
                                     workers=min(PARITY_WORKERS))
        assert_reports_identical(serial, parallel)

    def test_partitioner_does_not_change_predictions(self, small_graph):
        """Ownership placement affects traffic only, never the answer."""
        graph = small_graph
        config = SnapleConfig.paper_default(seed=3, k_local=10)
        predictor = SnapleLinkPredictor(config)
        random_cut = predictor.predict(graph, backend="gas", workers=2)
        greedy_cut = predictor.predict(graph, backend="gas", workers=2,
                                       partitioner=GreedyVertexCut())
        assert_reports_identical(random_cut, greedy_cut)

    def test_greedy_cut_ships_less_boundary_state(self, small_graph):
        """A locality-aware cut lowers the shipped bytes, not the answer."""
        config = SnapleConfig.paper_default(seed=3, k_local=10)
        with SnapleLinkPredictor(config) as predictor:
            random_cut = predictor.predict(small_graph, backend="gas",
                                           workers=4)
            greedy_cut = predictor.predict(small_graph, backend="gas",
                                           workers=4,
                                           partitioner=GreedyVertexCut())
        assert_reports_identical(random_cut, greedy_cut)
        assert 0 < greedy_cut.network_bytes < random_cut.network_bytes

    def test_gas_vertex_subset_parity(self, small_graph):
        graph = small_graph
        subset = list(range(40))
        predictor = SnapleLinkPredictor(SnapleConfig.paper_default(seed=3))
        baseline = predictor.predict(graph, backend="gas", workers=1,
                                     vertices=subset)
        run = predictor.predict(graph, backend="gas", workers=3,
                                vertices=subset)
        assert sorted(run.predictions) == subset
        assert_reports_identical(baseline, run)


class TestPartitionAccounting:
    """RunReport totals must equal the sum of the per-partition reports."""

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_parallel_accounting_sums(self, backend, small_graph):
        graph = small_graph
        predictor = SnapleLinkPredictor(SnapleConfig.paper_default(seed=3))
        run = predictor.predict(graph, backend=backend,
                                workers=min(PARITY_WORKERS))
        assert_partition_totals(run)
        assert len(run.partition_reports) == min(PARITY_WORKERS)
        assert sum(
            partition.num_vertices for partition in run.partition_reports
        ) == graph.num_vertices

    @pytest.mark.parametrize("backend", ["gas"])
    def test_serial_accounting_sums(self, backend, small_graph):
        graph = small_graph
        predictor = SnapleLinkPredictor(SnapleConfig.paper_default(seed=3))
        run = predictor.predict(graph, backend=backend)
        assert run.workers is None
        assert_partition_totals(run)
        assert len(run.partition_reports) == 1

    def test_subset_accounting_sums(self, small_graph):
        graph = small_graph
        predictor = SnapleLinkPredictor(SnapleConfig.paper_default(seed=3))
        run = predictor.predict(graph, backend="gas", workers=3,
                                vertices=list(range(50)))
        assert_partition_totals(run)

    def test_report_to_dict_carries_parallel_fields(self, small_graph):
        graph = small_graph
        predictor = SnapleLinkPredictor(SnapleConfig.paper_default(seed=3))
        run = predictor.predict(graph, backend="gas", workers=2)
        payload = run.to_dict()
        assert payload["workers"] == 2
        assert len(payload["per_partition_seconds"]) == 2
        assert payload["sync_overhead_seconds"] >= 0.0
        assert len(payload["partitions"]) == 2
        assert all("shipped_bytes" in entry for entry in payload["partitions"])


class TestWorkersValidation:
    """Backends without the capability reject workers; bad values reject."""

    @pytest.mark.parametrize("backend", SERIAL_BACKENDS)
    def test_non_parallel_backends_reject_workers(self, backend):
        with pytest.raises(ConfigurationError, match="workers"):
            get_backend(backend, workers=2)

    @pytest.mark.parametrize("workers", [0, -1, 65, 1.5, True, "4"])
    def test_invalid_worker_counts_rejected(self, workers):
        with pytest.raises(ConfigurationError):
            get_backend("gas", workers=workers)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_workers_and_cluster_conflict(self, backend):
        with pytest.raises(ConfigurationError, match="cluster"):
            get_backend(backend, workers=2, cluster=cluster_of(TYPE_I, 4))

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_capability_advertised(self, backend):
        capabilities = backend_capabilities(backend)
        assert capabilities.parallel
        assert "workers" in capabilities.options
