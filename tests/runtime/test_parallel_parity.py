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

:class:`TestScalarReferenceParity` is the acceptance grid: every
``workers=N`` run equals the serial scalar reference
(``tests.conftest.scalar_reference``) in predictions and scores, for
{paper, truncating, custom-similarity, custom-aggregator} × workers {1, 2,
4} × {random, greedy} × {shm, spool}, and both planes report the same
deterministic accounting.
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
from tests.conftest import (
    PARTITIONERS,
    assert_matches_reference,
    custom_aggregator_config,
    partitioner_option,
    scalar_reference,
    truncating_config,
    unsupported_kernel_config,
)


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

    #: ``network_bytes`` and per-partition ``(gather_invocations,
    #: apply_invocations, shipped_bytes)`` of the paper config on the parity
    #: graph.  ``shipped_bytes`` is the logical boundary payload: 8 B per
    #: Γ̂ id and 16 B per kept entry of the rows a partition reads from
    #: another partition's output.
    PINNED = {
        (2, "random"): (16808, [(1560, 309, 6544), (1086, 141, 10264)]),
        (2, "greedy"): (16592, [(1428, 231, 8000), (1218, 219, 8592)]),
        (4, "random"): (42568, [(939, 168, 10600), (576, 123, 10776),
                                (786, 114, 11608), (345, 45, 9584)]),
        (4, "greedy"): (38568, [(1056, 147, 10032), (828, 108, 10424),
                                (327, 81, 8648), (435, 114, 9464)]),
    }

    @pytest.mark.parametrize(("workers", "partitioner"), sorted(PINNED))
    def test_accounting_is_pinned(self, workers, partitioner, small_graph):
        config = SnapleConfig.paper_default(seed=3, k_local=10)
        with SnapleLinkPredictor(config) as predictor:
            run = predictor.predict(small_graph, backend="gas",
                                    workers=workers,
                                    **partitioner_option(partitioner))
        network_bytes, partitions = self.PINNED[(workers, partitioner)]
        assert run.supersteps == 3
        assert run.network_bytes == network_bytes
        assert [(p.gather_invocations, p.apply_invocations, p.shipped_bytes)
                for p in run.partition_reports] == partitions


# ----------------------------------------------------------------------
# The acceptance grid against the serial scalar reference
# ----------------------------------------------------------------------
#: The last two run the kernel's scalar branches inside the workers: the
#: per-edge similarity loop, and ``fold_paths`` in GAS gather order.
REFERENCE_CONFIGS = {
    "paper": lambda: SnapleConfig.paper_default(seed=3, k_local=10),
    "truncating": truncating_config,
    "custom-similarity": unsupported_kernel_config,
    "custom-aggregator": custom_aggregator_config,
}


class TestScalarReferenceParity:
    _references: dict[str, tuple] = {}
    _accounting: dict[tuple[str, str, int], list] = {}

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    def test_parallel_run_equals_scalar_reference(self, config_name,
                                                  partitioner, workers,
                                                  plane, small_graph):
        config = REFERENCE_CONFIGS[config_name]()
        if config_name not in self._references:
            self._references[config_name] = scalar_reference(small_graph,
                                                             config)
        with SnapleLinkPredictor(config) as predictor:
            report = predictor.predict(small_graph, backend="gas",
                                       workers=workers,
                                       **partitioner_option(partitioner))
        assert_matches_reference(report, self._references[config_name])
        assert report.extra["shm_enabled"] == float(plane == "shm")
        assert report.extra["ooc_enabled"] == float(plane == "spool")
        # Deterministic accounting, byte counts included, does not depend
        # on the plane: both must report exactly the same numbers.
        accounting = [
            (p.gather_invocations, p.apply_invocations, p.shipped_bytes)
            for p in report.partition_reports
        ] + [report.extra[key] for key in ("transport_bytes",
                                           "state_plane_peak_bytes",
                                           "worker_restarts")]
        expected = self._accounting.setdefault(
            (config_name, partitioner, workers), accounting)
        assert accounting == expected


class TestStatePlaneReporting:
    def test_reports_record_the_segment_plane(self, small_graph):
        with SnapleLinkPredictor(truncating_config()) as predictor:
            serial = predictor.predict(small_graph, backend="gas")
            parallel = predictor.predict(small_graph, backend="gas",
                                         workers=2)
        assert serial.extra == {}
        assert parallel.extra["state_plane_peak_bytes"] > 0
        assert parallel.extra["transport_bytes"] > 0

    def test_serial_engine_keeps_plain_dicts(self, small_graph):
        from repro.gas.engine import GasEngine
        from repro.snaple.program import build_snaple_steps

        config = truncating_config()
        graph = small_graph
        gas = GasEngine(graph=graph).run(build_snaple_steps(config, graph))
        assert type(gas.vertex_data) is list
        assert len(gas.vertex_data) == graph.num_vertices
        assert all(type(state) is dict for state in gas.vertex_data)
        assert set(gas.data_of(0)) == {"gamma", "sims", "predicted"}

    def test_gas_package_exports_runtime_partition(self):
        import repro.gas as gas
        import repro.runtime.partition as runtime_partition

        for name in ("GraphPartition", "Partitioner", "RandomVertexCut",
                     "GreedyVertexCut", "HdrfVertexCut", "partition_graph"):
            assert name in gas.__all__
            assert getattr(gas, name) is getattr(runtime_partition, name)

    def test_parallel_reports_routing_overhead_per_superstep(self,
                                                             small_graph):
        with SnapleLinkPredictor(truncating_config()) as predictor:
            report = predictor.predict(small_graph, backend="gas",
                                       workers=2)
        supersteps = report.supersteps
        assert report.extra["routing_seconds"] >= 0.0
        for index in range(supersteps):
            assert f"routing_seconds_step{index}" in report.extra
            assert f"state_plane_bytes_step{index}" in report.extra
            assert f"transport_bytes_step{index}" in report.extra


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
