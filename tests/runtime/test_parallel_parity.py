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
4} × seeds {3, 8} × {in-RAM, container} graph inputs, and both inputs
report the same deterministic accounting.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime import available_backends, backend_capabilities, get_backend
from repro.runtime.partition import (
    GreedyVertexCut,
    partition_graph,
    partition_vertices,
)
from repro.runtime.report import RunReport
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    SEEDS,
    assert_matches_reference,
    custom_aggregator_config,
    over_seeds,
    reseeded,
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
        assert payload["network_bytes"] is None

    #: Per-partition ``(gather_invocations, apply_invocations)`` of the
    #: paper config on the parity graph under the hash placement, by
    #: ``(workers, seed)``.  Their totals do not depend on placement: 2646
    #: gathers (every vertex's out-degree, once per phase) and 450 applies
    #: (3 phases x 150 vertices).  On a power-of-two worker count the
    #: seed only rotates which partition owns which block.
    PINNED = {
        (2, 3): [(1335, 225), (1311, 225)],
        (2, 8): [(1311, 225), (1335, 225)],
        (4, 3): [(702, 114), (603, 111), (633, 111), (708, 114)],
        (4, 8): [(708, 114), (702, 114), (603, 111), (633, 111)],
    }

    #: ``(transport_bytes, state_plane_peak_bytes)`` of the same runs, by
    #: ``(workers, seed)``: what crossed the pool's pipes and the largest
    #: hosted phase output.  Neither depends on placement or on where the
    #: segments live.
    PINNED_BYTES = {
        (2, 3): (86_432, 29_568),
        (2, 8): (86_432, 29_568),
        (4, 3): (86_432, 29_568),
        (4, 8): (86_432, 29_568),
    }

    @pytest.mark.parametrize("workers", [2, 4])
    @over_seeds
    def test_accounting_is_pinned(self, workers, seed, small_graph):
        config = SnapleConfig.paper_default(seed=seed, k_local=10)
        with SnapleLinkPredictor(config) as predictor:
            run = predictor.predict(small_graph, backend="gas",
                                    workers=workers)
        partitions = [(p.gather_invocations, p.apply_invocations)
                      for p in run.partition_reports]
        assert run.supersteps == 3
        assert run.network_bytes is None
        assert partitions == self.PINNED[(workers, seed)]
        assert [sum(counts) for counts in zip(*partitions)] == [2646, 450]
        assert (run.extra["transport_bytes"],
                run.extra["state_plane_peak_bytes"]) == (
            self.PINNED_BYTES[(workers, seed)])

    def test_ownership_is_the_hash_placement(self, small_graph, monkeypatch):
        """``workers=N`` never builds the simulated vertex-cut: each
        partition owns the vertices ``partition_vertices`` hashes onto it."""
        def refuse(*args, **kwargs):
            raise AssertionError("workers=N built a vertex-cut")

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "partition_graph", None)
                    is partition_graph):
                monkeypatch.setattr(module, "partition_graph", refuse)
        config = SnapleConfig.paper_default(seed=3, k_local=10)
        with SnapleLinkPredictor(config) as predictor:
            run = predictor.predict(small_graph, backend="gas", workers=2)
        owners = partition_vertices(small_graph, 2,
                                    seed=config.seed).vertex_machine
        assert [p.num_vertices for p in run.partition_reports] == (
            np.bincount(owners, minlength=2).tolist())

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_seeds_place_vertices_differently(self, workers, small_graph):
        """The seed axis of the parallel grids is not a no-op for
        placement: the seeds hand some vertex to a different worker."""
        first, second = (partition_vertices(small_graph, workers,
                                            seed=seed).vertex_machine
                         for seed in SEEDS)
        assert np.any(first != second)


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
    _references: dict[tuple[str, int], tuple] = {}
    _accounting: dict[tuple[str, int, int], list] = {}

    @over_seeds
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("config_name", sorted(REFERENCE_CONFIGS))
    def test_parallel_run_equals_scalar_reference(self, config_name,
                                                  workers, seed,
                                                  graph_source,
                                                  small_graph):
        config = reseeded(REFERENCE_CONFIGS[config_name](), seed)
        if (config_name, seed) not in self._references:
            self._references[(config_name, seed)] = scalar_reference(
                small_graph, config)
        with SnapleLinkPredictor(config) as predictor:
            report = predictor.predict(graph_source(small_graph),
                                       backend="gas", workers=workers)
        assert_matches_reference(report,
                                 self._references[(config_name, seed)])
        # Deterministic accounting, byte counts included, does not depend
        # on whether the graph was in RAM or in a container: both inputs
        # must report exactly the same numbers.
        accounting = [
            (p.gather_invocations, p.apply_invocations)
            for p in report.partition_reports
        ] + [report.extra[key] for key in ("transport_bytes",
                                           "state_plane_peak_bytes",
                                           "worker_restarts")]
        expected = self._accounting.setdefault(
            (config_name, workers, seed), accounting)
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
        from tests.oracle import GasEngine, build_snaple_steps

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

    @pytest.mark.parametrize(("option", "make_value"), [
        ("cluster", lambda: cluster_of(TYPE_I, 4)),
        ("partitioner", GreedyVertexCut),
        ("enforce_memory", lambda: False),
    ])
    def test_simulated_cluster_options_conflict(self, option, make_value,
                                                small_graph):
        """Each simulated-cluster option is rejected alongside workers,
        before any run, instead of being silently ignored."""
        predictor = SnapleLinkPredictor(SnapleConfig.paper_default(seed=3))
        message = f"simulated-cluster option\\(s\\) '{option}'"
        with pytest.raises(ConfigurationError, match=message):
            predictor.predict(small_graph, backend="gas", workers=2,
                              **{option: make_value()})

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_capability_advertised(self, backend):
        capabilities = backend_capabilities(backend)
        assert capabilities.parallel
        assert "workers" in capabilities.options
