"""The columnar state plane: store units plus parallel parity.

Predictions and candidate scores of every ``workers=N`` run must equal the
serial scalar reference exactly, for {truncating, custom-callable}
configurations × {random, greedy} vertex-cuts × {1, 4} workers; and the
accounting (``payload_size_bytes`` parity of :meth:`VertexRow.nbytes`) must
match the per-vertex dict charges exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gas.vertex_program import payload_size_bytes
from repro.runtime.state import (
    FieldKind,
    StateField,
    StateSchema,
    StateStore,
    common_state_schema,
)
from repro.runtime.shm import shm_available
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    PARTITIONERS,
    assert_matches_reference,
    partitioner_option,
    scalar_reference,
    truncating_config,
    unsupported_kernel_config,
)


def snaple_like_schema() -> StateSchema:
    return StateSchema((
        StateField("gamma", FieldKind.INT_LIST),
        StateField("sims", FieldKind.INT_FLOAT_MAP),
        StateField("predicted", FieldKind.INT_LIST),
        StateField("rank", FieldKind.SCALAR, "float64"),
    ))


# ----------------------------------------------------------------------
# StateStore / VertexRow
# ----------------------------------------------------------------------
class TestStateStore:
    def test_row_roundtrip_preserves_values_and_order(self):
        store = StateStore(4, snaple_like_schema())
        row = store.row(1)
        row["gamma"] = [3, 1, 1, 2]
        row["sims"] = {7: 0.5, 2: 0.25, 9: 1.0}  # insertion order matters
        row["rank"] = 0.125
        assert row["gamma"] == [3, 1, 1, 2]
        assert list(row["sims"].items()) == [(7, 0.5), (2, 0.25), (9, 1.0)]
        assert row["rank"] == 0.125
        # Reads return the assigned object itself (cache), like a dict.
        assert row["gamma"] is row["gamma"]

    def test_row_mapping_protocol_matches_dict(self):
        store = StateStore(3, snaple_like_schema())
        row = store.row(0)
        assert dict(row) == {}
        assert row.get("gamma", "missing") == "missing"
        assert "gamma" not in row
        assert "scores" not in row  # undeclared fields read as absent
        row["gamma"] = []
        row["sims"] = {1: 2.0}
        assert "gamma" in row and row["gamma"] == []
        assert set(row) == {"gamma", "sims"}
        assert len(row) == 2
        assert row == {"gamma": [], "sims": {1: 2.0}}
        assert {"gamma": [], "sims": {1: 2.0}} == dict(row.items())

    def test_setting_undeclared_field_raises(self):
        store = StateStore(2, snaple_like_schema())
        with pytest.raises(KeyError):
            store.row(0)["scores"] = {1: 2.0}

    def test_nbytes_matches_payload_size_bytes_of_dict_twin(self):
        store = StateStore(2, snaple_like_schema())
        row = store.row(0)
        twin = {}
        row["gamma"] = twin["gamma"] = [5, 6, 7]
        row["sims"] = twin["sims"] = {1: 0.5, 2: 0.75}
        row["predicted"] = twin["predicted"] = []
        row["rank"] = twin["rank"] = 3.5
        assert row.nbytes() == payload_size_bytes(twin)
        assert store.row(1).nbytes() == payload_size_bytes({})

    def test_rewriting_a_row_updates_live_bytes(self):
        store = StateStore(2, snaple_like_schema())
        row = store.row(0)
        row["gamma"] = list(range(10))
        before = store.nbytes()
        row["gamma"] = [1]
        assert store.nbytes() == before - 9 * 8

    def test_bulk_set_rows_and_csr_roundtrip(self):
        schema = StateSchema((StateField("gamma", FieldKind.INT_LIST),))
        store = StateStore(5, schema)
        rows = np.array([1, 3, 4], dtype=np.int64)
        counts = np.array([2, 0, 3], dtype=np.int64)
        flat = np.array([10, 11, 20, 21, 22], dtype=np.int64)
        store.set_rows("gamma", rows, counts, flat)
        csr_counts, csr_flat, csr_vals = store.field_csr("gamma")
        assert csr_vals is None
        assert csr_counts.tolist() == [0, 2, 0, 0, 3]
        assert csr_flat.tolist() == [10, 11, 20, 21, 22]
        assert store.row(1)["gamma"] == [10, 11]
        assert store.row(3)["gamma"] == []  # present but empty
        assert "gamma" in store.row(3)
        assert "gamma" not in store.row(0)

    def test_extract_merge_roundtrip_preserves_presence(self):
        schema = snaple_like_schema()
        source = StateStore(6, schema)
        source.row(1)["gamma"] = [4, 5]
        source.row(2)["sims"] = {3: 1.5}
        source.row(4)["rank"] = 2.0
        state_slice = source.extract(
            np.array([1, 2, 3, 4]), ("gamma", "sims", "rank")
        )
        destination = StateStore(6, schema)
        destination.merge(state_slice)
        assert destination.row(1) == source.row(1)
        assert destination.row(2) == source.row(2)
        assert destination.row(3) == {}
        assert destination.row(4) == {"rank": 2.0}
        assert "gamma" not in destination.row(3)

    def test_common_state_schema_requires_agreement(self):
        schema = snaple_like_schema()

        class Declares:
            def state_schema(self):
                return schema

        class DeclaresOther:
            def state_schema(self):
                return StateSchema((StateField("x", FieldKind.SCALAR),))

        class DeclaresNothing:
            pass

        assert common_state_schema([Declares(), Declares()]) == schema
        assert common_state_schema([Declares(), DeclaresOther()]) is None
        assert common_state_schema([Declares(), DeclaresNothing()]) is None

    def test_rows_sequence_and_mapping_views(self):
        store = StateStore(3, snaple_like_schema())
        rows = store.rows()
        assert len(rows) == 3
        rows[1]["gamma"] = [7]
        mapping = store.rows_mapping()
        assert len(mapping) == 3
        assert mapping[1]["gamma"] == [7]


# ----------------------------------------------------------------------
# Parallel parity: {truncating, custom} × {random, greedy} × {1, 4} workers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", name="parity_graph")
def parity_graph_fixture(random_graph):
    """The 150-vertex parity graph, shared session-wide via random_graph."""
    return random_graph(150, 3, 0.3, seed=11)


CONFIGS = {
    "truncating": truncating_config,
    # Outside the vectorized kernel: GAS workers run the scalar step
    # programs over the shipped columns instead of the kernel.
    "custom": unsupported_kernel_config,
}

_REFERENCES: dict[str, tuple] = {}


class TestScalarReferenceParity:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_parallel_run_equals_scalar_reference(self, config_name,
                                                  partitioner, workers,
                                                  parity_graph):
        config = CONFIGS[config_name]()
        if config_name not in _REFERENCES:
            _REFERENCES[config_name] = scalar_reference(parity_graph, config)
        with SnapleLinkPredictor(config) as predictor:
            report = predictor.predict(parity_graph, backend="gas",
                                       workers=workers,
                                       **partitioner_option(partitioner))
        assert_matches_reference(report, _REFERENCES[config_name])
        assert report.extra["state_columnar"] == 1.0
        if workers > 1 and shm_available():
            assert report.extra["shm_enabled"] == 1.0


class TestStatePlaneReporting:
    def test_reports_record_the_columnar_plane(self, parity_graph):
        with SnapleLinkPredictor(truncating_config()) as predictor:
            for options in ({}, {"workers": 2}):
                report = predictor.predict(parity_graph, backend="gas",
                                           **options)
                assert report.extra["state_columnar"] == 1.0
                assert report.extra["state_plane_peak_bytes"] > 0

    def test_engine_uses_a_store_only_for_declared_schemas(self,
                                                           parity_graph):
        from repro.baselines.gas_baseline import (
            DirectScoringStep,
            NeighborhoodPropagationStep,
        )
        from repro.gas.engine import GasEngine
        from repro.snaple.program import build_snaple_steps
        from repro.snaple.similarity import jaccard

        graph = parity_graph
        engine = GasEngine(graph=graph)
        engine.run(build_snaple_steps(truncating_config(), graph))
        assert engine.state_store is not None
        assert engine.state_store.nbytes() > 0
        assert engine.memory.state_plane_peak_bytes > 0

        # Programs that declare no schema (the baselines) keep dicts.
        engine = GasEngine(graph=graph, enforce_memory=False)
        engine.run([NeighborhoodPropagationStep(graph),
                    DirectScoringStep(5, jaccard)])
        assert engine.state_store is None

    def test_gas_package_exports_runtime_partition(self):
        import repro.gas as gas
        import repro.runtime.partition as runtime_partition

        for name in ("GraphPartition", "Partitioner", "RandomVertexCut",
                     "GreedyVertexCut", "HdrfVertexCut", "partition_graph"):
            assert name in gas.__all__
            assert getattr(gas, name) is getattr(runtime_partition, name)

    def test_bsp_package_exports_runtime_partition(self):
        import repro.bsp as bsp
        import repro.runtime.partition as runtime_partition

        for name in ("VertexPartition", "VertexPartitioner",
                     "HashVertexPartitioner", "BlockVertexPartitioner",
                     "partition_vertices"):
            assert name in bsp.__all__
            assert getattr(bsp, name) is getattr(runtime_partition, name)

    def test_parallel_reports_routing_overhead_per_superstep(self,
                                                             parity_graph):
        with SnapleLinkPredictor(truncating_config()) as predictor:
            report = predictor.predict(parity_graph, backend="gas",
                                       workers=2)
        supersteps = report.supersteps
        assert report.extra["routing_seconds"] >= 0.0
        for index in range(supersteps):
            assert f"routing_seconds_step{index}" in report.extra
            assert f"state_plane_bytes_step{index}" in report.extra
