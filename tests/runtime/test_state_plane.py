"""The columnar state plane: store units plus parallel parity.

Predictions and candidate scores of every ``workers=N`` run must equal the
serial scalar reference exactly, for {truncating, custom-callable}
configurations × {random, greedy} vertex-cuts × {1, 4} workers.  The serial
simulated engines keep plain per-vertex dicts and no state plane.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.state import (
    FieldKind,
    StateField,
    StateSchema,
    StateStore,
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
    ))


def rows_of(store: StateStore, rows, name: str) -> dict:
    """``{vertex: value}`` of the present rows of one field, decoded."""
    state_slice = store.extract(np.asarray(rows), (name,))
    counts, ids, vals, present = state_slice.ragged[name]
    out = {}
    position = 0
    for u, count, here in zip(state_slice.rows.tolist(), counts.tolist(),
                              present.tolist()):
        if here:
            row_ids = ids[position:position + count].tolist()
            out[u] = (row_ids if vals is None else dict(
                zip(row_ids, vals[position:position + count].tolist())))
        position += count
    return out


# ----------------------------------------------------------------------
# StateStore
# ----------------------------------------------------------------------
class TestStateStore:
    def test_setting_undeclared_field_raises(self):
        store = StateStore(2, snaple_like_schema())
        with pytest.raises(KeyError, match="'scores'"):
            store.set_rows("scores", np.array([0]), np.array([1]),
                           np.array([1]), np.array([2.0]))

    def test_rewriting_a_row_updates_live_bytes(self):
        store = StateStore(2, snaple_like_schema())
        store.set_rows("gamma", np.array([0]), np.array([10]),
                       np.arange(10, dtype=np.int64))
        before = store.nbytes()
        store.set_rows("gamma", np.array([0]), np.array([1]),
                       np.array([1], dtype=np.int64))
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
        # Row 3 is present but empty; rows 0 and 2 were never written.
        assert rows_of(store, range(5), "gamma") == {
            1: [10, 11], 3: [], 4: [20, 21, 22],
        }

    def test_extract_preserves_presence_and_order(self):
        store = StateStore(6, snaple_like_schema())
        store.set_rows("gamma", np.array([1]), np.array([2]),
                       np.array([4, 5], dtype=np.int64))
        # Insertion order of a kept map survives the extract.
        store.set_rows("sims", np.array([2]), np.array([3]),
                       np.array([7, 2, 9], dtype=np.int64),
                       np.array([0.5, 0.25, 1.0]))
        state_slice = store.extract(np.array([4, 1, 3, 2]),
                                    ("gamma", "sims"))
        assert state_slice.rows.tolist() == [1, 2, 3, 4]
        counts, ids, vals, present = state_slice.ragged["gamma"]
        assert present.tolist() == [True, False, False, False]
        assert counts.tolist() == [2, 0, 0, 0]
        assert ids.tolist() == [4, 5] and vals is None
        counts, ids, vals, present = state_slice.ragged["sims"]
        assert present.tolist() == [False, True, False, False]
        assert counts.tolist() == [0, 3, 0, 0]
        assert ids.tolist() == [7, 2, 9]
        assert vals.tolist() == [0.5, 0.25, 1.0]
        assert store.nbytes() == 2 * 8 + 3 * 16


    def test_slices_decode_into_the_serial_engines_dicts(self):
        from repro.runtime.parallel import _slice_dicts

        store = StateStore(5, snaple_like_schema())
        store.set_rows("gamma", np.array([0, 2]), np.array([2, 0]),
                       np.array([3, 1], dtype=np.int64))
        store.set_rows("sims", np.array([2]), np.array([2]),
                       np.array([4, 0], dtype=np.int64),
                       np.array([0.75, 0.5]))
        rows = np.array([0, 1, 2])
        data = _slice_dicts((store.extract(rows, ("gamma",)),
                             store.extract(rows, ("sims",)), None))
        # Absent rows stay absent; present-but-empty rows decode to [].
        assert dict(data) == {
            0: {"gamma": [3, 1]},
            2: {"gamma": [], "sims": {4: 0.75, 0: 0.5}},
        }
        assert list(data[2]["sims"]) == [4, 0]


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
        if workers > 1 and shm_available():
            assert report.extra["shm_enabled"] == 1.0


class TestStatePlaneReporting:
    def test_reports_record_the_columnar_plane(self, parity_graph):
        with SnapleLinkPredictor(truncating_config()) as predictor:
            serial = predictor.predict(parity_graph, backend="gas")
            parallel = predictor.predict(parity_graph, backend="gas",
                                         workers=2)
        assert serial.extra == {}
        assert parallel.extra["state_plane_peak_bytes"] > 0

    def test_serial_engine_keeps_plain_dicts(self, parity_graph):
        from repro.gas.engine import GasEngine
        from repro.snaple.program import build_snaple_steps

        config = truncating_config()
        graph = parity_graph
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
                                                             parity_graph):
        with SnapleLinkPredictor(truncating_config()) as predictor:
            report = predictor.predict(parity_graph, backend="gas",
                                       workers=2)
        supersteps = report.supersteps
        assert report.extra["routing_seconds"] >= 0.0
        for index in range(supersteps):
            assert f"routing_seconds_step{index}" in report.extra
            assert f"state_plane_bytes_step{index}" in report.extra
