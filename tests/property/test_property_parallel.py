"""Hypothesis properties of the shared-nothing parallel execution layer.

Four properties pin down what makes parallel execution trustworthy:

* **determinism** — for a fixed seed, running the same parallel
  configuration twice produces bit-identical predictions and scores;
* **one reference** — every parallel run equals the serial scalar engine
  (``tests.conftest.scalar_reference``) in predictions and scores;
* **partition independence** — the number of partitions/workers (and the
  vertex-cut placing them) never changes the predictions, only the
  accounting;
* **crash transparency** — a run that loses a worker at any superstep and
  recovers by respawning the pool and replaying from superstep 0 is
  bit-identical to an uninterrupted run: predictions, candidate scores and
  deterministic accounting counters.  The per-vertex ``(seed, step,
  vertex)`` RNG streams make the replay exact.

Each example spins up real worker processes, so the graphs stay small and
the example counts low; the parity suite covers larger fixed graphs, and
``tests/runtime/test_crash_recovery.py`` the full fixed crash grid.
"""

from __future__ import annotations

import math
import tempfile
import uuid
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import powerlaw_cluster
from repro.runtime.parallel import FaultSpec
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import (
    PARTITIONERS,
    assert_matches_reference,
    partitioner_option,
    scalar_reference,
)

graphs = st.builds(
    powerlaw_cluster,
    st.integers(min_value=20, max_value=60),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=500),
)

#: Configurations mixing truncation (sometimes active on these degrees),
#: finite and infinite sampling budgets, and different scores.
configs = st.builds(
    SnapleConfig.paper_default,
    st.sampled_from(["linearSum", "counter", "geomMean"]),
    k=st.integers(min_value=1, max_value=5),
    k_local=st.sampled_from([4, 10, math.inf]),
    truncation_threshold=st.sampled_from([3.0, 8.0, 200.0]),
    seed=st.integers(min_value=0, max_value=100),
)


class TestParallelDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(graph=graphs, config=configs,
           partitioner=st.sampled_from(PARTITIONERS),
           workers=st.integers(min_value=1, max_value=3))
    def test_fixed_seed_is_deterministic(self, graph, config, partitioner,
                                         workers):
        predictor = SnapleLinkPredictor(config)
        first = predictor.predict(graph, backend="gas", workers=workers,
                                  **partitioner_option(partitioner))
        second = predictor.predict(graph, backend="gas", workers=workers,
                                   **partitioner_option(partitioner))
        assert first.predictions == second.predictions
        assert first.scores == second.scores
        assert first.supersteps == second.supersteps


class TestScalarReference:
    @settings(max_examples=5, deadline=None)
    @given(graph=graphs, config=configs,
           partitioner=st.sampled_from(PARTITIONERS),
           workers=st.sampled_from([1, 4]))
    def test_parallel_run_equals_serial_scalar_engine(self, graph, config,
                                                      partitioner, workers):
        with SnapleLinkPredictor(config) as predictor:
            report = predictor.predict(graph, backend="gas",
                                       workers=workers,
                                       **partitioner_option(partitioner))
        assert_matches_reference(report, scalar_reference(graph, config))


class TestPartitionIndependence:
    @settings(max_examples=5, deadline=None)
    @given(graph=graphs, config=configs,
           partitioner=st.sampled_from(PARTITIONERS),
           workers=st.integers(min_value=2, max_value=4))
    def test_worker_count_never_changes_predictions(self, graph, config,
                                                    partitioner, workers):
        predictor = SnapleLinkPredictor(config)
        single = predictor.predict(graph, backend="gas", workers=1)
        many = predictor.predict(graph, backend="gas", workers=workers,
                                 **partitioner_option(partitioner))
        assert single.predictions == many.predictions
        assert single.scores == many.scores
        assert single.supersteps == many.supersteps

    @settings(max_examples=5, deadline=None)
    @given(graph=graphs, config=configs,
           workers=st.integers(min_value=2, max_value=4))
    def test_partition_accounting_always_sums(self, graph, config, workers):
        predictor = SnapleLinkPredictor(config)
        report = predictor.predict(graph, backend="gas", workers=workers)
        assert len(report.partition_reports) == workers
        assert sum(
            partition.num_predictions
            for partition in report.partition_reports
        ) == len(report.predictions)
        assert sum(
            partition.num_vertices for partition in report.partition_reports
        ) == graph.num_vertices


class TestCrashAtAnySuperstep:
    @settings(max_examples=6, deadline=None)
    @given(graph=graphs, config=configs,
           partitioner=st.sampled_from(PARTITIONERS),
           crash_step=st.integers(min_value=0, max_value=2),
           partition=st.integers(min_value=0, max_value=1))
    def test_recovered_run_is_bit_identical(self, graph, config, partitioner,
                                            crash_step, partition):
        with SnapleLinkPredictor(config) as predictor, \
                tempfile.TemporaryDirectory() as scratch:
            baseline = predictor.predict(graph, backend="gas", workers=2,
                                         **partitioner_option(partitioner))
            # A fresh token per example keeps every drawn fault one-shot.
            fault = FaultSpec(
                superstep=crash_step, partition=partition,
                token_path=str(Path(scratch) / f"token-{uuid.uuid4().hex}"),
            )
            recovered = predictor.predict(
                graph, backend="gas", workers=2, fault=fault,
                **partitioner_option(partitioner),
            )
        assert recovered.extra["worker_restarts"] == 1.0
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)
        assert recovered.supersteps == baseline.supersteps
        for expected, actual in zip(baseline.partition_reports,
                                    recovered.partition_reports):
            assert actual.gather_invocations == expected.gather_invocations
            assert actual.apply_invocations == expected.apply_invocations
            assert actual.shipped_bytes == expected.shipped_bytes
