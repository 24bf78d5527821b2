"""Hypothesis properties of checkpointed crash recovery.

The property that makes fault tolerance trustworthy: **crashing at any
superstep never changes the answer**.  For random graphs, configurations,
execution kinds and crash points, a run that loses a worker mid-superstep
and recovers from its checkpoints produces bit-identical predictions,
candidate scores and deterministic accounting counters versus an
uninterrupted run — the per-vertex ``(seed, step, vertex)`` RNG streams make
the replayed supersteps exact — under either vertex-cut.

Each example spins up real worker pools twice, so the graphs stay small and
the example counts low; the fixed-grid suite in
``tests/runtime/test_checkpoint_recovery.py`` covers the full
{paper, custom} × {random, greedy} × {1, 4 workers} matrix.
"""

from __future__ import annotations

import tempfile
import uuid
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import powerlaw_cluster
from repro.runtime.checkpoint import FaultSpec
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import PARTITIONERS, partitioner_option

graphs = st.builds(
    powerlaw_cluster,
    st.integers(min_value=20, max_value=50),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=300),
)

configs = st.builds(
    SnapleConfig.paper_default,
    st.sampled_from(["linearSum", "counter"]),
    k=st.integers(min_value=1, max_value=4),
    k_local=st.sampled_from([4, 8]),
    truncation_threshold=st.sampled_from([4.0, 100.0]),
    seed=st.integers(min_value=0, max_value=50),
)


def one_shot_fault(scratch: Path, superstep: int, partition: int) -> FaultSpec:
    """A fresh token per example keeps every drawn fault one-shot."""
    token = scratch / f"token-{uuid.uuid4().hex}"
    return FaultSpec(superstep=superstep, partition=partition,
                     token_path=str(token))


class TestCrashAtAnySuperstep:
    @settings(max_examples=6, deadline=None)
    @given(graph=graphs, config=configs,
           partitioner=st.sampled_from(PARTITIONERS),
           crash_step=st.integers(min_value=0, max_value=2),
           partition=st.integers(min_value=0, max_value=1))
    def test_recovered_run_is_bit_identical(self, graph, config, partitioner,
                                            crash_step, partition):
        predictor = SnapleLinkPredictor(config)
        baseline = predictor.predict(graph, backend="gas", workers=2,
                                     **partitioner_option(partitioner))
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            fault = one_shot_fault(scratch, crash_step, partition)
            recovered = predictor.predict(
                graph, backend="gas", workers=2,
                checkpoint_dir=scratch / "ckpt", fault=fault,
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

    @settings(max_examples=4, deadline=None)
    @given(graph=graphs, config=configs,
           crash_step=st.integers(min_value=0, max_value=2),
           cadence=st.integers(min_value=1, max_value=3))
    def test_resume_parity_independent_of_cadence(self, graph, config,
                                                  crash_step, cadence):
        """Any checkpoint cadence (including none due) recovers identically."""
        predictor = SnapleLinkPredictor(config)
        baseline = predictor.predict(graph, backend="gas", workers=2)
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            fault = one_shot_fault(scratch, crash_step, 0)
            recovered = predictor.predict(
                graph, backend="gas", workers=2,
                checkpoint_dir=scratch / "ckpt", checkpoint_every=cadence,
                fault=fault,
            )
        assert recovered.predictions == baseline.predictions
        assert dict(recovered.scores) == dict(baseline.scores)
