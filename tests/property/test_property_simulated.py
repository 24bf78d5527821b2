"""Hypothesis property of the serial simulated engine's accounting.

The serial ``gas`` backend derives its supersteps' work, traffic and memory
from the kernel's arrays (:mod:`repro.snaple.accounting`).  On any
multigraph (duplicate edges, self-loops, isolated vertices), cluster,
vertex-cut and configuration, that accounting must equal the one the
engine charges while running Algorithm 2's GAS program
(``tests.conftest.serial_program_reference``), field by field, and the
predictions must match.  The fixed grid lives in
``tests/runtime/test_simulated_parity.py``.
"""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gas.cluster import TYPE_I, cluster_of
from repro.graph.digraph import DiGraph
from repro.runtime import get_backend
from repro.runtime.partition import (
    GreedyVertexCut,
    HdrfVertexCut,
    RandomVertexCut,
)
from repro.snaple import kernel
from repro.snaple.config import SnapleConfig
from repro.snaple.scoring import PAPER_SCORES
from tests.conftest import examples, serial_program_reference


@st.composite
def multigraphs(draw) -> DiGraph:
    """Up to 40 vertices, random edges with repeats and self-loops."""
    num_vertices = draw(st.integers(min_value=1, max_value=40))
    vertex = st.integers(min_value=0, max_value=num_vertices - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=160))
    return DiGraph(num_vertices, [u for u, _ in edges], [v for _, v in edges])


configs = st.builds(
    SnapleConfig.paper_default,
    st.sampled_from(sorted(PAPER_SCORES)),
    k=st.integers(min_value=1, max_value=5),
    k_local=st.sampled_from([2, 4, math.inf]),
    truncation_threshold=st.sampled_from([2.0, 5.0, math.inf]),
    sampler_name=st.sampled_from(["max", "min", "rnd"]),
    seed=st.integers(min_value=0, max_value=100),
)

partitioners = st.sampled_from([None, RandomVertexCut(), GreedyVertexCut(),
                                HdrfVertexCut()])


@settings(max_examples=examples(40))
@given(graph=multigraphs(), config=configs,
       exact=st.booleans(),
       machines=st.integers(min_value=1, max_value=5),
       partitioner=partitioners,
       block_paths=st.sampled_from([1, 16, kernel.BLOCK_PATHS]),
       data=st.data())
def test_accounting_equals_the_gas_program(graph, config, exact, machines,
                                           partitioner, block_paths, data):
    """Also over phase-3b blocks of a few paths, so that block boundaries
    (and targets over the bound) fall everywhere."""
    config = dataclasses.replace(config, exact_truncation=exact)
    vertices = data.draw(st.none() | st.lists(
        st.integers(min_value=0, max_value=graph.num_vertices - 1),
        max_size=8))
    cluster = cluster_of(TYPE_I, machines)
    with mock.patch.object(kernel, "BLOCK_PATHS", block_paths):
        report = get_backend("gas", cluster=cluster,
                             partitioner=partitioner).prepare(
            graph, config).run(vertices=vertices)
    predictions, _, run = serial_program_reference(
        graph, config, cluster, partitioner, vertices=vertices)
    assert report.predictions == predictions
    for step, expected in zip(report.native.metrics.steps, run.metrics.steps,
                              strict=True):
        assert dataclasses.replace(step, wall_clock_seconds=0.0) == \
            dataclasses.replace(expected, wall_clock_seconds=0.0)
    assert report.simulated_seconds == run.simulated_seconds
