"""Streaming parity: served answers == cold batch predict on the final graph.

The acceptance contract of the serving subsystem: at any point in an edge
stream the service's predictions *and scores* are bit-identical to a cold
batch ``predict`` over the merged graph — for the parallel ``gas`` backend
(the per-vertex-RNG path), on one worker or four, under either seed.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.serving import PredictorService, ServingConfig
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor
from tests.conftest import SEEDS, over_seeds, reseeded

#: A plain configuration (no truncation on these degrees) and a config where
#: truncation and klocal sampling are active — the RNG-bearing phases.
CONFIGS = {
    "plain": SnapleConfig.paper_default(seed=3, k_local=6),
    "truncating": SnapleConfig.paper_default(
        "geomSum", seed=9, k=4, k_local=3, truncation_threshold=4,
        sampler_name="max",
    ),
}


def _stream(graph, count, seed):
    rng = np.random.default_rng(seed)
    edges, seen = [], set()
    while len(edges) < count:
        u = int(rng.integers(graph.num_vertices))
        v = int(rng.integers(graph.num_vertices))
        if u != v and (u, v) not in seen and not graph.has_edge(u, v):
            edges.append((u, v))
            seen.add((u, v))
    return edges


def _merged(graph, stream):
    src, dst = graph.edge_arrays()
    return DiGraph(
        graph.num_vertices,
        np.concatenate([src, np.asarray([u for u, _ in stream])]),
        np.concatenate([dst, np.asarray([v for _, v in stream])]),
    )


@pytest.fixture(scope="module")
def streamed_service(random_graph):
    """One service per (config, seed), fed a 15-edge stream crossing a
    compaction."""
    base = random_graph(150, 3, 0.3, seed=11)
    built = {}
    for (name, config), seed in itertools.product(CONFIGS.items(), SEEDS):
        stream = _stream(base, 15, seed=17)
        service = PredictorService(
            base, reseeded(config, seed),
            serving=ServingConfig(workers=2, compact_every=8),
        ).start()
        for edge in stream:
            service.ingest([edge])
        assert service.stats().compactions >= 1
        built[(name, seed)] = (service, _merged(base, stream))
    yield built
    for service, _ in built.values():
        service.stop()


@pytest.mark.parametrize("name", sorted(CONFIGS))
@over_seeds
@pytest.mark.parametrize("workers", [1, 4])
def test_stream_matches_cold_batch(streamed_service, name, seed, workers):
    service, merged = streamed_service[(name, seed)]
    with SnapleLinkPredictor(reseeded(CONFIGS[name], seed)) as predictor:
        report = predictor.predict(merged, backend="gas", workers=workers)
    served = service.report()
    assert served.predictions == report.predictions
    for u in range(merged.num_vertices):
        assert served.scores[u] == dict(report.scores[u])


@pytest.mark.parametrize("name", sorted(CONFIGS))
@over_seeds
def test_top_k_answers_match_cold_batch(streamed_service, name, seed):
    service, merged = streamed_service[(name, seed)]
    report = SnapleLinkPredictor(reseeded(CONFIGS[name], seed)).predict(
        merged, backend="gas", workers=1
    )
    for u in range(0, merged.num_vertices, 13):
        answer = service.top_k(u)
        assert answer.predicted == report.predictions[u]
        expected = [report.scores[u][z] for z in answer.predicted]
        assert answer.scores == expected
