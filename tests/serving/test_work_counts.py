"""Pinned serving work counts: how much an update stream rescores.

A fixed 64-edge stream on a 1000-vertex graph, compacting after 32 delta
edges.  The counts measure the dirty-region work and the pair-cache reuse,
which a change to how the index stores or patches its state must not move;
the digest pins the answers.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.graph.generators import powerlaw_cluster
from repro.serving import IncrementalIndex
from repro.snaple.config import SnapleConfig

STREAM_EDGES = 64
COMPACT_EVERY = 32


def _stream(graph, count: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(graph.num_vertices, size=2))
        if u != v and (u, v) not in edges and not graph.has_edge(u, v):
            edges.append((u, v))
    return edges


def _digest(predictions: dict[int, list[int]]) -> str:
    digest = hashlib.sha256()
    for u in sorted(predictions):
        digest.update(repr((u, predictions[u])).encode())
    return digest.hexdigest()


def test_stream_work_counts_are_pinned():
    graph = powerlaw_cluster(1000, 5, 0.5, seed=42)
    index = IncrementalIndex(graph,
                             SnapleConfig.paper_default(seed=42, k_local=20))
    for edge in _stream(graph, STREAM_EDGES, seed=42):
        index.apply_edges([edge])
        if index.graph.num_delta_edges >= COMPACT_EVERY:
            index.compact()
    cache = index.pair_cache
    counts = {
        "rescored_total": index.rescored_total,
        "pair_cache.hits": cache.hits,
        "pair_cache.misses": cache.misses,
        "invalidated": cache.invalidated,
        "predictions_digest": _digest(index.all_predictions()),
    }
    assert counts == {
        "rescored_total": 9208,
        "pair_cache.hits": 10288,
        "pair_cache.misses": 5635,
        "invalidated": 596,
        "predictions_digest":
            "063c38455adbf5fa2d46fa61dc3bf99ae6b3db4609d7c7c5b9d3665fed26869f",
    }
