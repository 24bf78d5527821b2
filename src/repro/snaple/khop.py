"""K-hop generalization of SNAPLE's path scoring.

The paper restricts path-combination to 2-hop paths but notes (footnote 2,
Section 3.1) that the approach extends to longer paths by recursively
applying the combinator ``⊗`` along the path — a fold over the raw
similarities of its edges.  This module implements that extension: candidates
are vertices reachable through paths of length 2 up to ``num_hops`` (simple
ones beyond two hops) built from each vertex's ``klocal`` kept neighbors,
each path contributes the
fold of its edge similarities, and the aggregator ``⊕`` reduces all paths
reaching the same candidate.

Phases 1 and 2 and the path fold are the kernel's own
(:mod:`repro.snaple.kernel`); ``num_hops`` is the fold's ``hops``.  With
``num_hops = 2`` the predictor therefore is exactly the paper's Algorithm 2
(the test suite asserts equality with
:class:`~repro.snaple.predictor.SnapleLinkPredictor`, self-loops included),
so the K-hop ablation isolates the effect of longer paths alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.runtime.backend import target_vertices
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import (
    build_truncated_neighborhoods,
    edge_similarities,
    fold_paths,
    select_klocal,
)

__all__ = ["KHopPredictionResult", "KHopLinkPredictor"]


@dataclass
class KHopPredictionResult:
    """Predictions for every vertex plus path-exploration statistics."""

    predictions: dict[int, list[int]]
    scores: dict[int, dict[int, float]]
    config: SnapleConfig
    num_hops: int
    wall_clock_seconds: float
    #: Number of simple paths explored, per path length (2 .. num_hops).
    paths_per_length: dict[int, int] = field(default_factory=dict)

    @property
    def total_paths(self) -> int:
        """Total number of simple paths explored across all vertices."""
        return sum(self.paths_per_length.values())

    def predicted_edges(self) -> set[tuple[int, int]]:
        """All predicted edges as ``(source, predicted target)`` pairs."""
        return {
            (u, z) for u, targets in self.predictions.items() for z in targets
        }


class KHopLinkPredictor:
    """SNAPLE scoring over paths of length up to ``num_hops``.

    Parameters
    ----------
    config:
        The standard :class:`~repro.snaple.config.SnapleConfig`; the score's
        combinator is folded along each path and its aggregator reduces the
        per-candidate path values exactly as in the 2-hop case.
    num_hops:
        Maximum path length ``K`` (the paper's default is 2).  The candidate
        space grows as ``klocal ** K``; keep ``klocal`` small for ``K > 2``.
    """

    def __init__(self, config: SnapleConfig | None = None, *, num_hops: int = 2) -> None:
        if num_hops < 2:
            raise ConfigurationError("num_hops must be at least 2")
        self._config = config if config is not None else SnapleConfig()
        self._num_hops = num_hops

    @property
    def config(self) -> SnapleConfig:
        return self._config

    @property
    def num_hops(self) -> int:
        return self._num_hops

    def predict(self, graph: DiGraph, *,
                vertices: list[int] | None = None) -> KHopPredictionResult:
        """Score candidates over paths of length 2 .. ``num_hops``.

        Ids in ``vertices`` outside ``[0, |V|)``, bools and non-integers
        raise :class:`~repro.errors.ConfigurationError` before any graph
        work.
        """
        config = self._config
        targets = target_vertices(graph, vertices)
        start = time.perf_counter()
        gamma = build_truncated_neighborhoods(graph, config)
        kept = select_klocal(edge_similarities(graph, gamma, config), config)
        predictions, scores, paths_per_length = fold_paths(
            gamma, kept, config, targets, hops=self._num_hops
        )
        return KHopPredictionResult(
            predictions=predictions,
            scores=scores,
            config=config,
            num_hops=self._num_hops,
            wall_clock_seconds=time.perf_counter() - start,
            paths_per_length=paths_per_length,
        )
