"""Content-aware SNAPLE scoring (the extension sketched in Section 3.1).

The paper's raw similarity (equation (6)) is a set similarity over the two
endpoint neighborhoods; the text notes it "can be extended to content-based
metrics by simply including data attached to vertices in f".  This module
implements that extension on top of the vertex profiles of
:mod:`repro.graph.attributes`:

* a **hybrid raw similarity** blending the topological similarity of the
  truncated neighborhoods with a profile similarity of the two endpoints,
  weighted by ``content_weight``;
* a :class:`ContentAwareLinkPredictor` running the same
  truncate → select-``klocal`` → combine → aggregate pipeline as Algorithm 2
  with the hybrid similarity (``content_weight = 0`` reproduces the purely
  topological predictor exactly, which the test suite asserts).

Because the hybrid similarity only ever reads the profiles of the two
endpoints of an *existing* edge, the extension keeps SNAPLE's locality: no
profile is ever shipped along 2-hop paths, so the GAS data-flow analysis
of the topological scores carries over unchanged.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.graph.attributes import VertexProfiles, profile_cosine, profile_jaccard, profile_overlap
from repro.graph.digraph import DiGraph
from repro.runtime.backend import target_vertices
from repro.snaple.config import SnapleConfig
from repro.snaple.kernel import (
    build_truncated_neighborhoods,
    edge_similarities,
    fold_paths,
    select_klocal,
)

__all__ = [
    "ProfileSimilarityFn",
    "PROFILE_SIMILARITIES",
    "get_profile_similarity",
    "ContentConfig",
    "ContentPredictionResult",
    "ContentAwareLinkPredictor",
]

#: A profile similarity compares the tag sets of two vertices.
ProfileSimilarityFn = Callable[[frozenset[int], frozenset[int]], float]

#: Registry of named profile similarities.
PROFILE_SIMILARITIES: dict[str, ProfileSimilarityFn] = {
    "jaccard": profile_jaccard,
    "cosine": profile_cosine,
    "overlap": profile_overlap,
}


def get_profile_similarity(name: str) -> ProfileSimilarityFn:
    """Look up a profile similarity by name."""
    try:
        return PROFILE_SIMILARITIES[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown profile similarity {name!r}; available: "
            f"{', '.join(sorted(PROFILE_SIMILARITIES))}"
        ) from exc


@dataclass(frozen=True)
class ContentConfig:
    """Configuration of the content-aware extension.

    Parameters
    ----------
    snaple:
        The underlying :class:`~repro.snaple.config.SnapleConfig`
        (score, ``thrΓ``, ``klocal``, sampler, ``k``).
    content_weight:
        Weight ``w ∈ [0, 1]`` of the profile similarity in the hybrid raw
        similarity ``(1 - w)·sim_topo + w·sim_profile``.  ``0`` is the purely
        topological paper configuration; ``1`` ignores topology in the raw
        similarity (paths are still topological).
    profile_similarity_name:
        Which profile similarity blends with the topological one.
    """

    snaple: SnapleConfig = field(default_factory=SnapleConfig)
    content_weight: float = 0.5
    profile_similarity_name: str = "jaccard"

    def __post_init__(self) -> None:
        if not 0.0 <= self.content_weight <= 1.0:
            raise ConfigurationError("content_weight must be in [0, 1]")
        get_profile_similarity(self.profile_similarity_name)

    def describe(self) -> str:
        """One-line description used in experiment reports."""
        return (
            f"{self.snaple.describe()} + content "
            f"(w={self.content_weight:.2f}, {self.profile_similarity_name})"
        )


@dataclass
class ContentPredictionResult:
    """Predictions of the content-aware predictor plus timing."""

    predictions: dict[int, list[int]]
    scores: dict[int, dict[int, float]]
    config: ContentConfig
    wall_clock_seconds: float

    def predicted_edges(self) -> set[tuple[int, int]]:
        """All predicted edges as ``(source, predicted target)`` pairs."""
        return {
            (u, z) for u, targets in self.predictions.items() for z in targets
        }


class ContentAwareLinkPredictor:
    """SNAPLE scoring with a hybrid topology + content raw similarity.

    The pipeline is the kernel's Algorithm 2 (:mod:`repro.snaple.kernel`):
    truncate neighborhoods, compute raw similarities of adjacent vertices,
    keep the ``klocal`` best, combine along 2-hop paths and aggregate per
    candidate.  Only the raw similarity changes — its scalar per-edge loop
    blends the configured topological similarity (and the selection
    similarity of equation (11), when it differs) with the profile
    similarity of the edge's two endpoints.
    """

    def __init__(self, config: ContentConfig | None = None) -> None:
        self._config = config if config is not None else ContentConfig()

    @property
    def config(self) -> ContentConfig:
        return self._config

    def predict(
        self,
        graph: DiGraph,
        profiles: VertexProfiles,
        *,
        vertices: list[int] | None = None,
    ) -> ContentPredictionResult:
        """Run content-aware SNAPLE scoring on ``graph`` with ``profiles``.

        Ids in ``vertices`` outside ``[0, |V|)``, bools and non-integers
        raise :class:`~repro.errors.ConfigurationError` before any graph
        work.
        """
        if profiles.num_vertices < graph.num_vertices:
            raise ConfigurationError(
                f"profiles cover {profiles.num_vertices} vertices but the "
                f"graph has {graph.num_vertices}"
            )
        config = self._config
        snaple = config.snaple
        targets = target_vertices(graph, vertices)
        start = time.perf_counter()
        profile_similarity = get_profile_similarity(config.profile_similarity_name)
        weight = config.content_weight

        def hybrid(u: int, v: int, topo: float) -> float:
            if weight == 0.0:
                return topo
            content = profile_similarity(profiles.of(u), profiles.of(v))
            return (1.0 - weight) * topo + weight * content

        gamma = build_truncated_neighborhoods(graph, snaple)
        edges = edge_similarities(graph, gamma, snaple, blend=hybrid)
        predictions, scores, _ = fold_paths(
            gamma, select_klocal(edges, snaple), snaple, targets
        )
        return ContentPredictionResult(
            predictions=predictions,
            scores=scores,
            config=config,
            wall_clock_seconds=time.perf_counter() - start,
        )
