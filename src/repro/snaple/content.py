"""Profile similarities for content-aware SNAPLE scoring (Section 3.1).

The paper's raw similarity (equation (6)) is a set similarity over the two
endpoint neighborhoods; the text notes it "can be extended to content-based
metrics by simply including data attached to vertices in f".  The
``content`` engine (:class:`~repro.runtime.engines.ContentBackend`)
implements that extension on top of the vertex profiles of
:mod:`repro.graph.attributes`: its raw similarity blends the topological
similarity of the truncated neighborhoods with one of the profile
similarities registered here, weighted by ``content_weight``.

Because the hybrid similarity only ever reads the profiles of the two
endpoints of an *existing* edge, the extension keeps SNAPLE's locality: no
profile is ever shipped along 2-hop paths, so the GAS data-flow analysis
of the topological scores carries over unchanged.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.graph.attributes import profile_cosine, profile_jaccard, profile_overlap

__all__ = [
    "ProfileSimilarityFn",
    "PROFILE_SIMILARITIES",
    "get_profile_similarity",
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
