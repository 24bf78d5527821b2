"""Random-walk personalized-PageRank link prediction (the Cassovary baseline).

Section 5.9 of the paper evaluates a single-machine competitor: for every
vertex, run ``w`` random walks of depth ``d`` on an in-memory graph and
recommend the ``k`` most-visited vertices that are not already neighbors.
Increasing ``w`` improves recall at a steep cost in time, while increasing
``d`` beyond 3 brings little benefit — the trade-off reproduced by
Figure 11 and Table 6.  The ``cassovary`` and ``random_walk_ppr`` engines
(:mod:`repro.runtime.baselines`) run it; :class:`RandomWalkConfig` is the
experiments' value object for its knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["RandomWalkConfig"]


@dataclass(frozen=True)
class RandomWalkConfig:
    """Knobs of the random-walk PPR predictor (``w``, ``d``, ``k``)."""

    num_walks: int = 100
    depth: int = 3
    k: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_walks < 1:
            raise ConfigurationError("num_walks must be >= 1")
        if self.depth < 1:
            raise ConfigurationError("depth must be >= 1")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")

    def describe(self) -> str:
        """One-line description used by the Figure 11 report."""
        return f"PPR w={self.num_walks} d={self.depth} k={self.k}"
