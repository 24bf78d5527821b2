"""Baselines: naive GAS 2-hop prediction, Cassovary-like walks, classic scores.

Each one runs as a registry engine (:mod:`repro.runtime.baselines`):
``gas_baseline``, ``cassovary``, ``random_walk_ppr`` and ``topological``.
"""

from repro.baselines.cassovary import InMemoryGraph, WalkStats
from repro.baselines.random_walk_ppr import RandomWalkConfig
from repro.baselines.topological import TOPOLOGICAL_SCORES

__all__ = [
    "InMemoryGraph",
    "WalkStats",
    "RandomWalkConfig",
    "TOPOLOGICAL_SCORES",
]
