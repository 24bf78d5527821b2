"""Baselines: naive GAS 2-hop prediction, Cassovary-like walks, classic scores."""

from repro.baselines.cassovary import InMemoryGraph, WalkStats
from repro.baselines.gas_baseline import (
    BaselinePredictionResult,
    GasBaselinePredictor,
)
from repro.baselines.random_walk_ppr import (
    RandomWalkConfig,
    RandomWalkPPRPredictor,
    RandomWalkPredictionResult,
)
from repro.baselines.topological import (
    TOPOLOGICAL_SCORES,
    TopologicalPredictionResult,
    TopologicalPredictor,
)

__all__ = [
    "GasBaselinePredictor",
    "BaselinePredictionResult",
    "InMemoryGraph",
    "WalkStats",
    "RandomWalkConfig",
    "RandomWalkPPRPredictor",
    "RandomWalkPredictionResult",
    "TopologicalPredictor",
    "TopologicalPredictionResult",
    "TOPOLOGICAL_SCORES",
]
