"""Reference implementations the shipped engines are held to.

:class:`GasEngine` runs GAS vertex programs edge by edge: Algorithm 2's
three steps (:func:`build_snaple_steps`) and the naive BASELINE's two
(:class:`NeighborhoodPropagationStep`, :class:`DirectScoringStep`).  No
engine in ``src/`` runs them; the parity grids compare the engines'
answers and accounting against them.
"""

from tests.oracle.baseline_program import (
    DirectScoringStep,
    NeighborhoodPropagationStep,
)
from tests.oracle.engine import GasEngine
from tests.oracle.snaple_program import build_snaple_steps

__all__ = ["GasEngine", "build_snaple_steps", "NeighborhoodPropagationStep",
           "DirectScoringStep"]
