"""Prediction-quality metrics.

The paper's primary metric is **recall**: the proportion of removed edges the
predictor returns among its top-``k`` answers.  Because exactly one edge is
removed per eligible vertex and ``k`` is fixed, precision is proportional to
recall (Section 5.2); both are still provided, along with mean average
precision and per-vertex hit statistics used by the test suite.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.eval.protocol import EdgeRemovalSplit

__all__ = [
    "QualityReport",
    "recall",
    "precision",
    "mean_average_precision",
    "evaluate_predictions",
]


@dataclass(frozen=True)
class QualityReport:
    """Summary of prediction quality against a held-out edge set."""

    recall: float
    precision: float
    mean_average_precision: float
    hits: int
    num_removed: int
    num_predictions: int

    def describe(self) -> str:
        """One-line textual summary."""
        return (
            f"recall={self.recall:.3f} precision={self.precision:.3f} "
            f"MAP={self.mean_average_precision:.3f} "
            f"hits={self.hits}/{self.num_removed}"
        )


def _hit_edges(predictions: Mapping[int, list[int]],
               removed: frozenset[tuple[int, int]]) -> int:
    hits = 0
    for u, targets in predictions.items():
        for z in targets:
            if (u, z) in removed:
                hits += 1
    return hits


def recall(predictions: Mapping[int, list[int]],
           split: EdgeRemovalSplit) -> float:
    """Fraction of removed edges present in the predictions."""
    if split.num_removed == 0:
        return 0.0
    return _hit_edges(predictions, split.removed_edges) / split.num_removed


def precision(predictions: Mapping[int, list[int]],
              split: EdgeRemovalSplit) -> float:
    """Fraction of predicted edges that were actually removed edges."""
    total_predictions = sum(len(targets) for targets in predictions.values())
    if total_predictions == 0:
        return 0.0
    return _hit_edges(predictions, split.removed_edges) / total_predictions


def mean_average_precision(predictions: Mapping[int, list[int]],
                           split: EdgeRemovalSplit) -> float:
    """Mean (over affected vertices) of the average precision of the ranking."""
    affected = split.affected_vertices()
    if not affected:
        return 0.0
    # One pass groups the held-out targets; asking the split per vertex
    # would rescan every removed edge for each affected vertex.
    relevant_targets: dict[int, set[int]] = {}
    for s, t in split.removed_edges:
        relevant_targets.setdefault(s, set()).add(t)
    total = 0.0
    for u in affected:
        relevant = relevant_targets[u]
        ranked = predictions.get(u, [])
        hits = 0
        average = 0.0
        for rank, z in enumerate(ranked, start=1):
            if z in relevant:
                hits += 1
                average += hits / rank
        total += average / len(relevant)
    return total / len(affected)


def evaluate_predictions(predictions: Mapping[int, list[int]],
                         split: EdgeRemovalSplit) -> QualityReport:
    """Compute all quality metrics at once."""
    hits = _hit_edges(predictions, split.removed_edges)
    total_predictions = sum(len(targets) for targets in predictions.values())
    return QualityReport(
        recall=hits / split.num_removed if split.num_removed else 0.0,
        precision=hits / total_predictions if total_predictions else 0.0,
        mean_average_precision=mean_average_precision(predictions, split),
        hits=hits,
        num_removed=split.num_removed,
        num_predictions=total_predictions,
    )
