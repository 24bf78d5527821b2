"""Unit tests for the recall/precision/MAP metrics."""

from __future__ import annotations

import pytest

from repro.eval.metrics import (
    evaluate_predictions,
    mean_average_precision,
    precision,
    recall,
)
from repro.eval.protocol import EdgeRemovalSplit
from repro.graph.digraph import DiGraph


def _make_split(removed: set[tuple[int, int]]) -> EdgeRemovalSplit:
    return EdgeRemovalSplit(
        train_graph=DiGraph(10, [], []),
        removed_edges=frozenset(removed),
        removed_per_vertex=1,
        min_degree=3,
        seed=0,
    )


class TestRecall:
    def test_perfect_recall(self):
        split = _make_split({(0, 1), (2, 3)})
        predictions = {0: [1], 2: [3]}
        assert recall(predictions, split) == pytest.approx(1.0)

    def test_zero_recall(self):
        split = _make_split({(0, 1)})
        assert recall({0: [5, 6]}, split) == 0.0

    def test_partial_recall(self):
        split = _make_split({(0, 1), (2, 3), (4, 5), (6, 7)})
        predictions = {0: [1], 2: [9], 4: [5], 6: []}
        assert recall(predictions, split) == pytest.approx(0.5)

    def test_empty_split(self):
        assert recall({0: [1]}, _make_split(set())) == 0.0

    def test_wrong_direction_not_counted(self):
        split = _make_split({(0, 1)})
        assert recall({1: [0]}, split) == 0.0


class TestPrecision:
    def test_precision_counts_correct_fraction_of_answers(self):
        split = _make_split({(0, 1)})
        predictions = {0: [1, 2, 3, 4, 5]}
        assert precision(predictions, split) == pytest.approx(0.2)

    def test_precision_with_no_predictions(self):
        assert precision({}, _make_split({(0, 1)})) == 0.0

    def test_precision_proportional_to_recall_with_fixed_k(self):
        # With one removed edge per vertex and k answers per vertex,
        # precision = recall / k (Section 5.2 of the paper).
        split = _make_split({(0, 1), (2, 3)})
        predictions = {0: [1, 9, 9, 9, 9], 2: [8, 8, 8, 8, 8]}
        assert precision(predictions, split) == pytest.approx(
            recall(predictions, split) / 5
        )


class TestMAP:
    def test_hit_at_rank_one(self):
        split = _make_split({(0, 1)})
        assert mean_average_precision({0: [1, 2, 3]}, split) == pytest.approx(1.0)

    def test_hit_at_rank_two(self):
        split = _make_split({(0, 1)})
        assert mean_average_precision({0: [9, 1]}, split) == pytest.approx(0.5)

    def test_miss_gives_zero(self):
        split = _make_split({(0, 1)})
        assert mean_average_precision({0: [7, 8]}, split) == 0.0

    def test_empty_split(self):
        assert mean_average_precision({0: [1]}, _make_split(set())) == 0.0

    def test_each_vertex_ranks_against_its_own_targets(self):
        split = _make_split({(0, 1), (0, 2), (3, 4), (5, 6)})
        predictions = {0: [2, 9, 1], 3: [4], 5: [4]}
        # Vertex 0: hits at ranks 1 and 3 of two targets; 3: rank 1; 5: none.
        expected = ((1 / 1 + 2 / 3) / 2 + 1.0 + 0.0) / 3
        assert mean_average_precision(predictions, split) == pytest.approx(
            expected)


class TestQualityReport:
    def test_report_fields_consistent(self):
        split = _make_split({(0, 1), (2, 3)})
        predictions = {0: [1, 7], 2: [9, 8]}
        report = evaluate_predictions(predictions, split)
        assert report.hits == 1
        assert report.num_removed == 2
        assert report.num_predictions == 4
        assert report.recall == pytest.approx(0.5)
        assert report.precision == pytest.approx(0.25)

    def test_describe_contains_numbers(self):
        split = _make_split({(0, 1)})
        report = evaluate_predictions({0: [1]}, split)
        text = report.describe()
        assert "recall=1.000" in text
        assert "hits=1/1" in text
