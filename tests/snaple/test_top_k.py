"""Unit tests for the kernel's ranking and per-vertex stream helpers."""

from __future__ import annotations

import random

from repro.snaple.kernel import top_k_predictions, vertex_rng


class TestTopK:
    def test_orders_by_score_descending(self):
        scores = {1: 0.2, 2: 0.9, 3: 0.5}
        assert top_k_predictions(scores, 2) == [2, 3]

    def test_ties_broken_by_vertex_id(self):
        scores = {5: 0.5, 3: 0.5, 9: 0.5}
        assert top_k_predictions(scores, 3) == [3, 5, 9]

    def test_k_larger_than_candidates(self):
        assert top_k_predictions({1: 0.1}, 10) == [1]

    def test_empty_scores(self):
        assert top_k_predictions({}, 5) == []


class TestTopKHeapEquivalence:
    """The heap-based top_k_predictions must equal the historical full sort."""

    @staticmethod
    def sorted_reference(scores, k):
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [vertex for vertex, _ in ranked[:k]]

    def test_equivalent_on_random_score_maps_with_ties(self):
        rng = random.Random(0)
        for trial in range(200):
            n = rng.randint(0, 40)
            # Draw from a small value set so ties are common.
            scores = {
                rng.randrange(1000): rng.choice([0.0, 0.25, 0.5, 0.5, 1.0, 2.0])
                for _ in range(n)
            }
            k = rng.randint(1, 8)
            assert top_k_predictions(scores, k) == \
                self.sorted_reference(scores, k), (trial, scores, k)

    def test_equivalent_when_k_exceeds_size(self):
        scores = {3: 1.0, 1: 1.0, 2: 0.5}
        assert top_k_predictions(scores, 10) == \
            self.sorted_reference(scores, 10) == [1, 3, 2]


class TestVertexRng:
    def test_same_inputs_same_stream(self):
        assert vertex_rng(3, 1, 42).random() == vertex_rng(3, 1, 42).random()

    def test_seed_salt_and_vertex_each_change_the_stream(self):
        base = vertex_rng(3, 1, 42).random()
        assert len({base, vertex_rng(4, 1, 42).random(),
                    vertex_rng(3, 0, 42).random(),
                    vertex_rng(3, 1, 43).random()}) == 4
