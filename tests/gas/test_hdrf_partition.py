"""Tests for the HDRF vertex-cut and the cross-partitioner orderings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.runtime.partition import (
    GreedyVertexCut,
    HdrfVertexCut,
    RandomVertexCut,
    partition_graph,
)


class TestHdrfVertexCut:
    def test_rejects_negative_balance_weight(self):
        with pytest.raises(PartitionError):
            HdrfVertexCut(balance_weight=-1.0)

    def test_every_edge_is_assigned_to_a_valid_machine(self, medium_social_graph):
        partition = partition_graph(
            medium_social_graph, 8, partitioner=HdrfVertexCut(), seed=1
        )
        assert partition.edge_machine.shape == (medium_social_graph.num_edges,)
        assert partition.edge_machine.min() >= 0
        assert partition.edge_machine.max() < 8

    def test_deterministic_for_a_seed(self, small_social_graph):
        first = partition_graph(
            small_social_graph, 4, partitioner=HdrfVertexCut(), seed=7
        )
        second = partition_graph(
            small_social_graph, 4, partitioner=HdrfVertexCut(), seed=7
        )
        assert np.array_equal(first.edge_machine, second.edge_machine)

    def test_default_balance_keeps_load_even(self, medium_social_graph):
        partition = partition_graph(
            medium_social_graph, 8, partitioner=HdrfVertexCut(), seed=1
        )
        assert partition.load_imbalance() < 1.3

    def test_single_machine_degenerates_gracefully(self, small_social_graph):
        partition = partition_graph(
            small_social_graph, 1, partitioner=HdrfVertexCut(), seed=1
        )
        assert partition.replication_factor() == pytest.approx(1.0)

    def test_low_balance_weight_trades_balance_for_replication(self, medium_social_graph):
        focused = partition_graph(
            medium_social_graph, 8, partitioner=HdrfVertexCut(balance_weight=0.5), seed=1
        )
        balanced = partition_graph(
            medium_social_graph, 8, partitioner=HdrfVertexCut(balance_weight=4.0), seed=1
        )
        assert focused.replication_factor() < balanced.replication_factor()
        assert focused.load_imbalance() > balanced.load_imbalance()


class TestPartitionerOrdering:
    """The replication-factor ordering the partitioning ablation relies on."""

    @pytest.fixture(scope="class")
    def clustered_graph(self, random_graph):
        return random_graph(600, 4, 0.5, seed=3)

    def test_hdrf_replicates_less_than_greedy_and_random(self, clustered_graph):
        factors = {}
        for name, partitioner in (
            ("random", RandomVertexCut()),
            ("greedy", GreedyVertexCut()),
            ("hdrf", HdrfVertexCut()),
        ):
            partition = partition_graph(
                clustered_graph, 8, partitioner=partitioner, seed=1
            )
            factors[name] = partition.replication_factor()
        assert factors["hdrf"] < factors["greedy"] < factors["random"]

    def test_all_partitioners_cover_every_machine(self, clustered_graph):
        for partitioner in (RandomVertexCut(), GreedyVertexCut(), HdrfVertexCut()):
            partition = partition_graph(
                clustered_graph, 4, partitioner=partitioner, seed=2
            )
            assert set(np.unique(partition.edge_machine).tolist()) == {0, 1, 2, 3}

    def test_replication_factor_never_below_one(self, clustered_graph):
        for partitioner in (RandomVertexCut(), GreedyVertexCut(), HdrfVertexCut()):
            partition = partition_graph(
                clustered_graph, 8, partitioner=partitioner, seed=2
            )
            assert partition.replication_factor() >= 1.0
