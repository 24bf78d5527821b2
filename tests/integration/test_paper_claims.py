"""Integration tests checking the *shape* of the paper's headline claims.

These tests run the actual experiment pipeline on reduced-scale synthetic
dataset analogs and assert the qualitative relationships the paper reports
(who wins, in which direction a knob moves recall or time), not the absolute
numbers.  The claims, numbered as the test classes below:

1. SNAPLE beats the GAS baseline (Table 5): higher recall, less simulated
   time, and the baseline ships several times more data.
2. ``klocal`` sampling is the big lever (Table 5): a large speedup for a
   small recall loss, and more speedup than ``thrΓ`` truncation alone.
3. Scalability (Figure 5): time grows with the graph, shrinks with more
   cores, and grows with ``klocal``.
4. The truncation threshold (Figure 6): recall saturates once ``thrΓ``
   covers most vertices' neighborhoods.
5. The sampling policy (Figure 7): ``Γmax`` beats ``Γrnd`` and ``Γmin`` at
   small ``klocal``.
6. Aggregators (Figure 8): the Sum family improves with ``klocal`` and
   beats the Geom family.
7. Protocol sensitivity (Figures 9 and 10): recall rises with ``k`` and
   falls with the number of removed edges per vertex.
8. Single-machine comparison (Table 6, Figure 11): SNAPLE reaches at least
   80% of the random-walk PPR competitor's recall in less time, and walks
   deeper than three hops barely help the competitor.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines.random_walk_ppr import RandomWalkConfig
from repro.eval.runner import ExperimentRunner
from repro.gas.cluster import TYPE_I, TYPE_II, cluster_of
from repro.graph.stats import coverage_threshold
from repro.snaple.config import SnapleConfig

SCALE = 0.4
SEED = 21


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def cluster():
    return cluster_of(TYPE_II, 4)


@pytest.fixture(scope="module")
def baseline_run(runner, cluster):
    return runner.run_baseline_gas("gowalla", cluster, enforce_memory=False)


@pytest.fixture(scope="module")
def snaple_full_run(runner, cluster):
    config = SnapleConfig.paper_default(
        "linearSum", k_local=math.inf, truncation_threshold=math.inf, seed=SEED
    )
    return runner.run_snaple_gas("gowalla", config, cluster, enforce_memory=False)


@pytest.fixture(scope="module")
def snaple_sampled_run(runner, cluster):
    config = SnapleConfig.paper_default("linearSum", k_local=20, seed=SEED)
    return runner.run_snaple_gas("gowalla", config, cluster, enforce_memory=False)


class TestClaim1SnapleBeatsBaseline:
    def test_recall_improves(self, baseline_run, snaple_full_run):
        # Table 5: SNAPLE's recall clearly exceeds BASELINE's.
        assert snaple_full_run.recall > 1.2 * baseline_run.recall

    def test_time_improves(self, baseline_run, snaple_full_run):
        # Table 5: SNAPLE is faster even without truncation or sampling.
        assert snaple_full_run.time_seconds < baseline_run.time_seconds

    def test_baseline_ships_far_more_data(self, baseline_run, snaple_full_run):
        assert (
            baseline_run.extra["network_bytes"]
            > 3 * snaple_full_run.extra["network_bytes"]
        )


class TestClaim2SamplingIsTheBigLever:
    def test_klocal_gives_large_speedup_with_small_recall_loss(
        self, snaple_full_run, snaple_sampled_run
    ):
        speedup = snaple_full_run.time_seconds / snaple_sampled_run.time_seconds
        assert speedup > 1.2
        assert snaple_sampled_run.recall > 0.8 * snaple_full_run.recall

    def test_truncation_secondary_to_sampling(self, runner, cluster, snaple_full_run):
        truncated = runner.run_snaple_gas(
            "gowalla",
            SnapleConfig.paper_default(
                "linearSum", k_local=math.inf, truncation_threshold=20, seed=SEED
            ),
            cluster,
            enforce_memory=False,
        )
        sampled = runner.run_snaple_gas(
            "gowalla",
            SnapleConfig.paper_default(
                "linearSum", k_local=20, truncation_threshold=math.inf, seed=SEED
            ),
            cluster,
            enforce_memory=False,
        )
        truncation_speedup = snaple_full_run.time_seconds / truncated.time_seconds
        sampling_speedup = snaple_full_run.time_seconds / sampled.time_seconds
        assert sampling_speedup >= truncation_speedup


class TestClaim3Scalability:
    def test_time_grows_with_graph_size(self, runner):
        config = SnapleConfig.paper_default("linearSum", k_local=20, seed=SEED)
        cluster = cluster_of(TYPE_I, 8)
        small = runner.run_snaple_gas("gowalla", config, cluster, enforce_memory=False)
        large = runner.run_snaple_gas("livejournal", config, cluster,
                                      enforce_memory=False)
        assert large.time_seconds > small.time_seconds

    def test_more_cores_reduce_time(self, runner):
        config = SnapleConfig.paper_default("linearSum", k_local=20, seed=SEED)
        few = runner.run_snaple_gas("livejournal", config, cluster_of(TYPE_I, 8),
                                    enforce_memory=False)
        many = runner.run_snaple_gas("livejournal", config, cluster_of(TYPE_I, 32),
                                     enforce_memory=False)
        assert many.time_seconds < few.time_seconds

    def test_larger_klocal_costs_more_time(self, runner):
        cluster = cluster_of(TYPE_I, 8)
        forty = runner.run_snaple_gas(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=40, seed=SEED),
            cluster, enforce_memory=False,
        )
        eighty = runner.run_snaple_gas(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=80, seed=SEED),
            cluster, enforce_memory=False,
        )
        assert eighty.time_seconds >= forty.time_seconds


class TestClaim4TruncationThreshold:
    def test_recall_saturates_once_threshold_covers_most_vertices(self, runner):
        graph = runner.dataset("livejournal")
        saturation_point = coverage_threshold(graph, 0.8)
        low = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=40,
                                       truncation_threshold=2, seed=SEED),
        )
        saturated = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=40,
                                       truncation_threshold=saturation_point,
                                       seed=SEED),
        )
        beyond = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=40,
                                       truncation_threshold=saturation_point * 4,
                                       seed=SEED),
        )
        assert saturated.recall >= low.recall
        assert abs(beyond.recall - saturated.recall) <= 0.05


class TestClaim5SamplingPolicy:
    def test_gamma_max_beats_alternatives_at_small_klocal(self, runner):
        recalls = {}
        for policy in ("max", "min", "rnd"):
            config = SnapleConfig.paper_default(
                "linearSum", k_local=5, sampler_name=policy, seed=SEED
            )
            recalls[policy] = runner.run_snaple_local("livejournal", config).recall
        assert recalls["max"] >= recalls["rnd"]
        assert recalls["max"] > recalls["min"]


class TestClaim6AggregatorBehaviour:
    def test_sum_aggregator_improves_with_klocal(self, runner):
        small = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=5, seed=SEED),
        )
        large = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=80, seed=SEED),
        )
        assert large.recall >= small.recall

    def test_sum_family_beats_geom_family(self, runner):
        linear_sum = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=40, seed=SEED),
        )
        linear_geom = runner.run_snaple_local(
            "livejournal",
            SnapleConfig.paper_default("linearGeom", k_local=40, seed=SEED),
        )
        # Figure 8: the Sum aggregator family reaches higher recall than the
        # Geom family at comparable settings.
        assert linear_sum.recall >= linear_geom.recall


class TestClaim7ProtocolSensitivity:
    def test_recall_increases_with_k(self, runner):
        k5 = runner.run_snaple_local(
            "pokec", SnapleConfig.paper_default("linearSum", k=5, k_local=40, seed=SEED)
        )
        k20 = runner.run_snaple_local(
            "pokec", SnapleConfig.paper_default("linearSum", k=20, k_local=40, seed=SEED)
        )
        assert k20.recall > k5.recall

    def test_recall_decreases_with_removed_edges(self, runner):
        config = SnapleConfig.paper_default("linearSum", k_local=40, seed=SEED)
        one = runner.run_snaple_local("pokec", config, removed_edges_per_vertex=1)
        five = runner.run_snaple_local("pokec", config, removed_edges_per_vertex=5)
        assert five.recall < one.recall


class TestClaim8SingleMachineComparison:
    def test_snaple_beats_random_walk_ppr_on_one_machine(self, runner):
        ppr = runner.run_random_walk(
            "livejournal", RandomWalkConfig(num_walks=100, depth=3, seed=SEED)
        )
        snaple = runner.run_snaple_gas(
            "livejournal",
            SnapleConfig.paper_default("linearSum", k_local=20, seed=SEED),
            cluster_of(TYPE_II, 1),
            enforce_memory=False,
        )
        # Table 6: equal or better recall in less (simulated) time.
        assert snaple.recall >= 0.8 * ppr.recall
        assert snaple.time_seconds < ppr.time_seconds

    def test_walk_depth_beyond_three_barely_helps(self, runner):
        shallow = runner.run_random_walk(
            "livejournal", RandomWalkConfig(num_walks=100, depth=3, seed=SEED)
        )
        deep = runner.run_random_walk(
            "livejournal", RandomWalkConfig(num_walks=100, depth=10, seed=SEED)
        )
        assert deep.recall <= shallow.recall + 0.05
        assert deep.time_seconds > shallow.time_seconds
