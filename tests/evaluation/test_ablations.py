"""Tests for the ablation experiments (small scale, shape-level assertions)."""

from __future__ import annotations

import pytest

from repro.eval.experiments import EXPERIMENTS
from repro.eval.experiments.ablation_content import run_ablation_content
from repro.eval.experiments.ablation_engines import run_ablation_engines
from repro.eval.experiments.ablation_partitioning import run_ablation_partitioning

SCALE = 0.12
SEED = 42


@pytest.fixture(scope="module")
def khop_result():
    """The whole khop suite, through its registry entry point."""
    return EXPERIMENTS["ablation-khop"](scale=SCALE, seed=SEED)


class TestAblationRegistry:
    def test_all_ablations_are_registered(self):
        for name in (
            "ablation-alpha",
            "ablation-content",
            "ablation-engines",
            "ablation-khop",
            "ablation-partitioning",
        ):
            assert name in EXPERIMENTS

    def test_registered_callables_accept_scale_and_seed(self, khop_result):
        assert khop_result.results


def _recalls(result) -> dict:
    """Recall per experiment name (the tests keep one pack each)."""
    return {payload["experiment"]: payload["quality"]["recall"]
            for payload in result.results}


class TestAblationAlpha:
    @pytest.fixture(scope="class")
    def result(self, run_paper_grid):
        return run_paper_grid(
            "ablation-alpha", scale=SCALE, seed=SEED, k_local=20,
            keep=lambda e: e.pack == "livejournal",
        )

    def test_covers_every_requested_alpha(self, result):
        assert set(_recalls(result)) == {
            f"alpha{alpha}" for alpha in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)}

    def test_recalls_are_probabilities(self, result):
        assert all(0.0 <= value <= 1.0 for value in _recalls(result).values())

    def test_pure_first_hop_weighting_is_worst(self, result):
        # alpha = 1 ignores the second hop entirely, so all candidates
        # reached through the same intermediate tie — recall must suffer.
        recalls = _recalls(result)
        assert recalls["alpha1.0"] < max(recalls.values())

    def test_recalls_are_pinned(self, result):
        # Read at this scale from the bespoke α-ablation module the suite
        # replaced.
        assert _recalls(result) == {
            "alpha0.1": 0.23472222222222222,
            "alpha0.25": 0.24027777777777778,
            "alpha0.5": 0.23472222222222222,
            "alpha0.75": 0.21666666666666667,
            "alpha0.9": 0.20555555555555555,
            "alpha1.0": 0.16944444444444445,
        }

    def test_render_mentions_every_dataset(self, result):
        assert "livejournal" in result.render()


class TestAblationPartitioning:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation_partitioning(scale=SCALE, seed=SEED)

    def test_replication_factor_ordering(self, result):
        random_row = result.row("livejournal", "random")
        greedy_row = result.row("livejournal", "greedy")
        hdrf_row = result.row("livejournal", "hdrf")
        assert hdrf_row.replication_factor < greedy_row.replication_factor
        assert greedy_row.replication_factor < random_row.replication_factor

    def test_network_traffic_follows_replication(self, result):
        random_row = result.row("livejournal", "random")
        hdrf_row = result.row("livejournal", "hdrf")
        assert hdrf_row.network_mebibytes < random_row.network_mebibytes

    def test_partitioning_does_not_change_recall(self, result):
        recalls = {row.recall for row in result.rows}
        assert len(recalls) == 1

    def test_unknown_row_lookup_raises(self, result):
        with pytest.raises(KeyError):
            result.row("livejournal", "does-not-exist")

    def test_render_contains_all_partitioners(self, result):
        rendered = result.render()
        for name in ("random", "greedy", "hdrf"):
            assert name in rendered


class TestAblationEngines:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation_engines(scale=SCALE, seed=SEED)

    def test_all_engines_reach_the_same_recall(self, result):
        recalls = {row.recall for row in result.rows}
        assert len(recalls) == 1

    def test_greedy_gas_ships_fewest_bytes(self, result):
        greedy = result.row("livejournal", "GAS (greedy cut)")
        random_cut = result.row("livejournal", "GAS (random cut)")
        assert greedy.network_mebibytes < random_cut.network_mebibytes

    def test_gas_runs_three_supersteps(self, result):
        assert [row.supersteps for row in result.rows] == [3, 3]

    def test_render_contains_all_engines(self, result):
        rendered = result.render()
        assert "GAS (greedy cut)" in rendered
        assert "GAS (random cut)" in rendered

    def test_engines_parameter_restricts_rows(self):
        result = run_ablation_engines(scale=SCALE, seed=SEED,
                                      engines=("gas",))
        assert {row.engine for row in result.rows} == {"GAS (random cut)"}

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_ablation_engines(scale=SCALE, seed=SEED, engines=("spark",))

    def test_to_dict_round_trips_through_json(self, result):
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["num_machines"] == result.num_machines
        assert len(payload["rows"]) == len(result.rows)


def _khop_rows(result) -> list[tuple[int, int, float, int]]:
    """(klocal, K, recall, explored paths) per run of the khop suite."""
    rows = []
    for payload in result.results:
        k_local, hops = payload["experiment"].split("-")
        paths = sum(count for key, count in payload["run"]["extra"].items()
                    if key.startswith("paths_length"))
        rows.append((int(k_local.removeprefix("klocal")),
                     int(hops.removeprefix("K")),
                     payload["quality"]["recall"], int(paths)))
    return rows


class TestAblationKHop:
    @pytest.fixture(scope="class")
    def rows(self, khop_result):
        return {(k_local, hops): (recall, paths)
                for k_local, hops, recall, paths in _khop_rows(khop_result)}

    def test_longer_paths_explore_many_more_candidates(self, rows):
        assert rows[(5, 3)][1] > 2 * rows[(5, 2)][1]

    def test_two_hop_recall_is_non_trivial(self, rows):
        assert rows[(5, 2)][0] > 0.05

    def test_three_hop_recall_does_not_collapse(self, rows):
        assert rows[(5, 3)][0] > 0.3 * rows[(5, 2)][0]

    def test_rows_are_pinned(self, khop_result):
        # Read at this scale before the ablation ran the khop engine.
        assert [(hops, recall, paths)
                for k_local, hops, recall, paths in _khop_rows(khop_result)
                if k_local == 5] == [
            (2, 0.20694444444444443, 10445),
            (3, 0.14722222222222223, 57114),
        ]

    def test_klocal10_rows_are_pinned(self, khop_result):
        # Read at this scale from the bespoke K-ablation module the suite
        # replaced.
        assert [(hops, recall, paths)
                for k_local, hops, recall, paths in _khop_rows(khop_result)
                if k_local == 10] == [
            (2, 0.2, 21992),
            (3, 0.13194444444444445, 184163),
        ]

    def test_render_lists_both_path_lengths(self, khop_result):
        rendered = khop_result.render()
        assert "-K2 " in rendered
        assert "-K3 " in rendered


class TestAblationContent:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablation_content(scale=SCALE, seed=SEED, k_local=20)

    def test_zero_weight_recall_is_identical_across_regimes(self, result):
        assert result.recall("homophilous profiles", 0.0) == pytest.approx(
            result.recall("random profiles", 0.0)
        )

    def test_random_profiles_degrade_at_full_content_weight(self, result):
        assert result.recall("random profiles", 1.0) < result.recall(
            "random profiles", 0.0
        )

    def test_homophilous_profiles_beat_random_profiles_at_full_weight(self, result):
        assert result.recall("homophilous profiles", 1.0) > result.recall(
            "random profiles", 1.0
        )

    def test_moderate_weight_with_homophilous_profiles_stays_competitive(self, result):
        topo = result.recall("homophilous profiles", 0.0)
        blended = result.recall("homophilous profiles", 0.5)
        assert blended > 0.85 * topo

    def test_recalls_are_pinned(self, result):
        # Read at this scale before the ablation ran the content engine.
        assert result.recalls == {
            ("homophilous profiles", 0.0): 0.20555555555555555,
            ("homophilous profiles", 0.25): 0.21805555555555556,
            ("homophilous profiles", 0.5): 0.20694444444444443,
            ("homophilous profiles", 0.75): 0.20694444444444443,
            ("homophilous profiles", 1.0): 0.2013888888888889,
            ("random profiles", 0.0): 0.20555555555555555,
            ("random profiles", 0.25): 0.2152777777777778,
            ("random profiles", 0.5): 0.19305555555555556,
            ("random profiles", 0.75): 0.17777777777777778,
            ("random profiles", 1.0): 0.16527777777777777,
        }

    def test_render_contains_both_regimes(self, result):
        rendered = result.render()
        assert "homophilous profiles" in rendered
        assert "random profiles" in rendered
