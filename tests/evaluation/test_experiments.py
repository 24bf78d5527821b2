"""Smoke + shape tests for the per-table/figure experiment definitions.

Every experiment is exercised at a reduced scale (small dataset analogs,
restricted parameter grids) so the suite stays fast; the full-size runs live
in ``benchmarks/``.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.eval.experiments import EXPERIMENTS
from repro.eval.experiments.figure5 import run_figure5
from repro.eval.experiments.figure6 import run_figure6
from repro.eval.experiments.figure11 import run_figure11
from repro.eval.experiments.table5 import run_table5
from repro.eval.experiments.table6 import run_table6
from repro.eval.paper import PAPER_SUITES, paper_suite
from repro.baselines.random_walk_ppr import RandomWalkConfig

SCALE = 0.25
SEED = 13


class TestRegistry:
    def test_every_table_and_figure_has_an_entry(self):
        paper_experiments = {
            "table5", "figure5", "figure6", "figure7", "figure8",
            "figure9", "figure10", "figure11", "table6",
        }
        ablations = {
            "ablation-alpha", "ablation-content", "ablation-engines",
            "ablation-khop", "ablation-partitioning",
        }
        assert set(EXPERIMENTS) == paper_experiments | ablations


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table5(
            scale=SCALE,
            seed=SEED,
            num_machines=2,
            datasets=("gowalla",),
            scores=("linearSum", "counter"),
            blocks=((math.inf, math.inf), (20, 20)),
        )

    def test_all_cells_present(self, result):
        assert "gowalla" in result.baseline
        assert len(result.snaple) == 4

    def test_snaple_recall_gain_over_baseline(self, result):
        gain = result.recall_gain("gowalla", "linearSum", math.inf, math.inf)
        assert gain > 1.0

    def test_sampling_gives_speedup(self, result):
        sampled = result.speedup("gowalla", "linearSum", 20, 20)
        unsampled = result.speedup("gowalla", "linearSum", math.inf, math.inf)
        assert sampled >= unsampled > 1.0

    def test_baseline_row_is_pinned(self, result):
        # Read at this scale before BASELINE became the gas_baseline engine.
        baseline = result.baseline["gowalla"]
        assert not baseline.failed
        assert baseline.recall == 0.15466666666666667
        assert baseline.simulated_seconds == pytest.approx(0.7346222233333333,
                                                           rel=1e-12)
        assert baseline.extra == {"network_bytes": 3616220.0,
                                  "peak_memory_bytes": 359156.0}

    def test_render_contains_baseline_and_blocks(self, result):
        text = result.render()
        assert "BASELINE" in text
        assert "klocal=20" in text
        assert "linearSum" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5(
            scale=SCALE,
            seed=SEED,
            k_locals=(40,),
            datasets=("gowalla", "livejournal"),
            enforce_memory=False,
        )

    def test_panels_for_each_machine_type(self, result):
        assert ("type-I", 40) in result.panels
        assert ("type-II", 40) in result.panels

    def test_time_grows_with_graph_size(self, result):
        for report in result.panels.values():
            for series in report.series.values():
                xs = series.xs()
                ys = series.ys()
                ordered = [y for _x, y in sorted(zip(xs, ys))]
                assert ordered[0] < ordered[-1]

    def test_more_cores_are_faster(self, result):
        panel = result.panel("type-I", 40)
        by_label = panel.as_dict()
        small_cluster = dict(by_label["64 cores"])
        large_cluster = dict(by_label["256 cores"])
        for edges, seconds in small_cluster.items():
            assert large_cluster[edges] <= seconds

    def test_render_smoke(self, result):
        assert "Figure 5" in result.render()


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6(
            scale=SCALE,
            seed=SEED,
            k_local=20,
            datasets=("livejournal",),
            thresholds=(10, 40, 100),
        )

    def test_cdf_and_coverage_recorded(self, result):
        assert "livejournal" in result.cdfs
        assert result.coverage[("livejournal", 100)] >= result.coverage[("livejournal", 10)]

    def test_improvement_series_starts_at_zero(self, result):
        points = dict(result.improvement.series["livejournal"].points)
        assert points[10.0] == pytest.approx(0.0)

    def test_higher_threshold_does_not_hurt_recall_much(self, result):
        recall_small = result.recall[("livejournal", 10)]
        recall_large = result.recall[("livejournal", 100)]
        assert recall_large >= recall_small - 0.02

    def test_render_smoke(self, result):
        text = result.render()
        assert "Figure 6" in text
        assert "livejournal" in text


def _payloads(result) -> dict:
    """A suite result's payloads keyed by ``(pack, experiment)``."""
    return {(payload["pack"], payload["experiment"]): payload
            for payload in result.results}


def _recall(result, pack: str, experiment: str) -> float:
    return _payloads(result)[(pack, experiment)]["quality"]["recall"]


def _recalls(result) -> dict:
    """Recall per experiment name (the tests keep one pack each)."""
    return {payload["experiment"]: payload["quality"]["recall"]
            for payload in result.results}


class TestPaperSuites:
    """The recall sweeps' grids, without running them."""

    @pytest.mark.parametrize("name, size", [
        ("figure7", 3 * 3 * 5), ("figure8", 2 * 11 * 5), ("figure9", 2 * 5 * 4),
        ("figure10", 2 * 5 * 5), ("ablation-alpha", 2 * 6),
        ("ablation-khop", 2 * 2),
    ])
    def test_grid_sizes(self, name, size):
        spec = paper_suite(name, scale=SCALE, seed=SEED)
        assert len(spec.experiments) == size
        assert all((e.scale, e.seed) == (SCALE, SEED) for e in spec.experiments)

    def test_mode_reaches_every_local_run(self):
        spec = paper_suite("figure9", mode="reference")
        assert {e.backend_options["mode"] for e in spec.experiments} == {
            "reference"}
        assert "mode" not in paper_suite("figure9").experiments[0].backend_options

    def test_mode_refused_for_the_khop_suite(self):
        with pytest.raises(ConfigurationError, match="no execution mode"):
            paper_suite("ablation-khop", mode="reference")

    def test_registry_entries_describe_their_suite(self):
        assert EXPERIMENTS["figure9"].__doc__ == (
            PAPER_SUITES["figure9"]["suite"]["description"])


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self, run_paper_grid):
        return run_paper_grid(
            "figure7", scale=SCALE, seed=SEED,
            keep=lambda e: e.pack == "linearSum" and e.config["k_local"] in (5, 40),
        )

    @staticmethod
    def recall(result, policy: str, k_local: int) -> float:
        return _recall(result, "linearSum", f"{policy}-klocal{k_local}")

    def test_three_policies_per_panel(self, result):
        assert {name.split("-")[0] for pack, name in _payloads(result)
                if pack == "linearSum"} == {"max", "min", "rnd"}

    def test_max_policy_at_least_as_good_as_min_at_small_klocal(self, result):
        assert self.recall(result, "max", 5) >= self.recall(result, "min", 5)

    def test_policies_converge_at_large_klocal(self, result):
        spread = abs(
            self.recall(result, "max", 40) - self.recall(result, "min", 40)
        )
        small_spread = abs(
            self.recall(result, "max", 5) - self.recall(result, "min", 5)
        )
        assert spread <= small_spread + 0.02

    def test_recalls_are_pinned(self, result):
        # Read at this scale from the bespoke figure 7 module the suite replaced.
        assert _recalls(result) == {
            "max-klocal5": 0.19133333333333333,
            "max-klocal40": 0.19,
            "min-klocal5": 0.126,
            "min-klocal40": 0.19266666666666668,
            "rnd-klocal5": 0.15133333333333332,
            "rnd-klocal40": 0.196,
        }

    def test_render_smoke(self, result):
        assert "figure7" in result.render()


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self, run_paper_grid):
        return run_paper_grid(
            "figure8", scale=SCALE, seed=SEED,
            keep=lambda e: (e.pack, e.config["score"]) in {
                ("livejournal-Sum", "linearSum"),
                ("livejournal-Mean", "linearMean"),
            } and e.config["k_local"] in (5, 40),
        )

    def test_points_per_configuration(self, result):
        points = _payloads(result)
        assert ("livejournal-Sum", "linearSum-klocal5") in points
        assert ("livejournal-Mean", "linearMean-klocal40") in points
        assert all(payload["run"]["wall_clock_seconds"] > 0
                   for payload in points.values())

    def test_sum_recall_improves_with_klocal(self, result):
        # At the reduced test scale the trend can be noisy; the full-scale
        # benchmark checks the strict monotone shape.
        assert _recall(result, "livejournal-Sum", "linearSum-klocal40") >= (
            _recall(result, "livejournal-Sum", "linearSum-klocal5") - 0.02
        )

    def test_recalls_are_pinned(self, result):
        # Read at this scale from the bespoke figure 8 module the suite replaced.
        assert _recalls(result) == {
            "linearSum-klocal5": 0.19133333333333333,
            "linearSum-klocal40": 0.19,
            "linearMean-klocal5": 0.17133333333333334,
            "linearMean-klocal40": 0.13266666666666665,
        }

    def test_render_smoke(self, result):
        assert "livejournal-Mean/linearMean-klocal40" in result.render()


class TestFigure9And10:
    def test_recall_increases_with_k(self, run_paper_grid):
        result = run_paper_grid(
            "figure9", scale=SCALE, seed=SEED, k_local=20,
            keep=lambda e: (e.pack == "livejournal"
                            and e.config["score"] == "linearSum"
                            and e.config["k"] in (5, 20)),
        )
        assert _recall(result, "livejournal", "linearSum-k20") >= _recall(
            result, "livejournal", "linearSum-k5"
        )
        # Read at this scale from the bespoke figure 9 module the suite replaced.
        assert _recall(result, "livejournal", "linearSum-k5") == 0.192
        assert _recall(result, "livejournal", "linearSum-k20") == (
            0.37666666666666665
        )

    def test_recall_decreases_with_removed_edges(self, run_paper_grid):
        result = run_paper_grid(
            "figure10", scale=SCALE, seed=SEED, k_local=20,
            keep=lambda e: (e.pack == "livejournal"
                            and e.config["score"] == "linearSum"
                            and e.protocol["removed_edges_per_vertex"] in (1, 4)),
        )
        assert _recall(result, "livejournal", "linearSum-removed4") <= _recall(
            result, "livejournal", "linearSum-removed1"
        ) + 0.02
        # Read at this scale from the bespoke figure 10 module the suite replaced.
        assert _recall(result, "livejournal", "linearSum-removed1") == 0.192
        assert _recall(result, "livejournal", "linearSum-removed4") == (
            0.09087597887452195
        )


class TestFigure11AndTable6:
    @pytest.fixture(scope="class")
    def figure11(self):
        return run_figure11(
            scale=SCALE, seed=SEED, datasets=("livejournal",),
            walks=(10, 100), depths=(3, 5),
        )

    def test_runs_recorded_per_configuration(self, figure11):
        assert ("livejournal", 10, 3) in figure11.runs
        assert ("livejournal", 100, 5) in figure11.runs

    def test_more_walks_improve_recall(self, figure11):
        few = figure11.runs[("livejournal", 10, 3)]
        many = figure11.runs[("livejournal", 100, 3)]
        assert many.recall >= few.recall

    def test_best_run_selection(self, figure11):
        best = figure11.best_run("livejournal")
        assert best.recall == max(run.recall for run in figure11.runs.values())

    def test_best_run_unknown_dataset(self, figure11):
        with pytest.raises(KeyError):
            figure11.best_run("orkut")

    def test_table6_snaple_beats_random_walks(self):
        result = run_table6(
            scale=SCALE, seed=SEED, datasets=("livejournal",), k_local=20,
            baseline_config=RandomWalkConfig(num_walks=100, depth=3),
            distributed_machines=8,
        )
        # The paper's single-machine claim: SNAPLE matches or beats the
        # random-walk PPR baseline in recall while being faster.
        assert result.snaple["livejournal"].recall >= (
            0.8 * result.cassovary["livejournal"].recall
        )
        assert result.speedup("livejournal") > 1.0
        # The distributed run must complete; its full-scale speedup shape is
        # checked by the Table 6 benchmark (small graphs do not amortize the
        # per-step network/barrier overhead of distribution).
        assert not result.distributed["livejournal"].failed
        assert result.distributed_speedup("livejournal") > 0.3
        assert "Table 6" in result.render()
