"""Benchmark regenerating the GAS vertex-cut engine ablation."""

from __future__ import annotations

from conftest import BENCH_SCALE, BENCH_SEED, run_once

from repro.eval.experiments.ablation_engines import run_ablation_engines


def test_ablation_engines(benchmark, save_result):
    """Traffic, simulated time and recall of SNAPLE on two GAS vertex-cuts."""
    result = run_once(
        benchmark,
        run_ablation_engines,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
    )
    save_result("ablation_engines", result.render())

    greedy = result.row("livejournal", "GAS (greedy cut)")
    random_cut = result.row("livejournal", "GAS (random cut)")
    # The algorithm is identical under both placements: recall must match.
    assert greedy.recall == random_cut.recall
    # The GAS formulation's traffic advantage materializes through the
    # replication-minimizing vertex-cut.
    assert greedy.network_mebibytes < random_cut.network_mebibytes
    assert greedy.supersteps == random_cut.supersteps == 3
