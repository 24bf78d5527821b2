"""Who-to-follow recommendation on a simulated cluster.

The paper's motivating scenario is a social service (think Twitter's
Who-to-Follow) that must recommend new connections over a graph too large for
one machine.  This example:

1. generates the livejournal dataset analog,
2. runs SNAPLE's three-step GAS program on a simulated 4-node type-II
   cluster (the Table 5 configuration) and on a single machine,
3. compares the two against the naive GAS BASELINE and reports recall,
   simulated execution time, network traffic and peak memory,
4. prints follow recommendations for a few users.

Run it with::

    python examples/social_recommendation.py
"""

from __future__ import annotations

from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.gas.cluster import TYPE_II, cluster_of
from repro.graph.datasets import load_dataset
from repro.snaple import SnapleConfig, SnapleLinkPredictor


def describe_run(name: str, recall: float, seconds: float,
                 network_bytes: float, memory_bytes: float) -> None:
    print(
        f"  {name:28s} recall={recall:.3f}  time={seconds:7.2f}s  "
        f"net={network_bytes / 1024**2:7.2f} MiB  "
        f"peak_mem={memory_bytes / 1024**2:6.2f} MiB"
    )


def main() -> None:
    graph = load_dataset("livejournal", scale=0.5, seed=42)
    print(f"livejournal analog: {graph.summary()}")
    split = remove_random_edges(graph, seed=42)
    print(f"hidden follow edges: {split.num_removed}\n")

    cluster = cluster_of(TYPE_II, 4)           # the paper's 80-core setup
    single_machine = cluster_of(TYPE_II, 1)
    config = SnapleConfig.paper_default("linearSum", k_local=20, seed=42)

    print("Predictors (simulated cluster accounting):")

    baseline = SnapleLinkPredictor().predict(
        split.train_graph, backend="gas_baseline", cluster=cluster,
        enforce_memory=False
    )
    baseline_quality = evaluate_predictions(baseline.predictions, split)
    describe_run("BASELINE (4 × type-II)", baseline_quality.recall,
                 baseline.simulated_seconds, baseline.network_bytes,
                 baseline.peak_memory_bytes)

    snaple_cluster = SnapleLinkPredictor(config).predict(
        split.train_graph, backend="gas", cluster=cluster, enforce_memory=False
    )
    cluster_quality = evaluate_predictions(snaple_cluster.predictions, split)
    describe_run("SNAPLE (4 × type-II)", cluster_quality.recall,
                 snaple_cluster.simulated_seconds, snaple_cluster.network_bytes,
                 snaple_cluster.peak_memory_bytes)

    snaple_single = SnapleLinkPredictor(config).predict(
        split.train_graph, backend="gas", cluster=single_machine,
        enforce_memory=False
    )
    single_quality = evaluate_predictions(snaple_single.predictions, split)
    describe_run("SNAPLE (1 × type-II)", single_quality.recall,
                 snaple_single.simulated_seconds, snaple_single.network_bytes,
                 snaple_single.peak_memory_bytes)

    speedup = baseline.simulated_seconds / snaple_cluster.simulated_seconds
    gain = cluster_quality.recall / max(baseline_quality.recall, 1e-9)
    print(f"\nSNAPLE vs BASELINE on the cluster: {gain:.1f}× recall, "
          f"{speedup:.1f}× faster (simulated)")

    print("\nWho-to-follow recommendations (sample users):")
    shown = 0
    for user, targets in snaple_cluster.predictions.items():
        if targets and shown < 5:
            print(f"  user {user:5d}: follow {targets}")
            shown += 1


if __name__ == "__main__":
    main()
