"""Cluster-sizing study: how many machines does a target graph need?

The paper's scalability evaluation (Figure 5, Section 5.4) sweeps cluster
sizes and graph sizes to show SNAPLE scales linearly with edges.  This
example uses the simulated cost model to answer the practical question a
deployment engineer would ask: *given a graph and a time budget, how many
type-I or type-II machines do I need, and when does the naive BASELINE stop
fitting in memory?*

Run it with::

    python examples/cluster_sizing.py
"""

from __future__ import annotations

from repro.errors import ResourceExhaustedError
from repro.eval.protocol import remove_random_edges
from repro.gas.cluster import TYPE_I, TYPE_II, ClusterConfig, MachineSpec, cluster_of
from repro.graph.datasets import load_dataset
from repro.snaple import SnapleConfig, SnapleLinkPredictor


def snaple_time(graph, config, cluster) -> float:
    report = SnapleLinkPredictor(config).predict(
        graph, backend="gas", cluster=cluster, enforce_memory=False
    )
    return report.simulated_seconds


def main() -> None:
    graph = load_dataset("orkut", scale=0.5, seed=42)
    print(f"orkut analog: {graph.summary()}\n")
    train = remove_random_edges(graph, seed=42).train_graph
    config = SnapleConfig.paper_default("linearSum", k_local=40, seed=42)

    print("SNAPLE simulated execution time by cluster size:")
    print(f"  {'cluster':>16s} {'cores':>6s} {'time(s)':>9s}")
    sweeps: list[tuple[MachineSpec, int]] = [
        (TYPE_I, 1), (TYPE_I, 4), (TYPE_I, 8), (TYPE_I, 16), (TYPE_I, 32),
        (TYPE_II, 1), (TYPE_II, 4), (TYPE_II, 8),
    ]
    results: dict[str, float] = {}
    for machine, count in sweeps:
        cluster = cluster_of(machine, count)
        seconds = snaple_time(train, config, cluster)
        results[cluster.name] = seconds
        print(f"  {cluster.name:>16s} {cluster.total_cores:6d} {seconds:9.2f}")

    print("\nDiminishing returns: speedup of each step up in cluster size")
    type_i_sizes = [1, 4, 8, 16, 32]
    for before, after in zip(type_i_sizes, type_i_sizes[1:]):
        speedup = results[f"{before}xtype-I"] / results[f"{after}xtype-I"]
        print(f"  {before:2d} -> {after:2d} type-I machines: {speedup:.2f}×")

    print("\nBASELINE memory behaviour on a memory-constrained cluster "
          "(the paper's resource-exhaustion failure):")
    # First measure the peak per-machine footprint of both approaches, then
    # pick a capacity that sits between them: the naive BASELINE no longer
    # fits, while SNAPLE's compact per-vertex state still does.
    relaxed = cluster_of(TYPE_II, 4)
    baseline_peak = SnapleLinkPredictor().predict(
        train, backend="gas_baseline", cluster=relaxed, enforce_memory=False
    ).peak_memory_bytes
    snaple_peak = SnapleLinkPredictor(config).predict(
        train, backend="gas", cluster=relaxed, enforce_memory=False
    ).peak_memory_bytes
    print(f"  peak per-machine memory: BASELINE {baseline_peak / 1024**2:.2f} MiB, "
          f"SNAPLE {snaple_peak / 1024**2:.2f} MiB")
    capacity = (baseline_peak + snaple_peak) / 2
    constrained = ClusterConfig(machine=TYPE_II, num_machines=4,
                                memory_scale=capacity / TYPE_II.memory_bytes)
    try:
        SnapleLinkPredictor().predict(train, backend="gas_baseline",
                                      cluster=constrained)
        print("  BASELINE fits (unexpected at this capacity)")
    except ResourceExhaustedError as exc:
        print(f"  BASELINE fails: {exc}")
    snaple_run = SnapleLinkPredictor(config).predict(train, backend="gas",
                                                     cluster=constrained)
    print(f"  SNAPLE completes in {snaple_run.simulated_seconds:.2f}s "
          "on the same constrained cluster")


if __name__ == "__main__":
    main()
