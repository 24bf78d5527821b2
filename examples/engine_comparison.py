"""Engine comparison: the same SNAPLE run on two GAS vertex-cuts.

The paper implements SNAPLE on GraphLab's gather-apply-scatter model, where
the cost of a run is decided by how the graph is cut across machines.  This
example runs the identical configuration through the ``gas`` backend of the
:mod:`repro.runtime` registry on the same simulated 8-machine cluster under
two placements and compares what each one costs:

* PowerGraph's random vertex-cut,
* the greedy (replication-minimizing) vertex-cut.

Both produce exactly the same predictions — only the data flow differs.
The normalized :class:`~repro.runtime.report.RunReport` makes the comparison
one loop: every run reports network bytes and simulated seconds under the
same names.

Run it with::

    python examples/engine_comparison.py
"""

from __future__ import annotations

from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime.partition import GreedyVertexCut
from repro.graph.datasets import load_dataset
from repro.snaple import SnapleConfig, SnapleLinkPredictor


def main() -> None:
    graph = load_dataset("livejournal", scale=0.4)
    split = remove_random_edges(graph, seed=7)
    config = SnapleConfig.paper_default("linearSum", k_local=20, seed=7)
    cluster = cluster_of(TYPE_I, 8)
    predictor = SnapleLinkPredictor(config)
    print(f"graph: {graph.summary()}")
    print(f"cluster: {cluster.describe()}")
    print(f"configuration: {config.describe()}\n")

    runs = [
        ("GAS, random vertex-cut",
         predictor.predict(split.train_graph, backend="gas", cluster=cluster)),
        ("GAS, greedy vertex-cut",
         predictor.predict(split.train_graph, backend="gas", cluster=cluster,
                           partitioner=GreedyVertexCut())),
    ]

    print(f"{'execution path':<30} {'recall':>7} {'network MiB':>12} {'sim time':>9}")
    for name, report in runs:
        recall = evaluate_predictions(report.predictions, split).recall
        network = report.network_bytes / 1024**2
        print(f"{name:<30} {recall:>7.3f} {network:>12.2f} "
              f"{report.simulated_seconds:>8.3f}s")

    gas_random, gas_greedy = (report for _, report in runs)
    assert gas_random.predictions == gas_greedy.predictions
    print("\nboth cuts return identical predictions; only the data flow (and "
          "therefore the simulated cost) differs.")
    print("replication factor (random cut): "
          f"{gas_random.native.partition.replication_factor():.2f}")
    print("replication factor (greedy cut): "
          f"{gas_greedy.native.partition.replication_factor():.2f}")


if __name__ == "__main__":
    main()
