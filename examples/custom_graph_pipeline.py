"""Bring-your-own-graph pipeline: from an edge-list file to recommendations.

This example shows the workflow for a user with their own data: write (or
obtain) a SNAP-style edge list, load it, compare SNAPLE against the classic
standalone predictors and the random-walk baseline on the same held-out
edges, and export the predicted edges back to a file.

Run it with::

    python examples/custom_graph_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.graph.generators import social_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.snaple import SnapleConfig, SnapleLinkPredictor


def main() -> None:
    # The files live in a temporary directory, removed when the run ends.
    with tempfile.TemporaryDirectory(prefix="snaple-example-") as workdir:
        pipeline(Path(workdir))


def pipeline(workdir: Path) -> None:
    edge_file = workdir / "my_graph.tsv"

    # Stand-in for "your" data: a directed social graph written to disk in
    # the whitespace-separated format used by the paper's datasets.
    raw_graph = social_graph(3_000, 8, clustering=0.5, seed=3)
    write_edge_list(edge_file, raw_graph.edges(),
                    header="example social graph (source<TAB>target)")
    print(f"wrote {raw_graph.num_edges} edges to {edge_file}")

    # Load it back (sparse ids are remapped densely) and build the split.
    graph = read_edge_list(edge_file)
    split = remove_random_edges(graph, seed=3)
    print(f"loaded graph: {graph.summary()}; hidden edges: {split.num_removed}\n")

    # Compare three predictors on the same held-out edges.
    print(f"{'predictor':32s} {'recall':>8s} {'time(s)':>8s}")
    print("-" * 52)

    # One predictor, three engines: each returns the same RunReport.
    predictor = SnapleLinkPredictor(
        SnapleConfig.paper_default("linearSum", k_local=20, seed=3)
    )
    runs = {
        "SNAPLE linearSum (klocal=20)": dict(backend="local"),
        "classic 2-hop Jaccard": dict(backend="topological", score="jaccard"),
        "random-walk PPR (w=100, d=3)": dict(backend="random_walk_ppr",
                                             num_walks=100, depth=3),
    }
    reports = {}
    for label, options in runs.items():
        report = reports[label] = predictor.predict(split.train_graph,
                                                    **options)
        quality = evaluate_predictions(report.predictions, split)
        print(f"{label:32s} {quality.recall:8.3f} "
              f"{report.wall_clock_seconds:8.2f}")

    # Export SNAPLE's predicted edges for downstream use.
    snaple = reports["SNAPLE linearSum (klocal=20)"]
    output_file = workdir / "predicted_edges.tsv"
    write_edge_list(output_file, sorted(snaple.predicted_edges()),
                    header="predicted (source<TAB>recommended target)")
    print(f"\nexported {len(snaple.predicted_edges())} predicted edges "
          f"to {output_file}")


if __name__ == "__main__":
    main()
