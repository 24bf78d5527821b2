"""Content-aware link prediction: blending vertex profiles into SNAPLE's score.

The paper's scores are purely topological; Section 3.1 notes the raw
similarity can also include data attached to vertices (profiles, tags).  This
example attaches synthetic tag profiles to a social-graph analog and sweeps
the content weight of the hybrid raw similarity
``(1 - w)·Jaccard(Γ̂(u), Γ̂(v)) + w·Jaccard(tags(u), tags(v))``, showing that

* content that correlates with the graph (homophilous profiles) lifts recall
  at moderate weights,
* structure-free content degrades gracefully as its weight grows.

Run it with::

    python examples/content_aware_prediction.py
"""

from __future__ import annotations

from repro.eval.metrics import evaluate_predictions
from repro.eval.protocol import remove_random_edges
from repro.graph.attributes import generate_profiles
from repro.graph.datasets import load_dataset
from repro.snaple import SnapleConfig, SnapleLinkPredictor


def main() -> None:
    graph = load_dataset("livejournal", scale=0.4)
    split = remove_random_edges(graph, seed=11)
    snaple = SnapleConfig.paper_default("linearSum", k_local=20, seed=11)
    print(f"graph: {graph.summary()}")
    print(f"base configuration: {snaple.describe()}\n")

    regimes = {
        "homophilous profiles (interests spread along edges)": 0.95,
        "random profiles (no correlation with the graph)": 0.0,
    }
    weights = (0.0, 0.25, 0.5, 0.75, 1.0)

    for label, homophily in regimes.items():
        profiles = generate_profiles(
            split.train_graph,
            homophily=homophily,
            tags_per_vertex=8,
            num_tags=max(50, graph.num_vertices // 50),
            seed=11,
        )
        print(f"{label}")
        print(f"  mean tags/vertex: {profiles.mean_profile_size():.1f}, "
              f"edge-vs-random tag overlap: {profiles.homophily(split.train_graph):+.3f}")
        for weight in weights:
            result = SnapleLinkPredictor(snaple).predict(
                split.train_graph, backend="content", profiles=profiles,
                content_weight=weight, profile_similarity="jaccard",
            )
            recall = evaluate_predictions(result.predictions, split).recall
            marker = "  <- paper's purely topological score" if weight == 0.0 else ""
            print(f"  content weight {weight:.2f}: recall {recall:.3f}{marker}")
        print()


if __name__ == "__main__":
    main()
