"""Ablation: content weight of the content-aware extension.

Section 3.1 notes that the raw similarity can include vertex content; the
paper then evaluates only topological scores.  This ablation measures the
extension: recall of the hybrid ``(1 - w)·topology + w·profile`` raw
similarity as a function of the content weight ``w``, for profiles generated
with high homophily (content correlated with structure, the favourable case)
and with no homophily (structure-free content, the adversarial case).

The shape to check: with homophilous profiles a moderate content weight
matches or improves the purely topological recall, while with random profiles
recall degrades monotonically as ``w`` grows — content only helps when it
carries signal, and the hybrid design degrades gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.report import FigureReport
from repro.eval.runner import ExperimentRunner
from repro.graph.attributes import generate_profiles
from repro.snaple.config import SnapleConfig

__all__ = ["AblationContentResult", "run_ablation_content", "CONTENT_WEIGHTS"]

#: Content weights swept by the ablation (0 = the paper's topological score).
CONTENT_WEIGHTS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Profile regimes: series label -> homophily of the generated profiles.
PROFILE_REGIMES: dict[str, float] = {
    "homophilous profiles": 0.95,
    "random profiles": 0.0,
}


@dataclass
class AblationContentResult:
    """Recall as a function of the content weight, one series per regime."""

    report: FigureReport
    dataset: str
    recalls: dict[tuple[str, float], float] = field(default_factory=dict)

    def recall(self, regime: str, weight: float) -> float:
        """Recall measured for a profile regime at the given content weight."""
        return self.recalls[(regime, weight)]

    def render(self) -> str:
        return self.report.render()


def run_ablation_content(
    *,
    scale: float = 1.0,
    seed: int = 42,
    dataset: str = "livejournal",
    weights: tuple[float, ...] = CONTENT_WEIGHTS,
    k_local: float = 20,
) -> AblationContentResult:
    """Sweep the content weight under homophilous and random profiles."""
    runner = ExperimentRunner(scale=scale, seed=seed)
    split = runner.split(dataset)
    report = FigureReport(
        title=f"Ablation — content weight (linearSum, {dataset} analog)",
        x_label="content weight",
        y_label="recall",
    )
    result = AblationContentResult(report=report, dataset=dataset)
    snaple = SnapleConfig.paper_default("linearSum", k_local=k_local, seed=seed)
    for regime, homophily in PROFILE_REGIMES.items():
        profiles = generate_profiles(
            split.train_graph,
            homophily=homophily,
            tags_per_vertex=8,
            num_tags=max(50, split.train_graph.num_vertices // 50),
            seed=seed,
        )
        for weight in weights:
            run = runner.run_backend(dataset, backend="content", config=snaple,
                                     profiles=profiles, content_weight=weight)
            report.add_point(regime, weight, run.recall)
            result.recalls[(regime, weight)] = run.recall
    return result
