"""Ablation: path length K (the 2-hop restriction of equation (2)).

The paper fixes ``K = 2`` and justifies it with the high clustering of field
graphs; footnote 2 notes the scoring framework extends to longer paths by
folding the combinator.  This ablation quantifies the trade-off: recall,
explored-path counts and wall-clock time of the ``khop`` engine for
``K ∈ {2, 3}`` at two ``klocal`` budgets.

The shape to check: moving to ``K = 3`` multiplies the explored paths by
roughly ``klocal`` while changing recall only marginally on clustered
graphs — which is exactly why the paper's 2-hop restriction is the right
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.report import TextTable
from repro.eval.runner import ExperimentRunner
from repro.snaple.config import SnapleConfig

__all__ = ["KHopRow", "AblationKHopResult", "run_ablation_khop"]


@dataclass
class KHopRow:
    """Measurements for one (dataset, num_hops, klocal) configuration."""

    dataset: str
    num_hops: int
    k_local: int
    recall: float
    explored_paths: int
    wall_clock_seconds: float


@dataclass
class AblationKHopResult:
    """All rows of the path-length ablation."""

    rows: list[KHopRow] = field(default_factory=list)

    def row(self, dataset: str, num_hops: int, k_local: int) -> KHopRow:
        """The row for one configuration."""
        for row in self.rows:
            if (row.dataset, row.num_hops, row.k_local) == (dataset, num_hops, k_local):
                return row
        raise KeyError((dataset, num_hops, k_local))

    def render(self) -> str:
        table = TextTable(
            title="Ablation — path length K (linearSum)",
            columns=["dataset", "K", "klocal", "recall", "paths", "wall time (s)"],
        )
        for row in self.rows:
            table.add_row([
                row.dataset,
                row.num_hops,
                row.k_local,
                f"{row.recall:.3f}",
                row.explored_paths,
                f"{row.wall_clock_seconds:.2f}",
            ])
        return table.render()


def run_ablation_khop(
    *,
    scale: float = 1.0,
    seed: int = 42,
    datasets: tuple[str, ...] = ("livejournal",),
    hops: tuple[int, ...] = (2, 3),
    k_locals: tuple[int, ...] = (5, 10),
) -> AblationKHopResult:
    """Sweep the path length K and the sampling budget klocal."""
    runner = ExperimentRunner(scale=scale, seed=seed)
    result = AblationKHopResult()
    for dataset in datasets:
        for k_local in k_locals:
            config = SnapleConfig.paper_default("linearSum", k_local=k_local, seed=seed)
            for num_hops in hops:
                run = runner.run_backend(dataset, backend="khop", config=config,
                                         num_hops=num_hops)
                result.rows.append(
                    KHopRow(
                        dataset=dataset,
                        num_hops=num_hops,
                        k_local=int(k_local),
                        recall=run.recall,
                        explored_paths=int(sum(
                            count for key, count in run.extra.items()
                            if key.startswith("paths_length"))),
                        wall_clock_seconds=run.wall_clock_seconds,
                    )
                )
    return result
