"""Ablation: vertex-cut partitioning strategy.

The paper relies on GraphLab's default edge placement and does not study
partitioning; the replication factor of the vertex-cut nonetheless determines
how many bytes the apply-phase synchronization ships, which is the dominant
network term of SNAPLE's three GAS steps.  This ablation runs the same SNAPLE
configuration under three edge placements — PowerGraph's random hashing, the
oblivious greedy heuristic, and High-Degree-Replicated-First — and reports
the replication factor, the load imbalance, the total network traffic and the
simulated execution time.

The shape to check: replication factor orders ``HDRF < greedy < random``,
network traffic follows the same ordering, and the simulated time improves
accordingly (with identical predictions — partitioning must not change the
result, only its cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.metrics import evaluate_predictions
from repro.eval.report import TextTable
from repro.eval.runner import ExperimentRunner
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime.partition import (
    GreedyVertexCut,
    HdrfVertexCut,
    Partitioner,
    RandomVertexCut,
    partition_graph,
)
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor

__all__ = [
    "PartitioningRow",
    "AblationPartitioningResult",
    "run_ablation_partitioning",
    "PARTITIONERS",
]

#: The edge placements compared by the ablation, keyed by display name.
PARTITIONERS: dict[str, Partitioner] = {
    "random": RandomVertexCut(),
    "greedy": GreedyVertexCut(),
    "hdrf": HdrfVertexCut(),
}


@dataclass
class PartitioningRow:
    """Measurements for one (dataset, partitioner) pair."""

    dataset: str
    partitioner: str
    replication_factor: float
    load_imbalance: float
    network_mebibytes: float
    simulated_seconds: float
    recall: float


@dataclass
class AblationPartitioningResult:
    """All rows of the partitioning ablation plus helpers for assertions."""

    rows: list[PartitioningRow] = field(default_factory=list)
    num_machines: int = 8

    def row(self, dataset: str, partitioner: str) -> PartitioningRow:
        """The row for one (dataset, partitioner) pair."""
        for row in self.rows:
            if row.dataset == dataset and row.partitioner == partitioner:
                return row
        raise KeyError((dataset, partitioner))

    def render(self) -> str:
        table = TextTable(
            title=(
                "Ablation — vertex-cut partitioning "
                f"({self.num_machines} type-I machines)"
            ),
            columns=[
                "dataset", "partitioner", "replication", "imbalance",
                "network MiB", "sim time (s)", "recall",
            ],
        )
        for row in self.rows:
            table.add_row([
                row.dataset,
                row.partitioner,
                f"{row.replication_factor:.2f}",
                f"{row.load_imbalance:.2f}",
                f"{row.network_mebibytes:.2f}",
                f"{row.simulated_seconds:.3f}",
                f"{row.recall:.3f}",
            ])
        return table.render()


def run_ablation_partitioning(
    *,
    scale: float = 1.0,
    seed: int = 42,
    datasets: tuple[str, ...] = ("livejournal",),
    num_machines: int = 8,
    k_local: float = 20,
) -> AblationPartitioningResult:
    """Compare the three vertex-cut placements on the same SNAPLE run."""
    runner = ExperimentRunner(scale=scale, seed=seed)
    cluster = cluster_of(TYPE_I, num_machines)
    result = AblationPartitioningResult(num_machines=num_machines)
    for dataset in datasets:
        split = runner.split(dataset)
        config = SnapleConfig.paper_default("linearSum", k_local=k_local, seed=seed)
        for name, partitioner in PARTITIONERS.items():
            partition = partition_graph(
                split.train_graph, num_machines, partitioner=partitioner, seed=seed
            )
            report = SnapleLinkPredictor(config).predict(
                split.train_graph,
                backend="gas",
                cluster=cluster,
                partitioner=partitioner,
                enforce_memory=False,
            )
            quality = evaluate_predictions(report.predictions, split)
            result.rows.append(
                PartitioningRow(
                    dataset=dataset,
                    partitioner=name,
                    replication_factor=partition.replication_factor(),
                    load_imbalance=partition.load_imbalance(),
                    network_mebibytes=(report.network_bytes or 0) / 1024**2,
                    simulated_seconds=report.simulated_seconds or 0.0,
                    recall=quality.recall,
                )
            )
    return result
