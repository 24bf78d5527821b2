"""Ablation: the same SNAPLE configuration on two GAS vertex-cuts.

This ablation runs the identical SNAPLE configuration through the GAS
engine under two placements of the same cluster and graph, both resolved
through the :mod:`repro.runtime` backend registry:

* ``gas`` — PowerGraph's random vertex-cut,
* ``gas-greedy`` — the oblivious greedy vertex-cut,

and reports network traffic, simulated time and recall for each.  The shape
to check: both produce the same recall (the algorithm is unchanged) and the
greedy vertex-cut ships fewer bytes — the GAS formulation's traffic
advantage materializes through the partitioner, not for free.

With ``workers=N`` both rows run in real worker processes instead.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.eval.metrics import evaluate_predictions
from repro.eval.report import TextTable
from repro.eval.runner import ExperimentRunner
from repro.gas.cluster import TYPE_I, cluster_of
from repro.runtime.partition import GreedyVertexCut
from repro.snaple.config import SnapleConfig
from repro.snaple.predictor import SnapleLinkPredictor

__all__ = [
    "ENGINE_SPECS",
    "EngineRow",
    "AblationEnginesResult",
    "run_ablation_engines",
]


def _greedy_partitioner_options() -> dict[str, Any]:
    return {"partitioner": GreedyVertexCut()}


#: Engine specs selectable through ``engines=`` / the CLI ``--engine`` flag:
#: key -> (display name, backend registry name, factory producing extra
#: backend options — a factory so each run gets a fresh partitioner).
ENGINE_SPECS: dict[str, tuple[str, str, Callable[[], dict[str, Any]]]] = {
    "gas": ("GAS (random cut)", "gas", dict),
    "gas-greedy": ("GAS (greedy cut)", "gas", _greedy_partitioner_options),
}


@dataclass
class EngineRow:
    """Measurements for one (dataset, execution path) pair."""

    dataset: str
    engine: str
    network_mebibytes: float
    simulated_seconds: float
    recall: float
    supersteps: int


@dataclass
class AblationEnginesResult:
    """All rows of the engine ablation."""

    rows: list[EngineRow] = field(default_factory=list)
    num_machines: int = 8
    workers: int | None = None

    def row(self, dataset: str, engine: str) -> EngineRow:
        """The row for one (dataset, engine) pair."""
        for row in self.rows:
            if row.dataset == dataset and row.engine == engine:
                return row
        raise KeyError((dataset, engine))

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view of the ablation."""
        return {
            "num_machines": self.num_machines,
            "workers": self.workers,
            "rows": [asdict(row) for row in self.rows],
        }

    def render(self) -> str:
        if self.workers is not None:
            flavour = f"{self.workers} worker processes, wall-clock"
        else:
            flavour = f"{self.num_machines} type-I machines"
        table = TextTable(
            title=f"Ablation — GAS vertex-cuts for SNAPLE ({flavour})",
            columns=[
                "dataset", "engine", "network MiB", "sim time (s)",
                "recall", "steps",
            ],
        )
        for row in self.rows:
            table.add_row([
                row.dataset,
                row.engine,
                f"{row.network_mebibytes:.2f}",
                f"{row.simulated_seconds:.3f}",
                f"{row.recall:.3f}",
                row.supersteps,
            ])
        return table.render()


def run_ablation_engines(
    *,
    scale: float = 1.0,
    seed: int = 42,
    datasets: tuple[str, ...] = ("livejournal",),
    num_machines: int = 8,
    k_local: float = 20,
    engines: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> AblationEnginesResult:
    """Run the same SNAPLE configuration on the selected execution engines.

    ``engines`` selects from :data:`ENGINE_SPECS` (by default both);
    unknown names raise :class:`~repro.errors.ConfigurationError`.

    ``workers`` switches the GAS engines from the simulated ``num_machines``
    cluster to real shared-nothing parallelism (see
    :mod:`repro.runtime.parallel`): partitions execute in that many worker
    processes, the network column reports the state actually shipped between
    partitions, and the time column reports wall-clock seconds instead of
    simulated cluster time.  The partitioner of each spec (e.g. the greedy
    vertex-cut) then controls partition locality rather than simulated
    placement.
    """
    if engines is None:
        engines = tuple(ENGINE_SPECS)
    for engine in engines:
        if engine not in ENGINE_SPECS:
            raise ConfigurationError(
                f"unknown engine {engine!r}; available engines: "
                f"{', '.join(sorted(ENGINE_SPECS))}"
            )
    runner = ExperimentRunner(scale=scale, seed=seed)
    if workers is None:
        cluster_options: dict[str, Any] = {
            "cluster": cluster_of(TYPE_I, num_machines),
            "enforce_memory": False,
        }
    else:
        cluster_options = {"workers": workers}
    result = AblationEnginesResult(num_machines=num_machines, workers=workers)
    for dataset in datasets:
        split = runner.split(dataset)
        config = SnapleConfig.paper_default("linearSum", k_local=k_local, seed=seed)
        predictor = SnapleLinkPredictor(config)
        for engine in engines:
            display_name, backend, make_options = ENGINE_SPECS[engine]
            report = predictor.predict(
                split.train_graph,
                backend=backend,
                **cluster_options,
                **make_options(),
            )
            quality = evaluate_predictions(report.predictions, split)
            result.rows.append(
                EngineRow(
                    dataset=dataset,
                    engine=display_name,
                    network_mebibytes=(report.network_bytes or 0) / 1024**2,
                    # Simulated cluster time for simulated runs, real wall
                    # clock for workers= runs (the report has no simulation).
                    simulated_seconds=report.time_seconds,
                    recall=quality.recall,
                    supersteps=report.supersteps or 0,
                )
            )
    return result
