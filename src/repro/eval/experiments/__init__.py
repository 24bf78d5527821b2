"""Per-table / per-figure experiment definitions.

Each module regenerates one table or figure from the paper's evaluation
section (Section 5), using the synthetic dataset analogs and the simulated
cluster.  The benchmark harness under ``benchmarks/`` and the CLI both call
these entry points.
"""

from repro.eval.experiments.table5 import run_table5
from repro.eval.experiments.figure5 import run_figure5
from repro.eval.experiments.figure6 import run_figure6
from repro.eval.experiments.figure7 import run_figure7
from repro.eval.experiments.figure8 import run_figure8
from repro.eval.experiments.figure9 import run_figure9
from repro.eval.experiments.figure10 import run_figure10
from repro.eval.experiments.figure11 import run_figure11
from repro.eval.experiments.table6 import run_table6
from repro.eval.experiments.ablation_alpha import run_ablation_alpha
from repro.eval.experiments.ablation_content import run_ablation_content
from repro.eval.experiments.ablation_engines import run_ablation_engines
from repro.eval.experiments.ablation_khop import run_ablation_khop
from repro.eval.experiments.ablation_partitioning import run_ablation_partitioning

__all__ = [
    "get_experiment",
    "resolve_experiment_name",
    "run_table5",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_table6",
    "run_ablation_alpha",
    "run_ablation_content",
    "run_ablation_engines",
    "run_ablation_khop",
    "run_ablation_partitioning",
]

#: Experiment registry keyed by the paper's table/figure identifier.  The
#: ``ablation-*`` entries are reproductions of design choices the paper
#: states but does not plot (α = 0.9, K = 2) plus the extensions this
#: repository adds (partitioning, vertex-cuts, path length, content-aware
#: scoring).
EXPERIMENTS = {
    "table5": run_table5,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "figure7": run_figure7,
    "figure8": run_figure8,
    "figure9": run_figure9,
    "figure10": run_figure10,
    "figure11": run_figure11,
    "table6": run_table6,
    "ablation-alpha": run_ablation_alpha,
    "ablation-content": run_ablation_content,
    "ablation-engines": run_ablation_engines,
    "ablation-khop": run_ablation_khop,
    "ablation-partitioning": run_ablation_partitioning,
}


def resolve_experiment_name(name: str) -> str:
    """Canonical :data:`EXPERIMENTS` key for ``name``.

    ``_`` and ``-`` are interchangeable, matching the component registry's
    normalizer (``ablation_alpha`` resolves to ``ablation-alpha``).  Raises
    :class:`~repro.errors.ConfigurationError` for unknown names.
    """
    from repro.errors import ConfigurationError
    from repro.runtime.registry import match_component_name

    canonical = match_component_name(name, EXPERIMENTS)
    if canonical is None:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    return canonical


def get_experiment(name: str):
    """The run function for experiment ``name`` (normalized lookup)."""
    return EXPERIMENTS[resolve_experiment_name(name)]
