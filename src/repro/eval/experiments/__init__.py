"""Per-table / per-figure experiment definitions.

The modules here regenerate the tables and figures of the paper's
evaluation section (Section 5) that need more than a recall sweep: cluster
objects (Table 5, Figure 5, Table 6), vertex profiles (the content
ablation), degree CDFs (Figure 6) or non-recall outputs (Figure 11, the
engine and partitioning ablations).  The recall sweeps — figures 7–10 and
the α / K ablations — are suites in :mod:`repro.eval.paper`.
:data:`EXPERIMENTS` holds both kinds; the CLI (``snaple <name>``) and the
benchmark harness under ``benchmarks/`` call these entry points.
"""

from repro.eval.experiments.table5 import run_table5
from repro.eval.experiments.figure5 import run_figure5
from repro.eval.experiments.figure6 import run_figure6
from repro.eval.experiments.figure11 import run_figure11
from repro.eval.experiments.table6 import run_table6
from repro.eval.experiments.ablation_content import run_ablation_content
from repro.eval.experiments.ablation_engines import run_ablation_engines
from repro.eval.experiments.ablation_partitioning import run_ablation_partitioning
from repro.eval.paper import PAPER_EXPERIMENTS

__all__ = [
    "EXPERIMENTS",
    "run_table5",
    "run_figure5",
    "run_figure6",
    "run_figure11",
    "run_table6",
    "run_ablation_content",
    "run_ablation_engines",
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
    "figure11": run_figure11,
    "table6": run_table6,
    "ablation-content": run_ablation_content,
    "ablation-engines": run_ablation_engines,
    "ablation-partitioning": run_ablation_partitioning,
    **PAPER_EXPERIMENTS,
}
