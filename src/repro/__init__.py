"""SNAPLE reproduction: scalable link prediction for GAS graph engines.

This package reproduces "Scaling Out Link Prediction with SNAPLE: 1 Billion
Edges and Beyond" (Kermarrec, Taïani, Tirado, 2015).  The public API re-exports
the most commonly used entry points; see the subpackages for the full surface:

* :mod:`repro.graph` — compact directed graphs, generators, dataset analogs;
* :mod:`repro.gas` — the simulated gather-apply-scatter engine and cluster model;
* :mod:`repro.snaple` — the SNAPLE scoring framework and link predictor;
* :mod:`repro.baselines` — the naive GAS baseline and the random-walk PPR baseline;
* :mod:`repro.runtime` — the pluggable execution-backend registry and RunReport;
* :mod:`repro.eval` — the evaluation protocol, metrics, and per-figure experiments.
"""

from repro.errors import (
    ConfigurationError,
    EngineError,
    EvaluationError,
    GraphError,
    PartitionError,
    ReproError,
    ResourceExhaustedError,
)
from repro.graph import DiGraph, GraphBuilder, read_edge_list, write_edge_list
from repro.graph.datasets import dataset_names, load_dataset
from repro.runtime import (
    BackendCapabilities,
    ExecutionBackend,
    RunReport,
    VertexPrediction,
    available_backends,
    backend_capabilities,
    get_backend,
    register_backend,
)
from repro.snaple import (
    SnapleConfig,
    SnapleLinkPredictor,
    paper_score_names,
    score_config,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "ExecutionBackend",
    "BackendCapabilities",
    "RunReport",
    "VertexPrediction",
    "register_backend",
    "get_backend",
    "backend_capabilities",
    "available_backends",
    "DiGraph",
    "GraphBuilder",
    "read_edge_list",
    "write_edge_list",
    "load_dataset",
    "dataset_names",
    "SnapleConfig",
    "SnapleLinkPredictor",
    "score_config",
    "paper_score_names",
    "ReproError",
    "GraphError",
    "PartitionError",
    "EngineError",
    "ResourceExhaustedError",
    "ConfigurationError",
    "EvaluationError",
]
