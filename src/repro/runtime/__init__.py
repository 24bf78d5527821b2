"""Unified execution-backend API for the SNAPLE reproduction.

One scoring framework, many engines: this package defines the
:class:`~repro.runtime.backend.ExecutionBackend` protocol, the string-keyed
backend registry, the normalized :class:`~repro.runtime.report.RunReport`
accounting shared by every engine, and the columnar state plane
(:mod:`repro.runtime.state`) the ``workers=N`` executor keeps its vertex
state in.  The first registry lookup registers the five built-in backends:

========================  =====================================================
``local``                 single-process scoring (vectorized CSR kernel)
``gas``                   simulated distributed GAS engine (vertex-cut)
``cassovary``             random-walk PPR competitor, simulated-time accounting
``random_walk_ppr``       random-walk PPR, wall-clock accounting
``topological``           classic 2-hop topological scores
========================  =====================================================

Typical use goes through :meth:`repro.snaple.predictor.SnapleLinkPredictor.predict`::

    report = SnapleLinkPredictor(config).predict(graph, backend="gas")

but backends can also be driven directly::

    backend = get_backend("gas", cluster=cluster_of(TYPE_I, 8))
    report = backend.predict(graph, config)

The heavy submodules (the engine adapters, the baselines, the parallel
executor) are imported lazily via :pep:`562` so that foundation modules such
as :mod:`repro.runtime.partition` can be imported from anywhere — including
from the engine packages themselves — without creating an import cycle
through this package.
"""

from importlib import import_module

from repro.runtime.backend import BackendCapabilities, ExecutionBackend
from repro.runtime.registry import (
    available_backends,
    available_components,
    backend_capabilities,
    component,
    component_families,
    component_options,
    get_backend,
    get_component,
    match_component_name,
    normalize_component_name,
    register_backend,
    register_component,
    register_family,
    unregister_backend,
    unregister_component,
)
from repro.runtime.report import RunReport, VertexPrediction

__all__ = [
    "ExecutionBackend",
    "BackendCapabilities",
    "RunReport",
    "VertexPrediction",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "backend_capabilities",
    "available_backends",
    "register_component",
    "unregister_component",
    "get_component",
    "available_components",
    "component",
    "component_families",
    "component_options",
    "register_family",
    "match_component_name",
    "normalize_component_name",
    "LocalBackend",
    "LOCAL_MODES",
    "GasBackend",
    "CassovaryBackend",
    "RandomWalkPprBackend",
    "TopologicalBackend",
    "ParallelExecutor",
    "ParallelRunOutcome",
    "PartitionReport",
    "run_parallel_gas",
    "StateStore",
    "StateSchema",
    "StateField",
    "FieldKind",
    "FaultSpec",
]

#: Lazily-resolved exports (PEP 562): name -> defining submodule.
_LAZY_EXPORTS = {
    "LocalBackend": "repro.runtime.engines",
    "LOCAL_MODES": "repro.runtime.engines",
    "GasBackend": "repro.runtime.engines",
    "CassovaryBackend": "repro.runtime.baselines",
    "RandomWalkPprBackend": "repro.runtime.baselines",
    "TopologicalBackend": "repro.runtime.baselines",
    "ParallelExecutor": "repro.runtime.parallel",
    "ParallelRunOutcome": "repro.runtime.parallel",
    "PartitionReport": "repro.runtime.parallel",
    "run_parallel_gas": "repro.runtime.parallel",
    "StateStore": "repro.runtime.state",
    "StateSchema": "repro.runtime.state",
    "StateField": "repro.runtime.state",
    "FieldKind": "repro.runtime.state",
    "FaultSpec": "repro.runtime.parallel",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
