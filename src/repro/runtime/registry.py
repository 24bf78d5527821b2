"""String-keyed plugin registry for every component family.

Originally this module registered only *execution backends*; it now hosts a
per-family namespace for every pluggable component of the reproduction:

==============  ======================================================
``engine``      execution backends (``local``, ``gas``, ...)
``similarity``  raw vertex similarities (:mod:`repro.snaple.similarity`)
``aggregator``  path aggregators ``⊕`` (:mod:`repro.snaple.aggregators`)
``combinator``  path combinators ``⊗`` (:mod:`repro.snaple.combinators`)
``sampler``     ``klocal`` neighbor-selection policies
``dataset``     dataset analogs and graph sources (generators)
``workload``    suite-runner workload drivers (:mod:`repro.suites.runner`)
==============  ======================================================

Each family pairs a table of *built-in* factories (seeded lazily the first
time the family is touched, so importing :mod:`repro.runtime` stays cheap
and cycle-free) with user registrations layered on top.  Built-ins are
tracked separately from user registrations: unregistering a name removes
the user's factory and *reverts* to the built-in one, which is re-seeded
lazily on the next lookup — a built-in can be shadowed but never lost.

Option validation happens here, up front: passing an option the factory
does not accept, or leaving out one it requires, raises a
:class:`~repro.errors.ConfigurationError` naming the component and the
offending option instead of a bare ``TypeError`` from deep inside the
component.

Name normalization is unified at the registry level: ``_`` and ``-`` are
interchangeable in lookups (``random-walk-ppr`` resolves the built-in
``random_walk_ppr`` backend) while case stays significant (the paper's
``Sum`` / ``Mean`` / ``Geom`` aggregators are distinct from hypothetical
lowercase names).  Every name lookup in the repository — CLI experiment
names, suite files, component getters — routes through
:func:`match_component_name`.

Constructed components are fingerprint-cached per family (name + options,
JSON-serialized with sorted keys, as in the elspeth middleware-lifecycle
design): same fingerprint → same instance.  Stateful families (engines,
workloads — a backend binds a graph in ``prepare``) opt out and construct
a fresh instance per :func:`get_component` call.

Third-party components plug in with the decorator or the functional API::

    from repro.runtime.registry import component, register_component

    @component("engine", "sharded")
    class ShardedBackend(ExecutionBackend):
        name = "sharded"
        ...

    register_component("similarity", "lhn", value=leicht_holme_newman)
"""

from __future__ import annotations

import inspect
import json
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.backend import BackendCapabilities, ExecutionBackend

__all__ = [
    "available_backends",
    "available_components",
    "backend_capabilities",
    "component",
    "component_families",
    "component_options",
    "get_backend",
    "get_component",
    "match_component_name",
    "normalize_component_name",
    "register_backend",
    "register_component",
    "register_family",
    "unregister_backend",
    "unregister_component",
]


def normalize_component_name(name: str) -> str:
    """The normalization fold applied to every registry name lookup.

    ``_`` and ``-`` are interchangeable; case is preserved (the paper's
    aggregator names are case-sensitive).  Canonical registered names are
    kept as-is — the fold is only used for matching.
    """
    return name.strip().replace("-", "_")


def match_component_name(name: str, candidates: Iterable[str]) -> str | None:
    """The canonical candidate ``name`` refers to, or ``None``.

    Exact matches win; otherwise the normalization fold decides (so
    ``ablation_engines`` matches the canonical ``ablation-engines``).
    This is the single normalizer behind every component *and* experiment
    name lookup.
    """
    pool = list(candidates)
    if name in pool:
        return name
    fold = normalize_component_name(name)
    for candidate in pool:
        if normalize_component_name(candidate) == fold:
            return candidate
    return None


class _Value:
    """Marker wrapper for constant (non-constructed) components."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


@dataclass
class _Family:
    """One component namespace: built-ins + user registrations + cache."""

    name: str
    label: str
    loader: Callable[[], None] | None = None
    cacheable: bool = True
    loaded: bool = False
    loading: bool = False
    builtins: dict[str, Any] = field(default_factory=dict)
    active: dict[str, Any] = field(default_factory=dict)
    cache: dict[tuple[str, str], Any] = field(default_factory=dict)

    @property
    def plural(self) -> str:
        return f"{self.label}s"

    def ensure_loaded(self) -> None:
        if self.loaded or self.loading:
            return
        self.loading = True
        try:
            if self.loader is not None:
                self.loader()
        finally:
            self.loading = False
        self.loaded = True

    def names(self) -> tuple[str, ...]:
        """Every resolvable name: active registrations plus built-ins.

        Built-ins always appear — an unregistered built-in is re-seeded on
        its next lookup, so it is still available.
        """
        self.ensure_loaded()
        return tuple(sorted(set(self.active) | set(self.builtins)))

    def resolve(self, name: str) -> tuple[str, Any]:
        """The ``(canonical name, factory)`` pair for ``name``.

        Falls back to the built-in table when the name is absent from the
        active registrations (the lazy re-seed that makes
        ``unregister`` of a built-in revertible rather than permanent).
        """
        self.ensure_loaded()
        canonical = match_component_name(name, self.active)
        if canonical is not None:
            return canonical, self.active[canonical]
        canonical = match_component_name(name, self.builtins)
        if canonical is not None:
            factory = self.builtins[canonical]
            self.active[canonical] = factory
            return canonical, factory
        known = ", ".join(self.names()) or "none registered"
        raise ConfigurationError(
            f"unknown {self.label} {name!r}; available {self.plural}: {known}"
        )


#: All component families by name.  ``register_family`` adds more.
_FAMILIES: dict[str, _Family] = {}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigurationError(
            f"unknown component family {name!r}; available families: {known}"
        ) from None


def register_family(name: str, *, label: str | None = None,
                    cacheable: bool = True,
                    loader: Callable[[], None] | None = None) -> None:
    """Declare a new component namespace (idempotent for identical specs)."""
    if not name:
        raise ConfigurationError("family name must be a non-empty string")
    if name in _FAMILIES:
        raise ConfigurationError(f"component family {name!r} already exists")
    _FAMILIES[name] = _Family(name=name, label=label or name,
                              cacheable=cacheable, loader=loader)


def component_families() -> tuple[str, ...]:
    """Sorted names of every component family."""
    return tuple(sorted(_FAMILIES))


_UNSET = object()


def register_component(family: str, name: str,
                       factory: Callable[..., Any] | None = None, *,
                       value: Any = _UNSET, replace: bool = False,
                       builtin: bool = False) -> None:
    """Register a component under ``family``/``name``.

    Exactly one of ``factory`` (a callable whose keyword parameters are the
    component's options) or ``value`` (a constant component handed out
    as-is, e.g. a similarity function) must be given.  Re-registering an
    existing name raises unless ``replace=True`` (so a typo cannot silently
    shadow a built-in).  ``builtin`` is reserved for the lazy family
    loaders: such registrations land in the built-in table and survive
    :func:`unregister_component`.
    """
    spec = _family(family)
    if not builtin:
        spec.ensure_loaded()
    if not name:
        raise ConfigurationError(
            f"{spec.label} name must be a non-empty string"
        )
    if (factory is None) == (value is _UNSET):
        raise ConfigurationError(
            "register_component needs exactly one of factory= or value="
        )
    entry = _Value(value) if factory is None else factory
    existing = match_component_name(name, spec.names())
    if existing is not None and not replace:
        if existing == name and name in spec.active:
            raise ConfigurationError(
                f"{spec.label} {name!r} is already registered; pass "
                "replace=True to override it"
            )
        if existing != name:
            raise ConfigurationError(
                f"{spec.label} name {name!r} normalizes to the same key as "
                f"the registered {existing!r}; pick a distinct name or pass "
                "replace=True"
            )
    canonical = existing if existing is not None else name
    spec.active[canonical] = entry
    if builtin:
        spec.builtins[canonical] = entry
    _evict_fingerprints(spec, canonical)


def unregister_component(family: str, name: str) -> None:
    """Remove ``name`` from ``family``'s active registrations.

    Built-in names revert to their built-in factory: the registry re-seeds
    them lazily on the next lookup, so unregistering a built-in removes an
    override rather than losing the component forever.
    """
    spec = _family(family)
    spec.ensure_loaded()
    canonical = match_component_name(name, spec.active)
    if canonical is None:
        if match_component_name(name, spec.builtins) is not None:
            # Already at the built-in baseline; nothing to remove.
            return
        raise ConfigurationError(
            f"{spec.label} {name!r} is not registered"
        )
    del spec.active[canonical]
    _evict_fingerprints(spec, canonical)


def available_components(family: str) -> tuple[str, ...]:
    """Sorted canonical names of every component in ``family``."""
    return _family(family).names()


def _evict_fingerprints(spec: _Family, canonical: str) -> None:
    for key in [k for k in spec.cache if k[0] == canonical]:
        del spec.cache[key]


def _supported_options(factory: Callable[..., Any]) -> set[str] | None:
    """Keyword options ``factory`` accepts (``None`` means "anything")."""
    if isinstance(factory, _Value):
        return set()
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return None
    options: set[str] = set()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              inspect.Parameter.KEYWORD_ONLY):
            options.add(parameter.name)
    return options


def _required_options(factory: Callable[..., Any]) -> set[str]:
    """Options without defaults — construction fails unless they are given."""
    if isinstance(factory, _Value):
        return set()
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return set()
    return {
        parameter.name
        for parameter in signature.parameters.values()
        if parameter.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              inspect.Parameter.KEYWORD_ONLY)
        and parameter.default is inspect.Parameter.empty
    }


def _validate_options(spec: _Family, name: str, factory: Callable[..., Any],
                      options: Mapping[str, Any]) -> None:
    supported = _supported_options(factory)
    if supported is None:
        return
    for option in options:
        if option not in supported:
            accepted = ", ".join(sorted(supported)) or "no options"
            raise ConfigurationError(
                f"{spec.label} {name!r} does not support option "
                f"{option!r}; it accepts: {accepted}"
            )
    missing = sorted(_required_options(factory) - set(options))
    if missing:
        raise ConfigurationError(
            f"{spec.label} {name!r} requires option(s) {', '.join(missing)}"
        )


def _fingerprint(options: Mapping[str, Any]) -> str:
    """Stable options fingerprint (sorted-key JSON; ``repr`` as fallback)."""
    return json.dumps(options, sort_keys=True, default=repr)


def component_options(family: str, name: str) -> tuple[str, ...] | None:
    """Sorted option names ``family``/``name`` accepts (``None``: anything)."""
    spec = _family(family)
    _, factory = spec.resolve(name)
    supported = _supported_options(factory)
    if supported is None:
        return None
    return tuple(sorted(supported))


def get_component(family: str, name: str, **options) -> Any:
    """A configured component instance for ``family``/``name``.

    Options are validated against the factory signature up front.  For
    cacheable families the constructed instance is fingerprint-cached:
    repeated calls with the same (name, options) return the same object.

    Raises
    ------
    ConfigurationError
        When the family or name is unknown, or an option is not accepted
        by the factory (the message names both).
    """
    spec = _family(family)
    canonical, factory = spec.resolve(name)
    _validate_options(spec, canonical, factory, options)
    if isinstance(factory, _Value):
        return factory.value
    if spec.cacheable:
        key = (canonical, _fingerprint(options))
        if key not in spec.cache:
            spec.cache[key] = factory(**options)
        return spec.cache[key]
    return factory(**options)


def component(family: str, name: str | None = None, *, value: bool = False,
              replace: bool = False, builtin: bool = False):
    """Decorator form of :func:`register_component`.

    ``name`` defaults to the object's ``name`` attribute (the convention
    every component class in this repository follows) and falls back to
    ``__name__``.  ``value=True`` registers the decorated object itself as
    a constant component instead of treating it as a factory.
    """
    def decorate(obj):
        key = name
        if key is None:
            key = getattr(obj, "name", None)
            if not isinstance(key, str) or not key:
                key = getattr(obj, "__name__", None)
        if not key:
            raise ConfigurationError(
                f"cannot derive a registry name for {obj!r}; pass name="
            )
        if value:
            register_component(family, key, value=obj, replace=replace,
                               builtin=builtin)
        else:
            register_component(family, key, obj, replace=replace,
                               builtin=builtin)
        return obj

    return decorate


# ----------------------------------------------------------------------
# Built-in family loaders.  Each one imports the defining modules lazily
# (keeping :mod:`repro.runtime` import-cheap and cycle-free) and seeds the
# family's built-in table.
# ----------------------------------------------------------------------

def _load_engines() -> None:
    from repro.runtime.baselines import (
        CassovaryBackend,
        GasBaselineBackend,
        RandomWalkPprBackend,
        TopologicalBackend,
    )
    from repro.runtime.engines import (
        ContentBackend,
        GasBackend,
        KHopBackend,
        LocalBackend,
    )

    for backend_cls in (LocalBackend, GasBackend, KHopBackend, ContentBackend,
                        CassovaryBackend, RandomWalkPprBackend,
                        TopologicalBackend, GasBaselineBackend):
        register_component("engine", backend_cls.name, backend_cls,
                           replace=True, builtin=True)


def _load_similarities() -> None:
    from repro.snaple.similarity import SIMILARITIES

    for name, function in SIMILARITIES.items():
        register_component("similarity", name, value=function,
                           replace=True, builtin=True)


def _load_aggregators() -> None:
    from repro.snaple.aggregators import AGGREGATORS

    for name, aggregator in AGGREGATORS.items():
        register_component("aggregator", name, value=aggregator,
                           replace=True, builtin=True)


def _load_combinators() -> None:
    from repro.snaple.combinators import COMBINATORS, linear_combinator

    for name, combinator in COMBINATORS.items():
        if name == "linear":
            register_component("combinator", name, linear_combinator,
                               replace=True, builtin=True)
        else:
            register_component("combinator", name, value=combinator,
                               replace=True, builtin=True)


def _load_samplers() -> None:
    from repro.snaple.sampler import SAMPLERS

    for name, sampler in SAMPLERS.items():
        register_component("sampler", name, value=sampler,
                           replace=True, builtin=True)


def _load_datasets() -> None:
    from repro.graph.datasets import register_builtin_sources

    register_builtin_sources()


def _load_workloads() -> None:
    from repro.suites.runner import register_builtin_workloads

    register_builtin_workloads()


register_family("engine", label="execution backend", cacheable=False,
                loader=_load_engines)
register_family("similarity", loader=_load_similarities)
register_family("aggregator", loader=_load_aggregators)
register_family("combinator", loader=_load_combinators)
register_family("sampler", loader=_load_samplers)
register_family("dataset", label="dataset source", loader=_load_datasets)
register_family("workload", cacheable=False, loader=_load_workloads)


# ----------------------------------------------------------------------
# Execution-backend convenience wrappers (the original registry API).
# ----------------------------------------------------------------------

def register_backend(name: str, factory: Callable[..., "ExecutionBackend"],
                     *, replace: bool = False) -> None:
    """Register an execution-backend ``factory`` under ``name``.

    Re-registering an existing name raises unless ``replace=True`` (so a
    typo cannot silently shadow a built-in engine).
    """
    register_component("engine", name, factory, replace=replace)


def unregister_backend(name: str) -> None:
    """Remove ``name`` from the engine registry.

    Unknown names raise; built-in names revert to the built-in engine
    (re-seeded lazily on the next lookup) instead of disappearing forever.
    """
    unregister_component("engine", name)


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered execution backend."""
    return available_components("engine")


def get_backend(name: str, **options) -> "ExecutionBackend":
    """A configured backend instance for ``name``.

    Raises
    ------
    ConfigurationError
        When ``name`` is not registered, or when an option is not accepted
        by the backend (the message names both).
    """
    return get_component("engine", name, **options)


def backend_capabilities(name: str) -> "BackendCapabilities":
    """The :class:`BackendCapabilities` of backend ``name``.

    Resolved without a full construction when possible: a factory exposing
    ``capabilities`` as a classmethod/staticmethod is asked directly.
    Otherwise the backend is instantiated with no options — and factories
    with *required* options get a precise :class:`ConfigurationError`
    (instead of the bare ``TypeError`` a blind ``factory()`` would raise)
    telling the caller to construct via :func:`get_backend` and call
    ``.capabilities()`` on the instance.
    """
    spec = _family("engine")
    canonical, factory = spec.resolve(name)
    capabilities = inspect.getattr_static(factory, "capabilities", None)
    if isinstance(capabilities, (classmethod, staticmethod)):
        return getattr(factory, "capabilities")()
    required = _required_options(factory)
    if required:
        missing = ", ".join(sorted(required))
        raise ConfigurationError(
            f"backend {canonical!r} requires options ({missing}) and cannot "
            "be instantiated without them; construct it with "
            "get_backend(name, ...) and call .capabilities() on the "
            "instance, or expose capabilities as a classmethod"
        )
    return factory().capabilities()
