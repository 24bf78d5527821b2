"""Registry registration, lookup and error paths."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, EngineError
from repro.runtime import (
    BackendCapabilities,
    ExecutionBackend,
    RunReport,
    available_backends,
    available_components,
    backend_capabilities,
    component_families,
    component_options,
    get_backend,
    get_component,
    match_component_name,
    normalize_component_name,
    register_backend,
    register_component,
    unregister_backend,
    unregister_component,
)


class _DummyBackend(ExecutionBackend):
    name = "dummy"

    def __init__(self, flavour: str = "plain") -> None:
        super().__init__()
        self.flavour = flavour

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(name=self.name, options=("flavour",))

    def run(self, vertices=None) -> RunReport:
        graph, _ = self._require_prepared()
        targets = self._target_vertices(vertices)
        return RunReport(
            backend=self.name,
            predictions={u: [] for u in targets},
            scores={u: {} for u in targets},
        )


class TestBuiltinRegistry:
    def test_builtin_backends_are_registered(self):
        names = available_backends()
        for expected in ("local", "gas", "khop", "content", "gas_baseline",
                         "cassovary", "random_walk_ppr", "topological"):
            assert expected in names
        assert "bsp" not in names

    def test_every_package_export_resolves(self):
        # The package's exports are lazy: a name left in __all__ after its
        # definition is deleted only fails when someone imports it.
        import repro.runtime as runtime

        for name in runtime.__all__:
            assert getattr(runtime, name) is not None, name
        assert not {"run_parallel_bsp", "MessageBlock"} & set(runtime.__all__)

    def test_available_backends_is_sorted(self):
        names = available_backends()
        assert list(names) == sorted(names)

    def test_capabilities_lookup(self):
        capabilities = backend_capabilities("gas")
        assert capabilities.name == "gas"
        assert capabilities.simulated
        assert capabilities.distributed
        local = backend_capabilities("local")
        assert not local.simulated
        assert local.incremental


class TestRegistration:
    def test_register_lookup_and_unregister(self):
        register_backend("dummy", _DummyBackend)
        try:
            assert "dummy" in available_backends()
            backend = get_backend("dummy", flavour="spicy")
            assert isinstance(backend, _DummyBackend)
            assert backend.flavour == "spicy"
        finally:
            unregister_backend("dummy")
        assert "dummy" not in available_backends()

    def test_duplicate_registration_rejected(self):
        register_backend("dummy", _DummyBackend)
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend("dummy", _DummyBackend)
            register_backend("dummy", _DummyBackend, replace=True)
        finally:
            unregister_backend("dummy")

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("", _DummyBackend)

    def test_unregister_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            unregister_backend("never-registered")


class TestErrorPaths:
    def test_unknown_backend_names_available_ones(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            get_backend("spark")
        with pytest.raises(ConfigurationError, match="local"):
            get_backend("spark")

    def test_unsupported_option_names_backend_and_option(self):
        with pytest.raises(ConfigurationError, match="'local'.*'cluster'"):
            get_backend("local", cluster=object())

    def test_unsupported_option_lists_accepted_options(self):
        with pytest.raises(ConfigurationError, match="cluster"):
            get_backend("gas", warp_speed=9)

    def test_run_before_prepare_raises(self, triangle_graph):
        backend = get_backend("local")
        with pytest.raises(EngineError, match="prepared"):
            backend.run()


class TestNameNormalization:
    def test_dash_and_underscore_are_interchangeable(self):
        assert normalize_component_name("random-walk-ppr") == "random_walk_ppr"
        backend = get_backend("random-walk-ppr")
        assert backend.name == "random_walk_ppr"

    def test_case_is_preserved(self):
        assert normalize_component_name("Sum") == "Sum"
        assert match_component_name("sum", ["Sum"]) is None

    def test_match_prefers_exact_over_fold(self):
        assert match_component_name("a-b", ["a_b", "a-b"]) == "a-b"
        assert match_component_name("a-b", ["a_b"]) == "a_b"

    def test_fold_collision_with_other_name_rejected(self):
        register_backend("fold_probe", _DummyBackend)
        try:
            with pytest.raises(ConfigurationError, match="normalizes to"):
                register_backend("fold-probe", _DummyBackend)
        finally:
            unregister_backend("fold_probe")
        assert "fold_probe" not in available_backends()


class _RequiresOptionBackend(_DummyBackend):
    name = "needs-cluster"

    def __init__(self, cluster) -> None:
        super().__init__()
        self.cluster = cluster


class _ClassCapabilitiesBackend(_DummyBackend):
    name = "class-capabilities"

    def __init__(self, cluster) -> None:
        super().__init__()
        self.cluster = cluster

    @classmethod
    def capabilities(cls) -> BackendCapabilities:
        return BackendCapabilities(name=cls.name, options=("cluster",))


class TestBuiltinReseed:
    """Unregistering a built-in must revert, not remove it forever."""

    def test_unregistered_builtin_comes_back(self):
        unregister_backend("gas")
        assert "gas" in available_backends()
        backend = get_backend("gas")
        assert backend.name == "gas"

    def test_replace_then_unregister_reverts_to_builtin(self):
        register_backend("gas", _DummyBackend, replace=True)
        try:
            assert isinstance(get_backend("gas"), _DummyBackend)
        finally:
            unregister_backend("gas")
        assert not isinstance(get_backend("gas"), _DummyBackend)
        assert get_backend("gas").name == "gas"

    def test_unregister_twice_is_harmless_for_builtins(self):
        unregister_backend("local")
        unregister_backend("local")
        assert get_backend("local").name == "local"

    def test_every_builtin_capability_is_resolvable(self):
        for name in available_backends():
            assert backend_capabilities(name).name


class TestCapabilitiesWithoutConstruction:
    def test_required_options_raise_configuration_error(self):
        register_backend("needs-cluster", _RequiresOptionBackend)
        try:
            with pytest.raises(ConfigurationError, match="cluster"):
                backend_capabilities("needs-cluster")
            with pytest.raises(ConfigurationError,
                               match="'needs-cluster' requires option"):
                get_backend("needs-cluster")
        finally:
            unregister_backend("needs-cluster")

    def test_classmethod_capabilities_skip_construction(self):
        register_backend("class-capabilities", _ClassCapabilitiesBackend)
        try:
            capabilities = backend_capabilities("class-capabilities")
            assert capabilities.name == "class-capabilities"
        finally:
            unregister_backend("class-capabilities")


class TestComponentFamilies:
    def test_all_families_are_declared(self):
        families = component_families()
        for expected in ("engine", "similarity", "aggregator", "combinator",
                         "sampler", "dataset", "workload"):
            assert expected in families

    def test_unknown_family_lists_available_families(self):
        with pytest.raises(ConfigurationError, match="component family"):
            get_component("universe", "everything")

    def test_component_getters_share_the_engine_namespace(self):
        assert available_components("engine") == available_backends()

    def test_fingerprint_cache_returns_same_instance(self):
        first = get_component("combinator", "linear", alpha=0.3)
        second = get_component("combinator", "linear", alpha=0.3)
        assert first is second
        other = get_component("combinator", "linear", alpha=0.4)
        assert other is not first

    def test_cache_evicted_on_reregistration(self):
        cached = get_component("combinator", "linear", alpha=0.35)
        register_component("combinator", "linear",
                           lambda alpha=0.9: cached, replace=True)
        try:
            pass
        finally:
            unregister_component("combinator", "linear")
        fresh = get_component("combinator", "linear", alpha=0.35)
        assert fresh is not cached

    def test_engines_are_not_cached(self):
        assert get_backend("local") is not get_backend("local")

    def test_value_components_ignore_the_cache(self):
        from repro.snaple.similarity import jaccard

        assert get_component("similarity", "jaccard") is jaccard

    def test_component_options_lists_factory_keywords(self):
        options = component_options("engine", "gas")
        assert options is not None
        assert "cluster" in options

    def test_value_component_rejects_options(self):
        with pytest.raises(ConfigurationError, match="no options"):
            get_component("similarity", "jaccard", scale=2)

    def test_dataset_family_serves_analogs_and_generators(self):
        names = available_components("dataset")
        assert "orkut" in names
        assert "powerlaw_cluster" in names
        graph = get_component("dataset", "erdos_renyi",
                              num_vertices=30, edge_probability=0.1, seed=1)
        assert graph.num_vertices == 30
