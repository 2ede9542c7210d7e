"""Unit tests for the backend plugin registry (DESIGN.md §2i).

The registry is the v2 seam behind ``--backend``: eager and lazy
registration, entry-point / ``REPRO_BACKENDS`` discovery, capability
flags, the did-you-mean error, and the uniform ``--backend-opt``
coercion pipeline.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.data.backends import REGISTRY
from repro.data.backends.registry import (
    BackendCapabilities,
    BackendLoadError,
    BackendRegistry,
    coerce_option,
    parse_backend_opts,
)


class _Dummy:
    name = "dummy"
    capabilities = BackendCapabilities(supports_sql=True)

    def __init__(self, relation=None, vocabulary=None, **options):
        self.relation = relation
        self.vocabulary = vocabulary
        self.options = options


def _fresh():
    return BackendRegistry(discover=False)


class TestRegistration:
    def test_direct_and_decorator_forms(self):
        registry = _fresh()
        registry.register("direct", _Dummy)

        @registry.register("decorated", supports_oracle=True)
        class Decorated(_Dummy):
            pass

        assert registry.names() == ["decorated", "direct"]
        assert registry.get("direct") is _Dummy
        assert registry.get("decorated") is Decorated
        assert registry.capabilities("decorated").supports_oracle

    def test_duplicate_name_rejected(self):
        registry = _fresh()
        registry.register("dup", _Dummy)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("dup", _Dummy)
        registry.register("dup", _Dummy, replace_existing=True)

    def test_flags_read_off_class_when_not_declared(self):
        registry = _fresh()
        registry.register("dummy", _Dummy)
        assert registry.capabilities("dummy") == _Dummy.capabilities

    def test_explicit_flags_win_over_class_flags(self):
        registry = _fresh()
        registry.register("dummy", _Dummy, supports_oracle=True)
        caps = registry.capabilities("dummy")
        assert caps.supports_oracle is True
        assert caps.supports_sql is False

    def test_unregister(self):
        registry = _fresh()
        registry.register("gone", _Dummy)
        registry.unregister("gone")
        assert "gone" not in registry
        registry.unregister("gone")  # idempotent


class TestLazyLoading:
    def test_lazy_loader_resolves_on_first_get(self):
        registry = _fresh()
        calls = []

        def loader():
            calls.append(1)
            return _Dummy

        registry.register_lazy("lazy", loader)
        assert "lazy" in registry.names()
        assert not registry.is_loaded("lazy")
        assert registry.get("lazy") is _Dummy
        assert registry.is_loaded("lazy")
        registry.get("lazy")
        assert calls == [1]  # resolved exactly once

    def test_lazy_capabilities_read_off_loaded_class(self):
        registry = _fresh()
        registry.register_lazy("lazy", lambda: _Dummy)
        # Before the load: no declared flags, nothing forced.
        assert registry.capabilities("lazy") == BackendCapabilities()
        registry.get("lazy")
        assert registry.capabilities("lazy").supports_sql is True

    def test_lazy_load_failure_is_backend_load_error(self):
        registry = _fresh()
        registry.register_lazy("broken", "no.such.module:Thing")
        assert "broken" in registry.names()  # discoverable while unloaded
        with pytest.raises(BackendLoadError, match="failed to import"):
            registry.get("broken")

    def test_bad_spec_shapes_rejected(self):
        registry = _fresh()
        registry.register_lazy("odd", "not-a-spec")
        with pytest.raises(BackendLoadError, match="pkg.mod:Class"):
            registry.get("odd")

    def test_missing_attribute_reported(self):
        registry = _fresh()
        registry.register_lazy("noattr", "os.path:NoSuchClass")
        with pytest.raises(BackendLoadError, match="no attribute"):
            registry.get("noattr")


def _write_plugin(tmp_path, monkeypatch, body):
    (tmp_path / "fake_plugin.py").write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))


class TestEnvDiscovery:
    PLUGIN = """
        class ExternalBackend:
            name = "external"
            capabilities = {"supports_sql": True}

            def __init__(self, relation=None, vocabulary=None, **options):
                self.relation = relation
                self.vocabulary = vocabulary
                self.options = options
    """

    def test_class_spec_registers_under_class_name(
        self, tmp_path, monkeypatch
    ):
        _write_plugin(tmp_path, monkeypatch, self.PLUGIN)
        monkeypatch.setenv("REPRO_BACKENDS", "fake_plugin:ExternalBackend")
        registry = BackendRegistry()
        assert "external" in registry.names()
        assert registry.capabilities("external").supports_sql is True
        instance = registry.create("external", None, None)
        assert instance.__class__.__name__ == "ExternalBackend"

    def test_named_spec_registers_lazily(self, tmp_path, monkeypatch):
        _write_plugin(tmp_path, monkeypatch, self.PLUGIN)
        monkeypatch.setenv(
            "REPRO_BACKENDS", "mine=fake_plugin:ExternalBackend"
        )
        registry = BackendRegistry()
        assert "mine" in registry.names()
        assert not registry.is_loaded("mine")
        assert registry.get("mine").name == "external"

    def test_env_change_between_calls_is_honoured(
        self, tmp_path, monkeypatch
    ):
        _write_plugin(tmp_path, monkeypatch, self.PLUGIN)
        registry = BackendRegistry()
        monkeypatch.setenv("REPRO_BACKENDS", "")
        assert "mine" not in registry.names()
        monkeypatch.setenv(
            "REPRO_BACKENDS", "mine=fake_plugin:ExternalBackend"
        )
        assert "mine" in registry.names()

    def test_global_registry_sees_env_plugins(self, tmp_path, monkeypatch):
        """The acceptance-criteria path: a third-party backend appears in
        the process-wide registry (hence the CLI choices) without editing
        ``repro.data.backends``."""
        _write_plugin(tmp_path, monkeypatch, self.PLUGIN)
        monkeypatch.setenv(
            "REPRO_BACKENDS", "mine=fake_plugin:ExternalBackend"
        )
        try:
            assert "mine" in REGISTRY.names()
            assert "mine" in REGISTRY
        finally:
            REGISTRY.unregister("mine")
            monkeypatch.setenv("REPRO_BACKENDS", "")
            REGISTRY.names()  # re-sync the env cache to the empty value

    def test_broken_env_module_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKENDS", "no_such_plugin_module")
        registry = BackendRegistry()
        with pytest.raises(BackendLoadError, match="failed to import"):
            registry.names()


class TestErrors:
    def test_unknown_backend_lists_sorted_choices(self):
        registry = _fresh()
        registry.register("zeta", _Dummy)
        registry.register("alpha", _Dummy)
        with pytest.raises(
            ValueError, match=r"choices: alpha, zeta"
        ):
            registry.get("missing")

    def test_did_you_mean_suggestion(self):
        message = REGISTRY.unknown_backend_message("bitmsk")
        assert "did you mean 'bitmask'?" in message
        # Unloaded/discoverable names are part of the listing too.
        assert "dbapi" in message

    def test_create_uses_registry_message(self):
        with pytest.raises(ValueError, match="did you mean 'sharded'"):
            REGISTRY.create("shraded", None, None)


class TestOptionPipeline:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("true", True),
            ("Yes", True),
            ("off", False),
            ("none", None),
            ("42", 42),
            ("2.5", 2.5),
            ("file:/tmp/db.sqlite", "file:/tmp/db.sqlite"),
            ("sqlite", "sqlite"),
        ],
    )
    def test_coercion(self, raw, expected):
        assert coerce_option(raw) == expected

    def test_parse_pairs(self):
        options = parse_backend_opts(
            ["uri=file:x.db", "pool_size=2", "auto_refresh=false"]
        )
        assert options == {
            "uri": "file:x.db",
            "pool_size": 2,
            "auto_refresh": False,
        }
        assert parse_backend_opts(None) == {}

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_backend_opts(["pool_size"])
        with pytest.raises(ValueError, match="key=value"):
            parse_backend_opts(["=3"])

    def test_value_may_contain_equals(self):
        options = parse_backend_opts(["uri=file:x.db?mode=memory"])
        assert options["uri"] == "file:x.db?mode=memory"
