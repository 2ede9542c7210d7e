"""Backend plugin API v2: the registry behind ``--backend`` (DESIGN.md §2i).

A :class:`BackendRegistry` — the ``TARGET_GENERATORS`` registry idiom —
lets backends register *by name*, carry machine-readable capability
flags, and live out of tree entirely, without editing
``repro.data.backends``:

* ``@REGISTRY.register("mine", supports_sql=True)`` — in-process
  registration (the built-ins, test doubles, ``examples/custom_backend.py``);
* ``repro.backends`` entry points — installed third-party packages are
  discovered lazily and imported only when first constructed;
* ``REPRO_BACKENDS=pkg.mod:Class,name=pkg.mod:Class,...`` — ad-hoc
  plugins without packaging; bare ``pkg.mod`` imports a module that
  self-registers, ``pkg.mod:Class`` registers the class under its own
  ``name`` attribute, and ``name=pkg.mod:Class`` registers lazily under
  an explicit name.

Capability flags (:class:`BackendCapabilities`) are what the CLI derives
its per-subcommand ``--backend`` choices from — ``supports_oracle``
marks backends that can answer membership questions for ``learn``/
``verify``, ``supports_sql`` marks the dialect-driven SQL backend —
instead of hard-coding name literals per subcommand.
``REGISTRY.create(name, relation, vocabulary, **options)`` is the one
construction seam.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "REGISTRY",
    "BackendCapabilities",
    "BackendLoadError",
    "BackendRegistry",
    "coerce_option",
    "parse_backend_opts",
]

#: Entry-point group scanned for installed third-party backends.
ENTRY_POINT_GROUP = "repro.backends"

#: Environment variable naming ad-hoc plugin modules/classes.
ENV_VAR = "REPRO_BACKENDS"


class BackendLoadError(ValueError):
    """A discovered backend failed to import/resolve when first used."""


@dataclass(frozen=True)
class BackendCapabilities:
    """Machine-readable facts the CLI and tooling key decisions on.

    supports_sql:
        Evaluation compiles to SQL over a :class:`~repro.data.sql.SqlDialect`
        (the backend accepts dialect-flavoured options such as ``uri=``).
    supports_oracle:
        ``learn``/``verify`` can build a ground-truth membership oracle
        for this backend choice (in-process compiled evaluation or the
        one-round-trip SQL path).
    """

    supports_sql: bool = False
    supports_oracle: bool = False


@dataclass
class _Entry:
    """One registered (or discoverable-but-unloaded) backend."""

    name: str
    cls: type | None  # loaded class, None while lazy
    loader: Callable[[], type] | None  # resolves the class on demand
    capabilities: BackendCapabilities
    caps_declared: bool  # were flags given at registration time?
    source: str  # "builtin" | "entry-point" | "env" | "runtime"


def _load_spec(spec: str) -> type:
    """Resolve ``pkg.mod:Class`` to the class object."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise BackendLoadError(
            f"backend spec {spec!r} is not of the form 'pkg.mod:Class'"
        )
    import importlib

    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise BackendLoadError(
            f"backend module {module_name!r} failed to import: {error}"
        ) from error
    try:
        return getattr(module, attr)
    except AttributeError as error:
        raise BackendLoadError(
            f"backend module {module_name!r} has no attribute {attr!r}"
        ) from error


def _class_capabilities(cls: type) -> BackendCapabilities:
    """Capability flags declared on the class itself (plugin idiom)."""
    declared = getattr(cls, "capabilities", None)
    if isinstance(declared, BackendCapabilities):
        return declared
    if isinstance(declared, dict):
        return BackendCapabilities(**declared)
    return BackendCapabilities()


class BackendRegistry:
    """Name → backend-class registry with lazy plugin discovery.

    Loaded entries hold the class; lazy entries (entry points, env-var
    specs) hold a loader that resolves on first :meth:`get`.  Discovery
    runs on every name listing but caches per environment value, so
    flipping ``REPRO_BACKENDS`` between calls is honoured (the test and
    multi-config story) without re-scanning entry points each time.
    """

    def __init__(self, *, discover: bool = True) -> None:
        self._entries: dict[str, _Entry] = {}
        self._discover_enabled = discover
        self._scanned_entry_points = False
        self._env_seen: str | None = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        cls: type | None = None,
        *,
        replace_existing: bool = False,
        supports_sql: bool = False,
        supports_oracle: bool = False,
    ):
        """Register a backend class, directly or as a decorator.

        ``@registry.register("mine", supports_sql=True)`` on the class,
        or ``registry.register("mine", MyBackend)``.  Duplicate names
        raise ``ValueError`` unless ``replace_existing=True`` (latest
        wins, the plugin-override story).
        """
        caps = BackendCapabilities(
            supports_sql=supports_sql,
            supports_oracle=supports_oracle,
        )
        caps_declared = caps != BackendCapabilities()

        def add(target: type) -> type:
            if name in self._entries and not replace_existing:
                raise ValueError(
                    f"backend {name!r} is already registered "
                    f"({self._entries[name].source}); pass "
                    f"replace_existing=True to override"
                )
            entry_caps = caps if caps_declared else _class_capabilities(target)
            self._entries[name] = _Entry(
                name=name,
                cls=target,
                loader=None,
                capabilities=entry_caps,
                caps_declared=True,
                source="runtime",
            )
            return target

        if cls is not None:
            return add(cls)
        return add

    def register_lazy(
        self,
        name: str,
        spec: str | Callable[[], type],
        *,
        source: str = "runtime",
        capabilities: BackendCapabilities | None = None,
        replace_existing: bool = False,
    ) -> None:
        """Register a backend that loads on first use.

        ``spec`` is either a ``pkg.mod:Class`` string or a zero-argument
        loader returning the class.  Capability flags may be declared up
        front; otherwise they are read off the loaded class (its
        ``capabilities`` attribute) the first time it resolves.
        """
        if name in self._entries and not replace_existing:
            raise ValueError(f"backend {name!r} is already registered")
        loader = spec if callable(spec) else (lambda: _load_spec(spec))
        self._entries[name] = _Entry(
            name=name,
            cls=None,
            loader=loader,
            capabilities=capabilities or BackendCapabilities(),
            caps_declared=capabilities is not None,
            source=source,
        )

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for tests and plugin teardown)."""
        self._entries.pop(name, None)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _discover(self) -> None:
        if not self._discover_enabled:
            return
        self._discover_entry_points()
        self._discover_env()

    def _discover_entry_points(self) -> None:
        if self._scanned_entry_points:
            return
        self._scanned_entry_points = True
        try:
            from importlib.metadata import entry_points

            points = entry_points(group=ENTRY_POINT_GROUP)
        except Exception:  # pragma: no cover - metadata backend quirks
            return
        for point in points:
            if point.name in self._entries:
                continue  # built-ins and runtime registrations win
            self._entries[point.name] = _Entry(
                name=point.name,
                cls=None,
                loader=point.load,
                capabilities=BackendCapabilities(),
                caps_declared=False,
                source="entry-point",
            )

    def _discover_env(self) -> None:
        raw = os.environ.get(ENV_VAR, "")
        if raw == self._env_seen:
            return
        self._env_seen = raw
        for item in (piece.strip() for piece in raw.split(",")):
            if not item:
                continue
            name, sep, spec = item.partition("=")
            if sep and name and ":" in spec:
                # name=pkg.mod:Class — lazy under the explicit name.
                if name not in self._entries:
                    self.register_lazy(name, spec, source="env")
            elif ":" in item:
                # pkg.mod:Class — load now, the class names itself.
                cls = _load_spec(item)
                cls_name = getattr(cls, "name", None)
                if not isinstance(cls_name, str) or not cls_name:
                    raise BackendLoadError(
                        f"{ENV_VAR} entry {item!r}: class declares no "
                        f"'name' attribute to register under"
                    )
                if cls_name not in self._entries:
                    self._entries[cls_name] = _Entry(
                        name=cls_name,
                        cls=cls,
                        loader=None,
                        capabilities=_class_capabilities(cls),
                        caps_declared=True,
                        source="env",
                    )
            else:
                # Bare pkg.mod — importing it self-registers (decorator).
                import importlib

                try:
                    importlib.import_module(item)
                except ImportError as error:
                    raise BackendLoadError(
                        f"{ENV_VAR} module {item!r} failed to import: {error}"
                    ) from error

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Sorted names: registered *and* discoverable-but-unloaded."""
        self._discover()
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        self._discover()
        return name in self._entries

    def get(self, name: str) -> type:
        """The backend class, resolving a lazy entry on first use."""
        self._discover()
        entry = self._entries.get(name)
        if entry is None:
            raise ValueError(self.unknown_backend_message(name))
        if entry.cls is None:
            try:
                entry.cls = entry.loader()
            except BackendLoadError:
                raise
            except Exception as error:
                raise BackendLoadError(
                    f"backend {name!r} ({entry.source}) failed to load: "
                    f"{error}"
                ) from error
            if not entry.caps_declared:
                entry.capabilities = _class_capabilities(entry.cls)
                entry.caps_declared = True
        return entry.cls

    def capabilities(self, name: str) -> BackendCapabilities:
        """Declared capability flags, without forcing a lazy load."""
        self._discover()
        entry = self._entries.get(name)
        if entry is None:
            raise ValueError(self.unknown_backend_message(name))
        return entry.capabilities

    def names_with(self, **flags: Any) -> list[str]:
        """Sorted names whose capabilities match every given flag.

        ``registry.names_with(supports_oracle=True)`` is how the CLI
        derives the ``learn``/``verify`` choices from the registry.
        """
        return [
            name
            for name in self.names()
            if all(
                getattr(self._entries[name].capabilities, key) == value
                for key, value in flags.items()
            )
        ]

    def is_loaded(self, name: str) -> bool:
        """Has the backend class been resolved yet? (lazy introspection)"""
        entry = self._entries.get(name)
        return entry is not None and entry.cls is not None

    def unknown_backend_message(self, name: str) -> str:
        """The 'unknown backend' error: sorted names + did-you-mean."""
        names = self.names()
        suggestion = difflib.get_close_matches(str(name), names, n=1)
        hint = f" (did you mean {suggestion[0]!r}?)" if suggestion else ""
        return (
            f"unknown evaluation backend {name!r}{hint}; "
            f"choices: {', '.join(names)}"
        )

    def create(self, name: str, *args: Any, **options: Any):
        """Construct a registered backend by name: ``args`` are the
        relation and vocabulary, ``options`` go to its constructor.
        Unknown names raise ``ValueError`` listing every known backend,
        sorted, with a did-you-mean suggestion."""
        return self.get(name)(*args, **options)


#: The process-wide backend registry.
REGISTRY = BackendRegistry()


# ----------------------------------------------------------------------
# The uniform --backend-opt pipeline
# ----------------------------------------------------------------------
def coerce_option(value: str) -> Any:
    """Typed coercion for one ``--backend-opt`` value string.

    ``true/false/yes/no/on/off`` → bool, ``none/null`` → None, int- and
    float-looking strings → numbers, everything else stays a string
    (URIs, dialect names, file paths).
    """
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_backend_opts(pairs: Any) -> dict[str, Any]:
    """``["uri=file:x.db", "pool_size=2"]`` → ``{"uri": ..., "pool_size": 2}``.

    The one options pipeline shared by the CLI subcommands, the pytest
    ``--backend-opt`` flag and anything else that accepts repeatable
    ``key=value`` strings; values go through :func:`coerce_option`.
    """
    options: dict[str, Any] = {}
    for item in pairs or ():
        key, sep, value = str(item).partition("=")
        if not sep or not key:
            raise ValueError(
                f"backend option {item!r} is not of the form key=value"
            )
        options[key] = coerce_option(value)
    return options

