"""The backend table behind ``--backend`` (DESIGN.md §2i).

:data:`BACKENDS` maps each in-tree backend's name to its class, and
:func:`create` is the one construction seam: the engine, the CLI, the
conformance differ and the benchmarks all build backends through it.
:func:`parse_backend_opts` is the one ``--backend-opt KEY=VALUE``
pipeline, shared by ``repro demo`` and the pytest fixtures.
"""

from __future__ import annotations

from typing import Any

from repro.data.backends.base import EvaluationBackend
from repro.data.backends.bitmask import BitmaskBackend
from repro.data.backends.dbapi import DbApiBackend

__all__ = [
    "BACKENDS",
    "backend_class",
    "coerce_option",
    "create",
    "parse_backend_opts",
]

#: Every evaluation backend, by the name ``--backend`` and
#: ``QueryEngine(backend=...)`` accept.
BACKENDS: dict[str, type] = {
    BitmaskBackend.name: BitmaskBackend,
    DbApiBackend.name: DbApiBackend,
}


def backend_class(name: str) -> type:
    """The backend class called ``name``; an unknown name raises
    ``ValueError`` listing the sorted choices."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown evaluation backend {name!r}; "
            f"choices: {', '.join(sorted(BACKENDS))}"
        ) from None


def create(
    name: str, relation: Any, vocabulary: Any, **options: Any
) -> EvaluationBackend:
    """Construct the backend called ``name`` over ``relation``;
    ``options`` go to its constructor."""
    return backend_class(name)(relation, vocabulary, **options)


# ----------------------------------------------------------------------
# The uniform --backend-opt pipeline
# ----------------------------------------------------------------------
def coerce_option(value: str) -> Any:
    """Typed coercion for one ``--backend-opt`` value string.

    ``true/false/yes/no/on/off`` → bool, ``none/null`` → None, int- and
    float-looking strings → numbers, everything else stays a string
    (URIs, file paths).
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
    """``["uri=file:x.db"]`` → ``{"uri": "file:x.db"}``.

    The one options pipeline shared by ``repro demo``, the pytest
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
