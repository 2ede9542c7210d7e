"""Evaluation backends behind one seam (DESIGN.md §2c, §2i).

Two implementations of the :class:`EvaluationBackend` contract:

* ``bitmask`` — one :class:`~repro.data.index.RelationIndex` over the
  whole relation, evaluated by the bitmask kernel
  :class:`~repro.data.index.BitsetKernel` (the default; DESIGN.md §2g);
* ``dbapi`` — the relation loaded into a DB-API database, each query
  compiled to SQLite SQL once and answered in one round trip on the
  backend's one connection (a shared-memory or file-backed SQLite
  database, or any connection ``connect=`` returns; DESIGN.md §2i).

:data:`BACKENDS` maps the two names to their classes, and
``create(name, relation, vocabulary, **options)`` is the single
construction seam the engine, CLI and benchmarks go through.
"""

from __future__ import annotations

from repro.data.backends.base import EvaluationBackend, check_width
from repro.data.backends.bitmask import BitmaskBackend
from repro.data.backends.dbapi import DbApiBackend
from repro.data.backends.registry import (
    BACKENDS,
    backend_class,
    coerce_option,
    create,
    parse_backend_opts,
)

__all__ = [
    "BACKENDS",
    "BitmaskBackend",
    "DbApiBackend",
    "EvaluationBackend",
    "backend_class",
    "check_width",
    "coerce_option",
    "create",
    "parse_backend_opts",
]
