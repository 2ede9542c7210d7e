"""Pluggable evaluation backends behind one seam (DESIGN.md §2c, §2i).

Three built-in implementations of the :class:`EvaluationBackend` contract:

* ``bitmask`` — one :class:`~repro.data.index.RelationIndex` over the
  whole relation (the default);
* ``sharded`` — the relation partitioned into object-position blocks so
  bitset widths stay bounded; builds and full-relation labeling scale
  linearly;
* ``dbapi`` — the relation loaded into *any* DB-API database through a
  :class:`~repro.data.sql.SqlDialect`, each query compiled to SQL once
  and answered in one round trip through a bounded connection pool
  (shared-memory or file-backed SQLite today, client/server drivers via
  ``connect=`` tomorrow; DESIGN.md §2i).

Backends register on the plugin :data:`REGISTRY` (DESIGN.md §2i) with
capability flags the CLI derives its choices from; third-party backends
join via ``repro.backends`` entry points or the ``REPRO_BACKENDS``
environment variable without editing this package.  ``bitmask`` and
``sharded`` both evaluate through the one bitmask kernel,
:class:`~repro.data.index.BitsetKernel` (DESIGN.md §2g).

``REGISTRY.create(name, relation, vocabulary, **options)`` is the single
construction seam the engine, CLI and experiments go through.
"""

from __future__ import annotations

from repro.data.backends.base import EvaluationBackend, check_width
from repro.data.backends.bitmask import BitmaskBackend
from repro.data.backends.dbapi import DbApiBackend, PooledConnectionSource
from repro.data.backends.registry import (
    REGISTRY,
    BackendCapabilities,
    BackendLoadError,
    BackendRegistry,
    coerce_option,
    parse_backend_opts,
)
from repro.data.backends.sharded import (
    DEFAULT_SHARD_SIZE,
    ShardedBitmaskBackend,
)

__all__ = [
    "REGISTRY",
    "BackendCapabilities",
    "BackendLoadError",
    "BackendRegistry",
    "BitmaskBackend",
    "DbApiBackend",
    "DEFAULT_SHARD_SIZE",
    "EvaluationBackend",
    "PooledConnectionSource",
    "ShardedBitmaskBackend",
    "check_width",
    "coerce_option",
    "parse_backend_opts",
]

# ----------------------------------------------------------------------
# Built-in registrations (capability flags drive the CLI choices).
# ----------------------------------------------------------------------
REGISTRY.register(
    BitmaskBackend.name, BitmaskBackend, supports_oracle=True
)
REGISTRY.register(ShardedBitmaskBackend.name, ShardedBitmaskBackend)
REGISTRY.register(
    DbApiBackend.name, DbApiBackend, supports_sql=True, supports_oracle=True
)
