"""Evaluation backends behind one seam (DESIGN.md §2c, §2i).

Three implementations of the :class:`EvaluationBackend` contract:

* ``bitmask`` — one :class:`~repro.data.index.RelationIndex` over the
  whole relation (the default);
* ``sharded`` — the relation partitioned into object-position blocks so
  bitset widths stay bounded; builds and full-relation labeling scale
  linearly;
* ``dbapi`` — the relation loaded into *any* DB-API database through a
  :class:`~repro.data.sql.SqlDialect`, each query compiled to SQL once
  and answered in one round trip through a bounded connection pool
  (shared-memory or file-backed SQLite today, client/server drivers via
  ``connect=``; DESIGN.md §2i).

``bitmask`` and ``sharded`` both evaluate through the one bitmask
kernel, :class:`~repro.data.index.BitsetKernel` (DESIGN.md §2g).
:data:`BACKENDS` maps the three names to their classes, and
``create(name, relation, vocabulary, **options)`` is the single
construction seam the engine, CLI and benchmarks go through.
"""

from __future__ import annotations

from repro.data.backends.base import EvaluationBackend, check_width
from repro.data.backends.bitmask import BitmaskBackend
from repro.data.backends.dbapi import DbApiBackend, PooledConnectionSource
from repro.data.backends.registry import (
    BACKENDS,
    backend_class,
    coerce_option,
    create,
    parse_backend_opts,
)
from repro.data.backends.sharded import (
    DEFAULT_SHARD_SIZE,
    ShardedBitmaskBackend,
)

__all__ = [
    "BACKENDS",
    "BitmaskBackend",
    "DbApiBackend",
    "DEFAULT_SHARD_SIZE",
    "EvaluationBackend",
    "PooledConnectionSource",
    "ShardedBitmaskBackend",
    "backend_class",
    "check_width",
    "coerce_option",
    "create",
    "parse_backend_opts",
]
