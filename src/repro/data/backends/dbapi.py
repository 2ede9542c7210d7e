"""External databases as first-class backends (DESIGN.md §2i).

The database answers, not the process.  :class:`DbApiBackend` loads the
relation into a PEP 249 database, compiles each query to SQL once (a
per-backend statement cache keyed on the hashable ``QhornQuery``), and
answers every evaluation in one round trip on the one connection it
holds, a :class:`RetryingConnection`: work that fails with
``sqlite3.Error`` replays once on a freshly opened connection.  This is
the one SQL path; membership questions are answered in process
(:class:`~repro.oracle.QueryOracle`).

Because SQL evaluates propositions over the *real* rows while the
bitmask backend evaluates vocabulary abstractions, answer identity
across the seam doubles as an end-to-end check that
``proposition_to_sql`` and ``Proposition.holds`` agree.

The built-in connector is SQLite over a URI: ``uri=file:...`` for a
file-backed store, or by default a per-backend shared-memory database.
``connect=`` takes any zero-argument callable returning a DB-API
connection that accepts SQLite's SQL and ``?`` placeholders.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
from typing import Any, Callable, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.core import tuples as bt
from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation
from repro.data.sql import column_type, identifier, to_sql

__all__ = [
    "DbApiBackend",
    "RetryingConnection",
    "memory_uri",
    "sqlite_connector",
]

#: Distinguishes the default shared-memory databases of concurrently
#: live backends in one process.
_memory_counter = itertools.count(1)


def memory_uri() -> str:
    """A process-unique shared-cache in-memory SQLite URI.

    ``cache=shared`` makes the database visible to every connection
    opened on this URI, so a replacement connection sees the same data;
    the owner must hold one connection open for the database's lifetime
    (the *keeper* of :class:`RetryingConnection`).
    """
    return (
        f"file:repro-dbapi-{os.getpid()}-{next(_memory_counter)}"
        f"?mode=memory&cache=shared"
    )


def _private_per_connection(uri: str) -> bool:
    """Would every connection to ``uri`` open its own database?

    True for ``:memory:``, the empty path (a private temporary file) and
    in-memory ``file:`` URIs without ``cache=shared``.
    """
    if uri in ("", ":memory:"):
        return True
    if not uri.startswith("file:"):
        return False
    parts = urlsplit(uri)
    query = parse_qs(parts.query)
    in_memory = parts.path == ":memory:" or "memory" in query.get("mode", [])
    return in_memory and "shared" not in query.get("cache", [])


def sqlite_connector(uri: str) -> Callable[[], sqlite3.Connection]:
    """The built-in connector: SQLite over a URI or plain path.

    A failed statement is replayed on a second connection to the same
    URI, so a URI that gives each connection its own empty database is
    refused up front.
    """
    if not isinstance(uri, str):
        raise TypeError(
            f"uri must be a string, got {type(uri).__name__} {uri!r}; "
            f"spell a numeric file name as file:{uri}"
        )
    if _private_per_connection(uri):
        raise ValueError(
            f"uri={uri!r} gives every connection its own empty database; "
            f"omit uri for a shared in-memory database, or pass a file path"
        )

    def connect() -> sqlite3.Connection:
        return sqlite3.connect(uri, uri=uri.startswith("file:"))

    return connect


def _close_quietly(connection: Any) -> None:
    try:
        connection.close()
    except Exception:
        pass


_T = TypeVar("_T")


class RetryingConnection:
    """One DB-API connection (``handle``), replaced once when work on it
    fails.

    :meth:`run` replays work that raises ``sqlite3.Error`` on a freshly
    opened connection (the stale-handle story: a dropped server
    connection, a connection closed behind the owner's back).  With
    ``keeper=True`` a second, idle connection is held for the owner's
    lifetime, so a shared-memory database outlives the replaced handle.
    """

    def __init__(self, connect: Callable[[], Any], keeper: bool = False) -> None:
        self._connect = connect
        self._keeper = connect() if keeper else None
        self.handle: Any = connect()
        self.connections_opened = 1
        #: Work replayed on a fresh connection after a driver error.
        self.stale_retries = 0

    def run(self, work: Callable[[Any], _T]) -> _T:
        """``work(connection)``, replayed once on a fresh connection when
        it raises ``sqlite3.Error``; a second failure is the caller's.
        ``work`` must therefore be safe to replay."""
        if self.handle is None:
            raise RuntimeError("the connection is closed")
        try:
            return work(self.handle)
        except sqlite3.Error:
            _close_quietly(self.handle)
            self.handle = self._connect()
            self.connections_opened += 1
            self.stale_retries += 1
            return work(self.handle)

    def close(self) -> None:
        """Close the connection and the keeper (safe to call twice)."""
        for handle in (self.handle, self._keeper):
            if handle is not None:
                _close_quietly(handle)
        self.handle = self._keeper = None

    def describe(self) -> str:
        return (
            f"{self.connections_opened} connections opened, "
            f"{self.stale_retries} stale retries"
        )


class DbApiBackend:
    """Evaluates queries on a DB-API database over one connection.

    Parameters (all but ``connect`` reachable as CLI
    ``--backend-opt key=value``)
    ----------------------------------------------------------------
    uri:
        Database location for the built-in SQLite connector —
        ``file:/path/db.sqlite`` (file-backed), a plain path, or omitted
        for a private shared-memory database (``:memory:`` is refused:
        the connection that replays a failed statement would see its own
        empty database).  Ignored when ``connect`` is given.
    connect:
        Zero-argument callable returning a DB-API connection that speaks
        SQLite's SQL; also how tests substitute failing connections.

    Every evaluation first reloads the database when the relation's
    version moved (the §2c contract).
    """

    name = "dbapi"

    def __init__(
        self,
        relation: NestedRelation,
        vocabulary: Vocabulary,
        uri: str | None = None,
        connect: Callable[[], Any] | None = None,
    ) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        if connect is None:
            self.uri = uri if uri is not None else memory_uri()
            # A shared-memory database lives exactly as long as one
            # connection stays open: the keeper pins it across a replay.
            # Harmless (one extra handle) for file-backed stores.
            self.connection = RetryingConnection(
                sqlite_connector(self.uri), keeper=True
            )
        else:
            self.uri = uri
            self.connection = RetryingConnection(connect)
        self._sql_cache: dict[QhornQuery, str] = {}
        self._positions: dict[str, int] = {}
        self._objects: list[NestedObject] = []
        self._built_version: int | None = None
        self._loaded = False

    # ------------------------------------------------------------------
    # Loading / freshness
    # ------------------------------------------------------------------
    def _load(self, connection: Any) -> None:
        schema = self.relation.schema
        cur = connection.cursor()
        cur.execute("DROP TABLE IF EXISTS rows")
        cur.execute("DROP TABLE IF EXISTS objects")
        object_cols = "".join(
            f", {identifier(a.name)} {column_type(a.type)}"
            for a in schema.object_attributes
        )
        cur.execute(
            f"CREATE TABLE objects (object_key TEXT PRIMARY KEY{object_cols})"
        )
        row_cols = ", ".join(
            f"{identifier(a.name)} {column_type(a.type)}"
            for a in schema.embedded.attributes
        )
        cur.execute(
            f"CREATE TABLE rows (object_key TEXT REFERENCES objects, {row_cols})"
        )
        cur.execute("CREATE INDEX rows_by_object ON rows (object_key)")
        object_names = [a.name for a in schema.object_attributes]
        insert_objects = (
            "INSERT INTO objects VALUES "
            f"({', '.join(['?'] * (1 + len(object_names)))})"
        )
        row_names = list(schema.embedded.attribute_names)
        insert_rows = (
            "INSERT INTO rows VALUES "
            f"({', '.join(['?'] * (1 + len(row_names)))})"
        )
        for obj in self.relation:
            cur.execute(
                insert_objects,
                [obj.key] + [obj.attributes.get(n) for n in object_names],
            )
            for row in obj.rows:
                cur.execute(insert_rows, [obj.key] + [row[n] for n in row_names])
        cur.close()
        connection.commit()
        self._objects = self.relation.objects
        self._positions = {o.key: i for i, o in enumerate(self._objects)}
        self._built_version = getattr(self.relation, "version", None)
        self._loaded = True

    def _build(self) -> None:
        self.connection.run(self._load)

    @property
    def is_stale(self) -> bool:
        return (
            not self._loaded
            or getattr(self.relation, "version", None) != self._built_version
        )

    def refresh(self, force: bool = False) -> bool:
        if force or self.is_stale:
            self._build()
            return True
        return False

    def _ensure_fresh(self) -> None:
        if self.is_stale:
            self._build()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _require_query(self, query: QhornQuery | CompiledQuery) -> QhornQuery:
        if not isinstance(query, QhornQuery):
            raise TypeError(
                "the dbapi backend compiles propositions to SQL "
                "and needs the source QhornQuery, not a CompiledQuery"
            )
        check_width(query, self.vocabulary)
        return query

    def _sql_for(self, query: QhornQuery) -> str:
        sql = self._sql_cache.get(query)
        if sql is None:
            sql = self._sql_cache[query] = to_sql(query, self.vocabulary)
        return sql

    def _select(self, sql: str) -> list[tuple]:
        """One round trip on the connection (replayed once when stale)."""

        def fetch(connection: Any) -> list[tuple]:
            cursor = connection.cursor()
            cursor.execute(sql)
            rows = cursor.fetchall()
            cursor.close()
            return rows

        return self.connection.run(fetch)

    def _matching_keys(self, query: QhornQuery) -> set[str]:
        """One round trip: every answer object key of ``query``."""
        self._ensure_fresh()
        return {row[0] for row in self._select(self._sql_for(query))}

    def matching_bits(self, query: QhornQuery | CompiledQuery) -> int:
        query = self._require_query(query)
        keys = self._matching_keys(query)
        positions = self._positions
        return bt.union_masks(1 << positions[k] for k in keys)

    def execute(self, query: QhornQuery | CompiledQuery) -> list[NestedObject]:
        query = self._require_query(query)
        keys = self._matching_keys(query)
        return [o for o in self._objects if o.key in keys]

    def matches_many(self, query: QhornQuery | CompiledQuery) -> list[bool]:
        query = self._require_query(query)
        keys = self._matching_keys(query)
        return [o.key in keys for o in self._objects]

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection and the keeper (safe to call twice)."""
        self.connection.close()
        self._loaded = False

    def __enter__(self) -> "DbApiBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def describe(self) -> str:
        where = self.uri or "driver connection"
        if not self._loaded:
            return f"dbapi: not loaded yet ({where})"
        return (
            f"dbapi: {len(self._objects)} objects at {where}, "
            f"{len(self._sql_cache)} cached statements, "
            f"{self.connection.describe()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DbApiBackend({len(self.relation)} objects, {self.uri!r})"
