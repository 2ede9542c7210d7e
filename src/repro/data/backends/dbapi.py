"""External databases as first-class backends (DESIGN.md §2i).

The database answers, not the process.  :class:`DbApiBackend` loads the
relation into *any* PEP 249 database through a
:class:`~repro.data.sql.SqlDialect` (placeholder style, identifier
quoting, column-type mapping), compiles each query to dialect SQL once
(a per-backend statement cache keyed on the hashable ``QhornQuery``),
and answers every evaluation in one round trip through a
:class:`PooledConnectionSource` — a thread-safe bounded pool with a
health check on checkout and a retry-once-on-stale-connection
:meth:`~PooledConnectionSource.run`, which is what a client/server
database needs and an in-process SQLite file tolerates.  The pooled
:class:`~repro.oracle.SqlQueryOracle` runs through the same pool type,
so this is the one SQL path for evaluation and membership answering.

Because SQL evaluates propositions over the *real* rows while the
bitmask backends evaluate vocabulary abstractions, answer identity
across the seam doubles as an end-to-end check that
``proposition_to_sql`` and ``Proposition.holds`` agree.

Today the built-in connector is SQLite-over-URI (``uri=file:...`` for a
file-backed store, or the default per-backend shared-memory database),
so the whole path — pool, dialect rendering, one-round-trip answering —
is exercised hermetically; tomorrow a postgres driver plugs in by
passing ``connect=`` (any zero-argument callable returning a DB-API
connection) and ``dialect="postgres"``, with no further code changes.
"""

from __future__ import annotations

import itertools
import os
import sqlite3
import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.core import tuples as bt
from repro.core.query import CompiledQuery, QhornQuery
from repro.data.backends.base import check_width
from repro.data.propositions import Vocabulary
from repro.data.relation import NestedObject, NestedRelation
from repro.data.sql import SqlDialect, get_dialect, to_sql

__all__ = [
    "DbApiBackend",
    "PooledConnectionSource",
    "sqlite_connector",
]

#: Distinguishes the default shared-memory databases of concurrently
#: live backends in one process.
_memory_counter = itertools.count(1)


def memory_uri(tag: str = "dbapi") -> str:
    """A process-unique shared-cache in-memory SQLite URI.

    ``cache=shared`` makes the database visible to every connection the
    pool opens on this URI; the owner must hold one connection open for
    the database's lifetime (the backend's *keeper* connection).
    """
    return (
        f"file:repro-{tag}-{os.getpid()}-{next(_memory_counter)}"
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

    ``check_same_thread=False`` because pooled connections migrate
    across threads (a caller's thread pool, the serve tier).  A
    pool opens several connections to one URI, so a URI that gives each
    connection its own empty database is refused up front.
    """
    if _private_per_connection(uri):
        raise ValueError(
            f"uri={uri!r} gives every pooled connection its own empty "
            f"database; omit uri for a shared in-memory database, or "
            f"pass a file path"
        )

    def connect() -> sqlite3.Connection:
        return sqlite3.connect(
            uri,
            uri=uri.startswith("file:"),
            check_same_thread=False,
        )

    return connect


_T = TypeVar("_T")


def default_health_check(connection: Any) -> None:
    """``SELECT 1`` through a cursor — raises if the connection is dead."""
    cursor = connection.cursor()
    try:
        cursor.execute("SELECT 1")
        cursor.fetchall()
    finally:
        cursor.close()


class PooledConnectionSource:
    """Thread-safe bounded pool of DB-API connections.

    * ``acquire`` hands out an idle connection after the health check
      passes; a failed check discards the corpse and opens a fresh
      connection in its place (the retry-once-on-stale story), so a
      caller never receives a known-dead handle.
    * At most ``maxsize`` connections exist at once; excess acquirers
      block until a release (bounded like every other queue in this
      codebase — the §2f outbox, the §2b ask_all chunks).
    * ``close`` drains the idle set and refuses further checkouts;
      in-flight connections are closed on their release.
    """

    def __init__(
        self,
        connect: Callable[[], Any],
        maxsize: int = 4,
        health_check: Callable[[Any], None] | None = default_health_check,
        timeout: float | None = 30.0,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"pool maxsize must be positive, got {maxsize}")
        self._connect = connect
        self._maxsize = maxsize
        self._health_check = health_check
        self._timeout = timeout
        self._idle: deque[Any] = deque()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._live = 0
        self._closed = False
        # Introspection counters (describe(), tests).
        self.connections_opened = 0
        self.checkouts = 0
        self.health_failures = 0
        #: Work replayed on a fresh checkout after an in-flight driver
        #: error (see :meth:`run`).
        self.stale_retries = 0

    # ------------------------------------------------------------------
    def _open(self) -> Any:
        connection = self._connect()
        self.connections_opened += 1
        return connection

    def acquire(self) -> Any:
        """Check out a healthy connection (blocking while at capacity)."""
        with self._available:
            while True:
                if self._closed:
                    raise RuntimeError("connection pool is closed")
                if self._idle:
                    connection = self._idle.popleft()
                    break
                if self._live < self._maxsize:
                    self._live += 1
                    connection = None  # open outside the lock
                    break
                if not self._available.wait(self._timeout):
                    raise TimeoutError(
                        f"no pooled connection became available within "
                        f"{self._timeout}s (maxsize={self._maxsize})"
                    )
            self.checkouts += 1
        if connection is None:
            try:
                return self._open()
            except BaseException:
                self._forget()
                raise
        if self._health_check is not None:
            try:
                self._health_check(connection)
            except Exception:
                # Stale checkout: discard and retry once with a fresh
                # connection (which needs no health check — it is new).
                self.health_failures += 1
                self._close_quietly(connection)
                try:
                    return self._open()
                except BaseException:
                    self._forget()
                    raise
        return connection

    def release(self, connection: Any) -> None:
        """Return a connection to the idle set (closed pools close it)."""
        with self._available:
            if self._closed:
                self._live -= 1
                self._close_quietly(connection)
                return
            self._idle.append(connection)
            self._available.notify()

    def discard(self, connection: Any) -> None:
        """Drop a connection the caller saw fail; frees its pool slot."""
        self._close_quietly(connection)
        self._forget()

    def _forget(self) -> None:
        with self._available:
            self._live -= 1
            self._available.notify()

    @staticmethod
    def _close_quietly(connection: Any) -> None:
        try:
            connection.close()
        except Exception:
            pass

    def run(
        self,
        work: Callable[[Any], _T],
        retry_on: tuple[type[BaseException], ...],
    ) -> _T:
        """``work(connection)`` on a checkout, retried once on ``retry_on``.

        A stale handle that slipped past the checkout health check (or a
        server that dropped the connection mid-flight) is discarded and
        ``work`` replays on a fresh checkout, counted in
        :attr:`stale_retries`; a second failure is the caller's problem.
        ``work`` must therefore be safe to replay.
        """
        connection = self.acquire()
        try:
            try:
                return work(connection)
            except retry_on:
                self.discard(connection)
                self.stale_retries += 1
                connection = None
                connection = self.acquire()
                return work(connection)
        finally:
            if connection is not None:
                self.release(connection)

    @contextmanager
    def connection(self) -> Iterator[Any]:
        """``with pool.connection() as conn:`` checkout/checkin pair."""
        connection = self.acquire()
        try:
            yield connection
        finally:
            self.release(connection)

    def close(self) -> None:
        """Refuse further checkouts and close every idle connection."""
        with self._available:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._live -= len(idle)
            self._available.notify_all()
        for connection in idle:
            self._close_quietly(connection)

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    @property
    def live_count(self) -> int:
        with self._lock:
            return self._live

    def __enter__(self) -> "PooledConnectionSource":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def describe(self) -> str:
        return (
            f"pool {self._live}/{self._maxsize} live "
            f"({self.checkouts} checkouts, "
            f"{self.health_failures} health failures, "
            f"{self.stale_retries} stale retries)"
        )


class DbApiBackend:
    """Evaluates queries on any DB-API database through a dialect + pool.

    Parameters (all reachable as CLI ``--backend-opt key=value``)
    ----------------------------------------------------------------
    uri:
        Database location for the built-in SQLite connector —
        ``file:/path/db.sqlite`` (file-backed), a plain path, or omitted
        for a private shared-memory database (``:memory:`` is refused:
        every pooled connection would see its own empty database).
        Ignored when ``connect`` is given.
    dialect:
        ``"sqlite"`` (default) or ``"postgres"`` — or a
        :class:`~repro.data.sql.SqlDialect` instance when constructed in
        code.  Controls placeholder style, identifier quoting and
        column-type mapping end to end.
    connect:
        Zero-argument callable returning a DB-API connection; the
        third-party-driver seam.
    pool_size:
        Bound on concurrently open connections (default 4).
    auto_refresh:
        Reload the database on relation-version mismatch before every
        evaluation (the §2c contract).
    """

    name = "dbapi"

    def __init__(
        self,
        relation: NestedRelation,
        vocabulary: Vocabulary,
        uri: str | None = None,
        dialect: SqlDialect | str | None = "sqlite",
        connect: Callable[[], Any] | None = None,
        pool_size: int = 4,
        auto_refresh: bool = True,
        retry_on: tuple[type[BaseException], ...] | None = None,
    ) -> None:
        self.relation = relation
        self.vocabulary = vocabulary
        self.auto_refresh = auto_refresh
        self.dialect = get_dialect(dialect)
        self._keeper: Any | None = None
        if connect is None:
            self.uri = uri if uri is not None else memory_uri()
            connect = sqlite_connector(self.uri)
            # A shared-memory database lives exactly as long as one
            # connection stays open; a keeper pins it across pool churn.
            # Harmless (one extra handle) for file-backed stores.
            self._keeper = connect()
            if retry_on is None:
                retry_on = (sqlite3.Error,)
        else:
            self.uri = uri
            if retry_on is None:
                retry_on = (Exception,)
        self._retry_on = retry_on
        self.pool = PooledConnectionSource(connect, maxsize=pool_size)
        self._sql_cache: dict[QhornQuery, str] = {}
        self._positions: dict[str, int] = {}
        self._objects: list[NestedObject] = []
        self._built_version: int | None = None
        self._loaded = False
        self._closed = False

    # ------------------------------------------------------------------
    # Loading / freshness
    # ------------------------------------------------------------------
    def _load(self, connection: Any) -> None:
        d = self.dialect
        schema = self.relation.schema
        objects_table = d.identifier("objects")
        rows_table = d.identifier("rows")
        cur = connection.cursor()
        cur.execute(f"DROP TABLE IF EXISTS {rows_table}")
        cur.execute(f"DROP TABLE IF EXISTS {objects_table}")
        object_cols = "".join(
            f", {d.identifier(a.name)} {d.column_type(a.type)}"
            for a in schema.object_attributes
        )
        cur.execute(
            f"CREATE TABLE {objects_table} "
            f"(object_key TEXT PRIMARY KEY{object_cols})"
        )
        row_cols = ", ".join(
            f"{d.identifier(a.name)} {d.column_type(a.type)}"
            for a in schema.embedded.attributes
        )
        cur.execute(
            f"CREATE TABLE {rows_table} "
            f"(object_key TEXT REFERENCES {objects_table}, {row_cols})"
        )
        cur.execute(
            f"CREATE INDEX rows_by_object ON {rows_table} (object_key)"
        )
        object_names = [a.name for a in schema.object_attributes]
        insert_objects = (
            f"INSERT INTO {objects_table} VALUES "
            f"({d.placeholders(['object_key'] + object_names)})"
        )
        row_names = list(schema.embedded.attribute_names)
        insert_rows = (
            f"INSERT INTO {rows_table} VALUES "
            f"({d.placeholders(['object_key'] + row_names)})"
        )
        pyformat = d.paramstyle == "pyformat"
        for obj in self.relation:
            object_params: Any = [obj.key] + [
                obj.attributes.get(n) for n in object_names
            ]
            if pyformat:
                object_params = dict(
                    zip(["object_key"] + object_names, object_params)
                )
            cur.execute(insert_objects, object_params)
            for row in obj.rows:
                row_params: Any = [obj.key] + [row[n] for n in row_names]
                if pyformat:
                    row_params = dict(
                        zip(["object_key"] + row_names, row_params)
                    )
                cur.execute(insert_rows, row_params)
        cur.close()
        connection.commit()
        self._objects = self.relation.objects
        self._positions = {o.key: i for i, o in enumerate(self._objects)}
        self._built_version = getattr(self.relation, "version", None)
        self._loaded = True

    def _build(self) -> None:
        with self.pool.connection() as connection:
            self._load(connection)

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
        if not self._loaded or (self.auto_refresh and self.is_stale):
            self._build()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _require_query(self, query: QhornQuery | CompiledQuery) -> QhornQuery:
        if not isinstance(query, QhornQuery):
            raise TypeError(
                "the dbapi backend compiles propositions to dialect SQL "
                "and needs the source QhornQuery, not a CompiledQuery"
            )
        check_width(query, self.vocabulary)
        return query

    def _sql_for(self, query: QhornQuery) -> str:
        sql = self._sql_cache.get(query)
        if sql is None:
            sql = self._sql_cache[query] = to_sql(
                query, self.vocabulary, dialect=self.dialect
            )
        return sql

    def _select(self, sql: str) -> list[tuple]:
        """One round trip through the pool (retried once when stale)."""

        def fetch(connection: Any) -> list[tuple]:
            cursor = connection.cursor()
            cursor.execute(sql)
            rows = cursor.fetchall()
            cursor.close()
            return rows

        return self.pool.run(fetch, self._retry_on)

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

    def matches_many(
        self,
        query: QhornQuery | CompiledQuery,
        objects: Iterable[NestedObject] | None = None,
    ) -> list[bool]:
        query = self._require_query(query)
        keys = self._matching_keys(query)
        if objects is None:
            return [o.key in keys for o in self._objects]
        compiled = query.compile()
        labels: list[bool] = []
        for obj in objects:
            position = self._positions.get(obj.key)
            if position is not None and self._objects[position] is obj:
                labels.append(obj.key in keys)
            else:
                # Foreign object: not in the loaded database; abstract
                # and evaluate in process (the §2c seam contract).
                labels.append(
                    compiled.evaluate(self.vocabulary.boolean_tuples(obj.rows))
                )
        return labels

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the pool and the keeper (safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        self.pool.close()
        if self._keeper is not None:
            try:
                self._keeper.close()
            except Exception:
                pass
            self._keeper = None
        self._loaded = False

    def __enter__(self) -> "DbApiBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def describe(self) -> str:
        where = self.uri or "driver connection"
        if not self._loaded:
            return f"dbapi[{self.dialect.name}]: not loaded yet ({where})"
        return (
            f"dbapi[{self.dialect.name}]: {len(self._objects)} objects at "
            f"{where}, {len(self._sql_cache)} cached statements, "
            f"{self.pool.describe()}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DbApiBackend({len(self.relation)} objects, {self.uri!r})"
