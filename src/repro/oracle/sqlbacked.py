"""SQL-backed batch oracle: the database answers membership questions.

§5 of the paper observes that a rich database can *answer* membership
questions, not only exhibit examples.  :class:`SqlQueryOracle` is the
batch-first realization of that idea (the ROADMAP's SQL-backed batch
oracle): the hidden target compiles **once** to SQL
(:func:`repro.data.sql.to_sql` over a pure Boolean vocabulary), and each
:meth:`~SqlQueryOracle.ask_many` call loads the batch's *distinct*
questions as objects of scratch tables and answers them all in **one
round trip** — the ``SELECT`` returns exactly the keys of the answer
questions.

Every statement runs through a
:class:`~repro.data.backends.dbapi.PooledConnectionSource` checkout:
either the oracle's own pool (SQLite over ``uri=``, or a private
shared-memory database) or, through :meth:`SqlQueryOracle.for_backend`,
the pool a :class:`~repro.data.backends.dbapi.DbApiBackend` already
holds open, so oracle batches and backend evaluations share one bounded,
health-checked connection set.  The scratch tables are named
``question_objects``/``question_rows`` so they coexist with a loaded
relation's ``objects``/``rows`` in the same database, and a statement
that dies on a stale connection is replayed once on a fresh checkout
(:meth:`~repro.data.backends.dbapi.PooledConnectionSource.run`, counted
in the pool's ``stale_retries``).

The oracle is a pure function of each question (no state across calls
beyond the reusable pool), so the sequential-equivalence contract of
DESIGN.md §2b holds trivially; agreement with the in-process
:class:`~repro.oracle.base.QueryOracle` on identical targets is part of
the backend differential suite.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Sequence

from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.data.backends.dbapi import (
    PooledConnectionSource,
    memory_uri,
    sqlite_connector,
)
from repro.data.propositions import BoolIs, Vocabulary
from repro.data.schema import Attribute, FlatSchema
from repro.data.sql import SqlDialect, get_dialect, to_sql

__all__ = ["SqlQueryOracle"]

#: Scratch-table names, clear of a loaded relation's ``objects``/``rows``.
OBJECTS_TABLE = "question_objects"
ROWS_TABLE = "question_rows"


def _boolean_vocabulary(n: int) -> Vocabulary:
    """``n`` independent BoolIs propositions over ``p1..pn``."""
    schema = FlatSchema(
        name="question_tuples",
        attributes=tuple(Attribute.boolean(f"p{i + 1}") for i in range(n)),
    )
    return Vocabulary(schema, [BoolIs(f"p{i + 1}") for i in range(n)])


class SqlQueryOracle:
    """Labels questions with a hidden target query evaluated by SQL.

    Behaviourally identical to :class:`~repro.oracle.base.QueryOracle`
    (same answers, same width errors); the evaluation runs in the
    database instead of the process, which makes whole-batch answering a
    single SQL execution however large the batch.

    Parameters
    ----------
    uri:
        SQLite location of the oracle's own pool — a file URI
        (``repro learn --backend dbapi --backend-opt uri=file:...``) or
        omitted for a private shared-memory database.
    dialect:
        ``"sqlite"`` (default), ``"postgres"`` or a
        :class:`~repro.data.sql.SqlDialect` (DESIGN.md §2i).
    pool:
        An existing :class:`PooledConnectionSource` (any DB-API driver)
        to check connections out of instead of opening one; it stays its
        owner's to close.  Replaces ``uri=``; :meth:`for_backend` passes
        a backend's pool.
    pool_size:
        Bound on the oracle's own pool (default 4).
    retry_on:
        Driver errors that replay a statement once on a fresh checkout
        (default ``sqlite3.Error`` for the oracle's own pool, any
        ``Exception`` for a given one).

    The scratch tables are dropped and recreated at construction, so
    reusing a file (or a backend's database) between runs is safe.
    """

    def __init__(
        self,
        target: QhornQuery,
        uri: str | None = None,
        dialect: SqlDialect | str | None = "sqlite",
        pool: PooledConnectionSource | None = None,
        pool_size: int = 4,
        retry_on: tuple[type[BaseException], ...] | None = None,
    ) -> None:
        self.target = target
        self.n = target.n
        self.dialect = d = get_dialect(dialect)
        #: What :meth:`close` releases: the oracle's own pool and the
        #: keeper connection that pins its database.
        self._owned: list[Any] = []
        if pool is None:
            self.uri = uri if uri is not None else memory_uri("oracle")
            connect = sqlite_connector(self.uri)
            pool = PooledConnectionSource(connect, maxsize=pool_size)
            # A shared-memory database lives while one connection stays
            # open; the keeper pins it across pool churn.
            self._owned = [pool, connect()]
            if retry_on is None:
                retry_on = (sqlite3.Error,)
        elif uri is not None:
            raise ValueError(
                "pool= replaces uri=: the oracle checks connections out "
                "of the given pool"
            )
        else:
            self.uri = None
            if retry_on is None:
                retry_on = (Exception,)
        self.pool = pool
        self._retry_on = retry_on
        self._sql = to_sql(
            target,
            _boolean_vocabulary(target.n),
            dialect=d,
            objects_table=OBJECTS_TABLE,
            rows_table=ROWS_TABLE,
        )
        names = [f"p{i + 1}" for i in range(target.n)]
        objects_table = d.identifier(OBJECTS_TABLE)
        rows_table = d.identifier(ROWS_TABLE)
        self._objects_table = objects_table
        self._rows_table = rows_table
        self._insert_object = (
            f"INSERT INTO {objects_table} VALUES "
            f"({d.placeholders(['object_key'])})"
        )
        self._insert_row = (
            f"INSERT INTO {rows_table} VALUES "
            f"({d.placeholders(['object_key'] + names)})"
        )
        boolean_type = d.type_names.get("BOOLEAN", "INTEGER")
        cols = ", ".join(
            f"{d.identifier(name)} {boolean_type}" for name in names
        )
        index_name = d.identifier(f"{ROWS_TABLE}_by_object")
        ddl = (
            f"DROP TABLE IF EXISTS {rows_table}",
            f"DROP TABLE IF EXISTS {objects_table}",
            f"CREATE TABLE {objects_table} (object_key TEXT PRIMARY KEY)",
            f"CREATE TABLE {rows_table} (object_key TEXT, {cols})",
            f"CREATE INDEX {index_name} ON {rows_table} (object_key)",
        )

        def setup(connection: Any) -> None:
            cur = connection.cursor()
            for statement in ddl:
                cur.execute(statement)
            connection.commit()

        try:
            self.pool.run(setup, self._retry_on)
        except BaseException:
            self.close()
            raise

    @classmethod
    def for_backend(cls, target: QhornQuery, backend: Any) -> "SqlQueryOracle":
        """An oracle batching through ``backend``'s existing connection
        pool (a :class:`~repro.data.backends.dbapi.DbApiBackend`):
        membership answering and relation evaluation share one bounded
        connection set, one dialect, one database."""
        return cls(
            target,
            pool=backend.pool,
            dialect=backend.dialect,
            retry_on=getattr(backend, "_retry_on", None),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _check(self, question: Question) -> None:
        if question.n != self.n:
            raise ValueError(
                f"question over n={question.n} variables, oracle has n={self.n}"
            )

    def ask(self, question: Question) -> bool:
        return self.ask_many([question])[0]

    def ask_many(self, questions: Sequence[Question]) -> list[bool]:
        """One round trip: distinct questions become scratch objects, the
        precompiled target SQL selects the answer keys, duplicates reuse
        the batch answer."""
        questions = list(questions)
        if not questions:
            return []
        keys: dict[Question, str] = {}
        for q in questions:
            if q not in keys:
                self._check(q)  # width-checked once per distinct question
                keys[q] = f"q{len(keys)}"
        n = self.n

        def answer(connection: Any) -> set:
            # Deletes before inserting, so a stale-handle replay is
            # idempotent.
            cur = connection.cursor()
            cur.execute(f"DELETE FROM {self._rows_table}")
            cur.execute(f"DELETE FROM {self._objects_table}")
            cur.executemany(
                self._insert_object, [(k,) for k in keys.values()]
            )
            cur.executemany(
                self._insert_row,
                [
                    [key] + [t >> v & 1 for v in range(n)]
                    for q, key in keys.items()
                    for t in q.sorted_tuples()
                ],
            )
            found = {row[0] for row in cur.execute(self._sql)}
            # Pooled connections interleave with other checkouts; never
            # park an open write transaction in the pool.
            connection.commit()
            return found

        answers = self.pool.run(answer, self._retry_on)
        return [keys[q] in answers for q in questions]

    def close(self) -> None:
        """Close the oracle's own pool and keeper (safe to call twice).
        A pool passed in through ``pool=``/:meth:`for_backend` is left
        open — its owner decides its lifetime."""
        for resource in self._owned:
            try:
                resource.close()
            except Exception:
                pass
        self._owned = []

    def __enter__(self) -> "SqlQueryOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqlQueryOracle({self.target.shorthand()})"
