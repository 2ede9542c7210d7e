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

Every statement runs on one
:class:`~repro.data.backends.dbapi.RetryingConnection`: either the
oracle's own (SQLite over ``uri=``, or a private shared-memory
database) or, through :meth:`SqlQueryOracle.for_backend`, the one a
:class:`~repro.data.backends.dbapi.DbApiBackend` already holds, so
oracle batches and backend evaluations share one connection and one
database.  The scratch tables are named
``question_objects``/``question_rows`` so they coexist with a loaded
relation's ``objects``/``rows`` in the same database, and a statement
that fails with ``sqlite3.Error`` is replayed once on a fresh
connection (counted in the connection's ``stale_retries``).

The oracle is a pure function of each question (no state across calls
beyond the connection), so the batch-boundary contract of DESIGN.md §2b
holds trivially; agreement with the in-process
:class:`~repro.oracle.base.QueryOracle` on identical targets is part of
the backend differential suite.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.data.backends.dbapi import (
    RetryingConnection,
    memory_uri,
    sqlite_connector,
)
from repro.data.propositions import BoolIs, Vocabulary
from repro.data.schema import Attribute, AttributeType, FlatSchema
from repro.data.sql import column_type, identifier, to_sql

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
        SQLite location of the oracle's own database — a file URI
        (``repro learn --backend dbapi --backend-opt uri=file:...``) or
        omitted for a private shared-memory database.

    The scratch tables are dropped and recreated at construction, so
    reusing a file (or a backend's database) between runs is safe.
    """

    def __init__(self, target: QhornQuery, uri: str | None = None) -> None:
        self.uri = uri if uri is not None else memory_uri("oracle")
        connection = RetryingConnection(sqlite_connector(self.uri), keeper=True)
        self._prepare(target, connection, owned=True)

    @classmethod
    def for_backend(cls, target: QhornQuery, backend: Any) -> "SqlQueryOracle":
        """An oracle batching on ``backend``'s connection (a
        :class:`~repro.data.backends.dbapi.DbApiBackend`): membership
        answering and relation evaluation share one connection and one
        database, and the connection stays the backend's to close."""
        oracle = cls.__new__(cls)
        oracle.uri = backend.uri
        oracle._prepare(target, backend.connection, owned=False)
        return oracle

    def _prepare(
        self, target: QhornQuery, connection: RetryingConnection, owned: bool
    ) -> None:
        """Compile the target and (re)create the scratch tables."""
        self.target = target
        self.n = target.n
        self.connection = connection
        #: Whether :meth:`close` closes the connection.
        self._owned = owned
        self._sql = to_sql(
            target,
            _boolean_vocabulary(target.n),
            objects_table=OBJECTS_TABLE,
            rows_table=ROWS_TABLE,
        )
        names = [f"p{i + 1}" for i in range(target.n)]
        objects_table = identifier(OBJECTS_TABLE)
        rows_table = identifier(ROWS_TABLE)
        self._objects_table = objects_table
        self._rows_table = rows_table
        self._insert_object = f"INSERT INTO {objects_table} VALUES (?)"
        self._insert_row = (
            f"INSERT INTO {rows_table} VALUES "
            f"({', '.join(['?'] * (1 + len(names)))})"
        )
        boolean_type = column_type(AttributeType.BOOLEAN)
        cols = ", ".join(f"{identifier(name)} {boolean_type}" for name in names)
        index_name = identifier(f"{ROWS_TABLE}_by_object")
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
            connection.run(setup)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _check(self, question: Question) -> None:
        if question.n != self.n:
            raise ValueError(
                f"question over n={question.n} variables, oracle has n={self.n}"
            )

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
            # A backend's evaluations share the connection; never leave
            # an open write transaction behind.
            connection.commit()
            return found

        answers = self.connection.run(answer)
        return [keys[q] in answers for q in questions]

    def close(self) -> None:
        """Close the oracle's own connection and keeper (safe to call
        twice).  A backend's connection (:meth:`for_backend`) is left
        open — the backend decides its lifetime."""
        if self._owned:
            self.connection.close()

    def __enter__(self) -> "SqlQueryOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqlQueryOracle({self.target.shorthand()})"
