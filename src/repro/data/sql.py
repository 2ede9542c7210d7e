"""SQL compilation: qhorn queries as real database queries.

The paper's motivation is that SQL forces users to write quantified queries
directly (§1).  This module closes the loop: a learned
:class:`~repro.core.query.QhornQuery` compiles to portable SQL over the
standard two-table encoding of a single-level nested relation

    objects(object_key PRIMARY KEY, ...object attributes)
    rows(object_key REFERENCES objects, ...embedded attributes)

using the classic translation of quantifiers:

* ``∀t ∈ S (B → h)``  →  ``NOT EXISTS (row with B true and h false)``
  plus its guarantee clause ``EXISTS (row with B and h true)``;
* ``∃t ∈ S (C)``      →  ``EXISTS (row with C true)``.

The ``dbapi`` evaluation backend
(:class:`~repro.data.backends.dbapi.DbApiBackend`) loads a
:class:`~repro.data.relation.NestedRelation` into this encoding and
executes the generated SQL — the test-suite cross-checks it against the
in-process :class:`~repro.data.engine.QueryEngine` on every query, so
the two evaluators validate each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.query import QhornQuery
from repro.data.propositions import (
    Between,
    BoolIs,
    Equals,
    GreaterThan,
    LessThan,
    OneOf,
    Proposition,
    Vocabulary,
)
from repro.data.schema import AttributeType

__all__ = [
    "DIALECTS",
    "SqlDialect",
    "SqlCompileError",
    "get_dialect",
    "proposition_to_sql",
    "to_sql",
]


class SqlCompileError(ValueError):
    """Raised when a proposition cannot be rendered as SQL."""


_PLAIN_IDENTIFIER = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass(frozen=True)
class SqlDialect:
    """How one database family spells the SQL we generate (DESIGN.md §2i).

    The compiled query shape (EXISTS/NOT EXISTS per quantifier) is
    portable; what varies across DB-API drivers is the *spelling*:
    placeholder style for parameterized statements, identifier quoting
    and reserved words, literal rendering (SQLite spells booleans 1/0,
    postgres TRUE/FALSE), and the column-type names used when loading a
    relation.  ``proposition_to_sql``/``to_sql`` take a dialect so the
    same :class:`~repro.core.query.QhornQuery` answers identically on
    SQLite today and any DB-API driver tomorrow.
    """

    name: str
    #: DB-API paramstyle for bind parameters: qmark | format | pyformat.
    paramstyle: str = "qmark"
    true_literal: str = "1"
    false_literal: str = "0"
    #: Identifiers needing quotes even though they look plain.
    reserved: frozenset[str] = field(default_factory=frozenset)
    #: AttributeType name → column type name.
    type_names: dict[str, str] = field(default_factory=dict)

    def literal(self, value: Any) -> str:
        """Render a constant as an inline SQL literal."""
        if isinstance(value, bool):
            return self.true_literal if value else self.false_literal
        if isinstance(value, (int, float)):
            return repr(value)
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        raise SqlCompileError(f"cannot render literal {value!r}")

    def identifier(self, name: str) -> str:
        """Quote an identifier when the dialect requires it."""
        if _PLAIN_IDENTIFIER.match(name) and name.lower() not in self.reserved:
            return name
        return '"' + name.replace('"', '""') + '"'

    def placeholder(self, index: int = 0, name: str | None = None) -> str:
        """One bind-parameter marker in the dialect's paramstyle."""
        if self.paramstyle == "qmark":
            return "?"
        if self.paramstyle == "format":
            return "%s"
        if self.paramstyle == "pyformat":
            return f"%({name or f'p{index}'})s"
        raise SqlCompileError(
            f"unsupported paramstyle {self.paramstyle!r} "
            f"(expected qmark, format or pyformat)"
        )

    def placeholders(self, names: Iterable[str]) -> str:
        """Comma-joined markers for an INSERT values list."""
        return ", ".join(
            self.placeholder(i, name) for i, name in enumerate(names)
        )

    def column_type(self, attr_type: AttributeType) -> str:
        """Column type name for one schema attribute type."""
        return self.type_names.get(attr_type.name, "TEXT")

    def render_in(self, column: str, values: Iterable[str]) -> str:
        """``col IN (v1, v2, ...)`` — values already rendered as literals."""
        return f"{column} IN ({', '.join(values)})"

    def render_exists(self, body: str, negate: bool = False) -> str:
        """``[NOT ] EXISTS (body)`` — the quantifier-translation kernel."""
        return f"{'NOT ' if negate else ''}EXISTS ({body})"


#: SQLite: the PR 3 rendering, verbatim — qmark placeholders, 1/0
#: booleans, nothing quoted (SQLite accepts keyword-ish names bare).
SQLITE_DIALECT = SqlDialect(
    name="sqlite",
    paramstyle="qmark",
    type_names={
        "BOOLEAN": "INTEGER",
        "INTEGER": "INTEGER",
        "FLOAT": "REAL",
        "CATEGORY": "TEXT",
    },
)

#: Postgres-style DB-API drivers: %s placeholders (psycopg paramstyle),
#: TRUE/FALSE booleans, reserved words quoted (our row table is ROWS,
#: a reserved word in standard SQL).
POSTGRES_DIALECT = SqlDialect(
    name="postgres",
    paramstyle="format",
    true_literal="TRUE",
    false_literal="FALSE",
    reserved=frozenset(
        {
            "all", "and", "any", "between", "case", "cast", "check",
            "column", "default", "distinct", "end", "exists", "from",
            "group", "in", "like", "limit", "not", "offset", "order",
            "primary", "references", "rows", "select", "table", "user",
            "when", "where", "window",
        }
    ),
    type_names={
        "BOOLEAN": "BOOLEAN",
        "INTEGER": "INTEGER",
        "FLOAT": "DOUBLE PRECISION",
        "CATEGORY": "TEXT",
    },
)

#: Dialects by name — the ``--backend-opt dialect=...`` vocabulary.
DIALECTS: dict[str, SqlDialect] = {
    SQLITE_DIALECT.name: SQLITE_DIALECT,
    POSTGRES_DIALECT.name: POSTGRES_DIALECT,
}


def get_dialect(dialect: SqlDialect | str | None) -> SqlDialect:
    """Resolve a dialect argument: instance, registry name, or default."""
    if dialect is None:
        return SQLITE_DIALECT
    if isinstance(dialect, SqlDialect):
        return dialect
    try:
        return DIALECTS[dialect]
    except KeyError:
        raise SqlCompileError(
            f"unknown SQL dialect {dialect!r}; "
            f"choices: {', '.join(sorted(DIALECTS))}"
        ) from None


def proposition_to_sql(
    prop: Proposition,
    alias: str = "r",
    dialect: SqlDialect | str | None = None,
) -> str:
    """Render one proposition as a SQL predicate over row alias ``alias``."""
    d = get_dialect(dialect)
    col = f"{alias}.{d.identifier(prop.attribute)}"
    if isinstance(prop, BoolIs):
        return f"{col} = {d.literal(prop.value)}"
    if isinstance(prop, Equals):
        return f"{col} = {d.literal(prop.constant)}"
    if isinstance(prop, OneOf):
        values = [d.literal(v) for v in sorted(prop.constants, key=str)]
        return d.render_in(col, values)
    if isinstance(prop, LessThan):
        return f"{col} < {d.literal(prop.constant)}"
    if isinstance(prop, GreaterThan):
        return f"{col} > {d.literal(prop.constant)}"
    if isinstance(prop, Between):
        return (
            f"{col} BETWEEN {d.literal(prop.lo)} AND {d.literal(prop.hi)}"
        )
    raise SqlCompileError(f"no SQL rendering for {type(prop).__name__}")


def _exists(
    vocabulary: Vocabulary,
    true_vars: Iterable[int],
    false_vars: Iterable[int] = (),
    negate: bool = False,
    dialect: SqlDialect = SQLITE_DIALECT,
    rows_table: str | None = None,
) -> str:
    if rows_table is None:
        rows_table = dialect.identifier("rows")
    conds = ["r.object_key = o.object_key"]
    for v in true_vars:
        conds.append(
            proposition_to_sql(vocabulary.propositions[v], dialect=dialect)
        )
    for v in false_vars:
        rendered = proposition_to_sql(
            vocabulary.propositions[v], dialect=dialect
        )
        conds.append(f"NOT ({rendered})")
    body = (
        f"SELECT 1 FROM {rows_table} r WHERE " + " AND ".join(conds)
    )
    return dialect.render_exists(body, negate=negate)


def to_sql(
    query: QhornQuery,
    vocabulary: Vocabulary,
    dialect: SqlDialect | str | None = None,
    objects_table: str = "objects",
    rows_table: str = "rows",
) -> str:
    """Compile ``query`` to a SQL statement selecting answer object keys.

    ``objects_table``/``rows_table`` override the standard two-table
    names — the seam that lets :class:`~repro.oracle.SqlQueryOracle`
    keep its scratch tables in the *same* database as a loaded
    :class:`~repro.data.backends.dbapi.DbApiBackend` relation without
    clobbering it (DESIGN.md §2j).
    """
    d = get_dialect(dialect)
    if query.n != vocabulary.n:
        raise SqlCompileError(
            f"query over n={query.n} propositions, vocabulary has "
            f"{vocabulary.n}"
        )
    rows_identifier = d.identifier(rows_table)
    clauses: list[str] = []
    for u in sorted(query.universals):
        # ∀ B → h: no row with B true and h false …
        clauses.append(
            _exists(
                vocabulary,
                sorted(u.body),
                [u.head],
                negate=True,
                dialect=d,
                rows_table=rows_identifier,
            )
        )
        if query.require_guarantees:
            # … and a witness row with B ∧ h true (qhorn property 2).
            clauses.append(
                _exists(
                    vocabulary,
                    sorted(u.variables),
                    dialect=d,
                    rows_table=rows_identifier,
                )
            )
    for e in sorted(query.existentials):
        clauses.append(
            _exists(
                vocabulary,
                sorted(e.variables),
                dialect=d,
                rows_table=rows_identifier,
            )
        )
    where = "\n  AND ".join(clauses) if clauses else "1 = 1"
    return (
        f"SELECT o.object_key FROM {d.identifier(objects_table)} o\nWHERE "
        + where
        + "\nORDER BY o.object_key"
    )
