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

The SQL is spelled for SQLite: booleans are the literals ``1``/``0``,
identifiers stay bare unless they are not plain names, and string
literals double their quotes.  The SQL reference
(:class:`~repro.data.dbapi.DbApiBackend`) loads a
:class:`~repro.data.relation.NestedRelation` into this encoding and
executes the generated SQL; the enumerate differ and the test-suite
cross-check it against the in-process
:class:`~repro.data.index.RelationIndex` on every query, so the two
evaluators validate each other.
"""

from __future__ import annotations

import re
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
    "SqlCompileError",
    "column_type",
    "identifier",
    "literal",
    "proposition_to_sql",
    "to_sql",
]


class SqlCompileError(ValueError):
    """Raised when a proposition cannot be rendered as SQL."""


_PLAIN_IDENTIFIER = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Schema attribute type name → SQLite column type.
_COLUMN_TYPES = {
    "BOOLEAN": "INTEGER",
    "INTEGER": "INTEGER",
    "FLOAT": "REAL",
    "CATEGORY": "TEXT",
}


def literal(value: Any) -> str:
    """Render a constant as an inline SQL literal."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise SqlCompileError(f"cannot render literal {value!r}")


def identifier(name: str) -> str:
    """Quote an identifier unless it is a plain name (SQLite accepts
    keyword-ish names such as ``rows`` bare)."""
    if _PLAIN_IDENTIFIER.match(name):
        return name
    return '"' + name.replace('"', '""') + '"'


def column_type(attr_type: AttributeType) -> str:
    """Column type name for one schema attribute type."""
    return _COLUMN_TYPES.get(attr_type.name, "TEXT")


def proposition_to_sql(prop: Proposition, alias: str = "r") -> str:
    """Render one proposition as a SQL predicate over row alias ``alias``."""
    col = f"{alias}.{identifier(prop.attribute)}"
    if isinstance(prop, BoolIs):
        return f"{col} = {literal(prop.value)}"
    if isinstance(prop, Equals):
        return f"{col} = {literal(prop.constant)}"
    if isinstance(prop, OneOf):
        values = [literal(v) for v in sorted(prop.constants, key=str)]
        return f"{col} IN ({', '.join(values)})"
    if isinstance(prop, LessThan):
        return f"{col} < {literal(prop.constant)}"
    if isinstance(prop, GreaterThan):
        return f"{col} > {literal(prop.constant)}"
    if isinstance(prop, Between):
        return f"{col} BETWEEN {literal(prop.lo)} AND {literal(prop.hi)}"
    raise SqlCompileError(f"no SQL rendering for {type(prop).__name__}")


def _exists(
    vocabulary: Vocabulary,
    true_vars: Iterable[int],
    false_vars: Iterable[int] = (),
    negate: bool = False,
) -> str:
    conds = ["r.object_key = o.object_key"]
    for v in true_vars:
        conds.append(proposition_to_sql(vocabulary.propositions[v]))
    for v in false_vars:
        rendered = proposition_to_sql(vocabulary.propositions[v])
        conds.append(f"NOT ({rendered})")
    body = "SELECT 1 FROM rows r WHERE " + " AND ".join(conds)
    return f"{'NOT ' if negate else ''}EXISTS ({body})"


def to_sql(query: QhornQuery, vocabulary: Vocabulary) -> str:
    """Compile ``query`` to a SQL statement selecting the answer object
    keys of the two-table encoding (``objects``/``rows``) in key order."""
    if query.n != vocabulary.n:
        raise SqlCompileError(
            f"query over n={query.n} propositions, vocabulary has "
            f"{vocabulary.n}"
        )
    clauses: list[str] = []
    for u in sorted(query.universals):
        # ∀ B → h: no row with B true and h false …
        clauses.append(
            _exists(vocabulary, sorted(u.body), [u.head], negate=True)
        )
        if query.require_guarantees:
            # … and a witness row with B ∧ h true (qhorn property 2).
            clauses.append(_exists(vocabulary, sorted(u.variables)))
    for e in sorted(query.existentials):
        clauses.append(_exists(vocabulary, sorted(e.variables)))
    where = "\n  AND ".join(clauses) if clauses else "1 = 1"
    return (
        "SELECT o.object_key FROM objects o\nWHERE "
        + where
        + "\nORDER BY o.object_key"
    )
