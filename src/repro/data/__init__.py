"""The nested-relational data domain (§2, Fig. 1).

Schemas, relations, proposition vocabularies with interference checking,
Boolean-tuple→row synthesis, question rendering, and a query engine.
"""

from repro.data.backends import (
    BitmaskBackend,
    DbApiBackend,
    EvaluationBackend,
    coerce_option,
    parse_backend_opts,
)
from repro.data.engine import ExampleFactory, ExpressionReport, QueryEngine
from repro.data.index import RelationIndex
from repro.data.sql import to_sql
from repro.data.propositions import (
    Between,
    BoolIs,
    Equals,
    GreaterThan,
    InterferenceError,
    InterferenceReport,
    LessThan,
    OneOf,
    Proposition,
    Vocabulary,
)
from repro.data.relation import FlatRelation, NestedObject, NestedRelation
from repro.data.schema import (
    Attribute,
    AttributeType,
    FlatSchema,
    NestedSchema,
    SchemaError,
)

__all__ = [
    "Attribute",
    "AttributeType",
    "Between",
    "BitmaskBackend",
    "BoolIs",
    "DbApiBackend",
    "EvaluationBackend",
    "coerce_option",
    "parse_backend_opts",
    "to_sql",
    "Equals",
    "ExampleFactory",
    "ExpressionReport",
    "FlatRelation",
    "FlatSchema",
    "GreaterThan",
    "InterferenceError",
    "InterferenceReport",
    "LessThan",
    "NestedObject",
    "NestedRelation",
    "NestedSchema",
    "OneOf",
    "Proposition",
    "QueryEngine",
    "RelationIndex",
    "SchemaError",
    "Vocabulary",
]
