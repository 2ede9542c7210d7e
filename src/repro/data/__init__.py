"""The nested-relational data domain (§2, Fig. 1).

Schemas, relations, proposition vocabularies with interference checking,
Boolean-tuple→row synthesis, question rendering, and a query engine.
"""

from repro.data.backends import (
    REGISTRY,
    BackendCapabilities,
    BackendLoadError,
    BackendRegistry,
    BitmaskBackend,
    DbApiBackend,
    EvaluationBackend,
    PooledConnectionSource,
    ShardedBitmaskBackend,
    coerce_option,
    parse_backend_opts,
)
from repro.data.engine import ExampleFactory, ExpressionReport, QueryEngine
from repro.data.index import RelationIndex
from repro.data.generator import (
    RelationGenerator,
    bernoulli,
    categorical,
    uniform_float,
    uniform_int,
)
from repro.data.sql import (
    DIALECTS,
    SqlDialect,
    get_dialect,
    to_sql,
)
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
    "BackendCapabilities",
    "BackendLoadError",
    "BackendRegistry",
    "Between",
    "BitmaskBackend",
    "BoolIs",
    "DIALECTS",
    "DbApiBackend",
    "EvaluationBackend",
    "PooledConnectionSource",
    "REGISTRY",
    "ShardedBitmaskBackend",
    "SqlDialect",
    "coerce_option",
    "get_dialect",
    "parse_backend_opts",
    "RelationGenerator",
    "bernoulli",
    "categorical",
    "to_sql",
    "uniform_float",
    "uniform_int",
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
