"""Canonical enumerators for the qhorn query space and the store space.

The ROADMAP's bounded-model complement to the sampled property suites:
instead of ≥1000 *random* (query, relation) cases, provably cover
**every** case up to a size bound.

Query space
-----------
:func:`enumerate_queries` walks, for each ``n ≤ max_props``, every
subset (up to ``max_exprs`` expressions — Def. 2.5's query size ``k``)
of the full expression universe over ``n`` Boolean variables: all
``n·2^(n-1)`` universal Horn expressions ``∀B→h`` (empty bodies
included) and all ``2^n − 1`` existential conjunctions ``∃C``.  Each
candidate is filtered to the requested class (qhorn-1 by default) and
then **deduplicated up to semantic equivalence** with the bitmask
engine: the query compiles once and evaluates over *every* object on
``n`` variables (all ``2^(2^n)`` subsets of the tuple space, empty
object included), and two queries with the same truth table are the
same query.  What survives is a canonical transversal of the bounded
query space — every behaviour exactly once.

Store space
-----------
:func:`enumerate_stores` yields every relation with up to
``max_objects`` objects whose abstractions are mask sets of up to
``max_rows`` rows, deduplicated up to object order (objects have no
identity beyond their rows — Def. 2.1's sets).  Each store concretizes
to a :class:`~repro.data.relation.NestedRelation` under either a pure
Boolean vocabulary or a mixed typed one (Boolean / category-equality /
numeric-comparison propositions), so the typed SQL rendering paths are
enumerable too.

Both enumerators are deterministic and yield stable content-hash ids,
so runs shard by id and resume by skipping ids already done.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Sequence

from repro.core.expressions import ExistentialConjunction, UniversalHorn
from repro.core.normalize import enumerate_objects
from repro.core.query import QhornQuery
from repro.core.serialize import query_to_dict
from repro.data.propositions import BoolIs, Equals, LessThan, Vocabulary
from repro.data.relation import NestedRelation
from repro.data.schema import Attribute, FlatSchema, NestedSchema

__all__ = [
    "EnumeratedQuery",
    "EnumeratedStore",
    "enumerate_queries",
    "enumerate_stores",
    "expression_universe",
    "query_signature",
    "store_vocabulary",
    "QUERY_KINDS",
    "STORE_VOCABULARIES",
]

#: Class filters for the query space, in restrictiveness order.
QUERY_KINDS = ("qhorn1", "role-preserving", "qhorn")

#: Concretization flavours for the store space.
STORE_VOCABULARIES = ("bool", "mixed")

#: Signature enumeration is 2^(2^n) objects; the hard feasibility wall.
MAX_PROPS = 4


def _content_id(prefix: str, payload: object) -> str:
    digest = hashlib.sha1(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return f"{prefix}-{digest[:10]}"


# ----------------------------------------------------------------------
# Query space
# ----------------------------------------------------------------------
def expression_universe(
    n: int,
) -> list[UniversalHorn | ExistentialConjunction]:
    """Every qhorn expression over ``n`` variables, in canonical order.

    Universal Horn expressions first (by head, then body), then
    existential conjunctions (by variable set) — a fixed order, so
    subset enumeration (and therefore every id downstream) is stable.
    """
    universe: list[UniversalHorn | ExistentialConjunction] = []
    variables = list(range(n))
    for head in variables:
        others = [v for v in variables if v != head]
        for size in range(len(others) + 1):
            for body in combinations(others, size):
                universe.append(
                    UniversalHorn(head=head, body=frozenset(body))
                )
    for size in range(1, n + 1):
        for conj in combinations(variables, size):
            universe.append(ExistentialConjunction(frozenset(conj)))
    return universe


def query_signature(query: QhornQuery) -> int:
    """The query's full truth table over every object on ``n`` variables
    (empty object included), packed into one integer — the bitmask
    engine's definition of semantic identity at enumerable ``n``."""
    compiled = query.compile()
    signature = 0
    for index, obj in enumerate(
        enumerate_objects(query.n, include_empty=True)
    ):
        if compiled.evaluate(obj):
            signature |= 1 << index
    return signature


def _in_kind(query: QhornQuery, kind: str) -> bool:
    if kind == "qhorn1":
        return query.is_qhorn1()
    if kind == "role-preserving":
        return query.is_role_preserving()
    if kind == "qhorn":
        return True
    raise ValueError(
        f"unknown query kind {kind!r}; choices: {', '.join(QUERY_KINDS)}"
    )


@dataclass(frozen=True)
class EnumeratedQuery:
    """One semantically-distinct point of the bounded query space."""

    id: str
    query: QhornQuery
    #: Truth table over ``enumerate_objects(n, include_empty=True)``.
    signature: int

    @property
    def n(self) -> int:
        return self.query.n

    def to_record(self) -> dict:
        """The corpus line (`repro.server.loadgen --scenario` replays
        these: one dialogue per enumerated query)."""
        return {
            "kind": "query",
            "id": self.id,
            "n": self.query.n,
            "size": self.query.size,
            "qhorn1": self.query.is_qhorn1(),
            "role_preserving": self.query.is_role_preserving(),
            "query": query_to_dict(self.query),
        }


def enumerate_queries(
    max_props: int,
    max_exprs: int | None = None,
    kind: str = "qhorn1",
    guarantees: Sequence[bool] = (True,),
    include_trivial: bool = False,
) -> Iterator[EnumeratedQuery]:
    """Every semantically-distinct ``kind`` query with ``n ≤ max_props``.

    ``max_exprs`` caps the expression count per query (Def. 2.5 size;
    default: ``n`` expressions at each ``n``).  ``guarantees`` selects
    the evaluation semantics to enumerate — ``(True,)`` for the paper
    default, ``(True, False)`` to also cover the footnote-1 relaxation
    (deduplication is semantic, so a relaxation that changes nothing for
    a given structure is not re-yielded).  ``include_trivial`` adds the
    empty query (every object answers).
    """
    if max_props < 1:
        raise ValueError(f"max_props must be positive, got {max_props}")
    if max_props > MAX_PROPS:
        raise ValueError(
            f"max_props={max_props}: semantic deduplication enumerates "
            f"2^(2^n) objects and is infeasible beyond n={MAX_PROPS}"
        )
    for n in range(1, max_props + 1):
        universe = expression_universe(n)
        cap = max_exprs if max_exprs is not None else n
        cap = min(cap, len(universe))
        seen: set[int] = set()
        start = 0 if include_trivial else 1
        for size in range(start, cap + 1):
            for subset in combinations(universe, size):
                universals = frozenset(
                    e for e in subset if isinstance(e, UniversalHorn)
                )
                existentials = frozenset(
                    e for e in subset if isinstance(e, ExistentialConjunction)
                )
                for require_guarantees in guarantees:
                    query = QhornQuery(
                        n=n,
                        universals=universals,
                        existentials=existentials,
                        require_guarantees=require_guarantees,
                    )
                    if not _in_kind(query, kind):
                        continue
                    signature = query_signature(query)
                    if signature in seen:
                        continue
                    seen.add(signature)
                    yield EnumeratedQuery(
                        id=_content_id(f"q{n}", query_to_dict(query)),
                        query=query,
                        signature=signature,
                    )


# ----------------------------------------------------------------------
# Store space
# ----------------------------------------------------------------------
def store_vocabulary(n: int, flavor: str = "bool") -> Vocabulary:
    """The concretization vocabulary for enumerated stores.

    ``bool``: ``n`` independent Boolean attributes (``BoolIs`` over
    ``b1..bn``) — masks are rows, the property-suite convention.
    ``mixed``: proposition types cycle Boolean / category equality /
    integer comparison, so enumerated stores also exercise the typed
    predicate rendering of the SQL backend.
    """
    if flavor not in STORE_VOCABULARIES:
        raise ValueError(
            f"unknown store vocabulary {flavor!r}; "
            f"choices: {', '.join(STORE_VOCABULARIES)}"
        )
    attributes: list[Attribute] = []
    propositions = []
    for i in range(n):
        if flavor == "bool" or i % 3 == 0:
            attributes.append(Attribute.boolean(f"b{i + 1}"))
            propositions.append(BoolIs(f"b{i + 1}"))
        elif i % 3 == 1:
            attributes.append(
                Attribute.category(f"c{i + 1}", universe=("dark", "milk"))
            )
            propositions.append(Equals(f"c{i + 1}", "dark"))
        else:
            attributes.append(Attribute.integer(f"v{i + 1}"))
            propositions.append(LessThan(f"v{i + 1}", 10))
    schema = FlatSchema(name=f"{flavor}{n}", attributes=tuple(attributes))
    return Vocabulary(schema, propositions)


def _row_for_mask(
    vocabulary: Vocabulary, mask: int
) -> dict[str, object]:
    """One concrete row whose abstraction under ``vocabulary`` is
    exactly ``mask`` (each proposition decided independently)."""
    row: dict[str, object] = {}
    for v, prop in enumerate(vocabulary.propositions):
        want = bool(mask >> v & 1)
        if isinstance(prop, BoolIs):
            row[prop.attribute] = want is prop.value
        elif isinstance(prop, Equals):
            row[prop.attribute] = prop.constant if want else "milk"
        elif isinstance(prop, LessThan):
            row[prop.attribute] = (
                int(prop.constant) - 5 if want else int(prop.constant) + 5
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"no concretization for {type(prop).__name__}")
    return row


@dataclass(frozen=True)
class EnumeratedStore:
    """One point of the bounded store space: object abstractions only —
    concrete rows materialize per vocabulary via :meth:`relation`."""

    id: str
    n: int
    #: Sorted masks per object; objects in canonical order.
    objects: tuple[tuple[int, ...], ...]

    @property
    def mask_sets(self) -> list[frozenset[int]]:
        return [frozenset(masks) for masks in self.objects]

    def relation(
        self, vocabulary: Vocabulary
    ) -> NestedRelation:
        """Concretize under ``vocabulary`` (one row per mask, object
        keys positional)."""
        schema = NestedSchema(
            name=f"store_{self.id.replace('-', '_')}",
            embedded=vocabulary.schema,
        )
        relation = NestedRelation(schema)
        for index, masks in enumerate(self.objects):
            relation.add_object(
                f"obj-{index}",
                rows=[_row_for_mask(vocabulary, m) for m in masks],
            )
        return relation

    def to_record(self) -> dict:
        return {
            "kind": "store",
            "id": self.id,
            "n": self.n,
            "objects": [list(masks) for masks in self.objects],
        }


def enumerate_stores(
    n: int,
    max_objects: int,
    max_rows: int | None = 2,
    include_empty_object: bool = True,
) -> Iterator[EnumeratedStore]:
    """Every relation (up to object order) with ``≤ max_objects``
    objects over ``n`` variables, each object ``≤ max_rows`` distinct
    rows (``None``: the full ``2^n`` tuple space per object).

    The empty relation and (by default) empty objects are included —
    both are boundary cases the guarantee-clause semantics care about.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    universe_cap = 1 << n
    row_cap = universe_cap if max_rows is None else min(max_rows, universe_cap)
    object_universe: list[tuple[int, ...]] = []
    start = 0 if include_empty_object else 1
    for size in range(start, row_cap + 1):
        for masks in combinations(range(universe_cap), size):
            object_universe.append(masks)
    for count in range(max_objects + 1):
        for objects in combinations_with_replacement(object_universe, count):
            yield EnumeratedStore(
                id=_content_id(f"s{n}", [list(m) for m in objects]),
                n=n,
                objects=objects,
            )
