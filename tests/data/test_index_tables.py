"""Regression tests for the superset-union tables as cached state.

The tables behind :class:`~repro.data.index.BitsetKernel` are derived
from one build of the inverted index: a rebuild must drop them.
"""

from __future__ import annotations

from repro.core.query import QhornQuery
from repro.data import BoolIs, NestedRelation, QueryEngine, Vocabulary
from repro.data.schema import Attribute, FlatSchema, NestedSchema

N = 4
NAMES = [f"b{i + 1}" for i in range(N)]
#: ∀x1 → x2 ∃x3x4 under guarantees: needs a V_h table and Z.
QUERY = QhornQuery.build(N, universals=[([0], 1)], existentials=[[2, 3]])


def _row(mask: int) -> dict[str, bool]:
    return {name: bool(mask >> i & 1) for i, name in enumerate(NAMES)}


def _engine() -> tuple[NestedRelation, QueryEngine]:
    """Every mask over 4 bits once, paired with its complement: dense
    enough that the tables are admitted."""
    flat = FlatSchema(
        name="bits", attributes=tuple(Attribute.boolean(n) for n in NAMES)
    )
    relation = NestedRelation(NestedSchema(name="objects", embedded=flat))
    for m in range(1 << N):
        relation.add_object(f"o{m}", rows=[_row(m), _row(m ^ 0b1111)])
    vocabulary = Vocabulary(flat, [BoolIs(n) for n in NAMES])
    return relation, QueryEngine(relation, vocabulary)


def _answer_keys(engine: QueryEngine) -> list[str]:
    return [o.key for o in engine.execute_batch(QUERY)]


def _assert_tables_built(engine: QueryEngine) -> None:
    kernel = engine.index._kernel
    assert kernel._zeta_bits == N
    # Z for the existential and the guarantee, V_h for the head x2.
    assert set(kernel._tables) == {0, 0b0010}


def test_insert_after_tables_were_built_changes_the_answer():
    relation, engine = _engine()
    before = _answer_keys(engine)
    assert before == ["o0", "o3", "o12", "o15"]
    _assert_tables_built(engine)
    relation.add_object("late", rows=[_row(0b1111)])
    assert _answer_keys(engine) == before + ["late"]
    _assert_tables_built(engine)


def test_in_place_mutation_then_forced_refresh_changes_the_answer():
    relation, engine = _engine()
    before = _answer_keys(engine)
    assert "o5" not in before
    _assert_tables_built(engine)
    relation.objects[5].rows[:] = [_row(0b1111)]
    # In-place edits bypass the version counter: the old build answers...
    assert _answer_keys(engine) == before
    # ...until a forced refresh rebuilds the index and drops its tables.
    assert engine.index.refresh(force=True)
    assert not engine.index._kernel._tables
    assert _answer_keys(engine) == ["o0", "o3", "o5", "o12", "o15"]

