"""Tests for propositions, vocabularies, interference and synthesis (§2)."""

from __future__ import annotations


import pytest

from repro.core import tuples as bt
from repro.core.tuples import Question
from repro.data.chocolate import chocolate_schema, paper_vocabulary
from repro.data.propositions import (
    Between,
    BoolIs,
    Equals,
    GreaterThan,
    InterferenceError,
    LessThan,
    OneOf,
    Vocabulary,
)
from repro.data.schema import Attribute, FlatSchema

NUM_SCHEMA = FlatSchema(
    "Reading",
    (
        Attribute.integer("count"),
        Attribute.real("weight"),
        Attribute.boolean("flag"),
        Attribute.category("kind", ("a", "b", "c")),
    ),
)


class TestPropositionEvaluation:
    def test_bool_is(self):
        p = BoolIs("flag")
        assert p.evaluate({"flag": True})
        assert not p.evaluate({"flag": False})
        assert BoolIs("flag", value=False).evaluate({"flag": False})

    def test_equals(self):
        p = Equals("kind", "a")
        assert p.evaluate({"kind": "a"})
        assert not p.evaluate({"kind": "b"})

    def test_one_of(self):
        p = OneOf("kind", {"a", "b"})
        assert p.evaluate({"kind": "b"})
        assert not p.evaluate({"kind": "c"})
        with pytest.raises(ValueError):
            OneOf("kind", set())

    def test_comparisons(self):
        assert LessThan("count", 5).evaluate({"count": 4})
        assert not LessThan("count", 5).evaluate({"count": 5})
        assert GreaterThan("weight", 1.5).evaluate({"weight": 2.0})
        assert Between("count", 2, 4).evaluate({"count": 3})
        assert not Between("count", 2, 4).evaluate({"count": 5})
        with pytest.raises(ValueError):
            Between("count", 4, 2)

    def test_names(self):
        assert BoolIs("flag").name == "flag"
        assert BoolIs("flag", value=False).name == "not flag"
        assert Equals("kind", "a", name="is-a").name == "is-a"
        assert "kind in" in OneOf("kind", {"a"}).describe()
        assert "<" in LessThan("count", 5).describe()
        assert ">" in GreaterThan("count", 5).describe()
        assert "<=" in Between("count", 1, 2).describe()


class TestVocabularyAbstraction:
    def test_fig1_boolean_domain(self):
        """Fig. 1: the Global Ground / Europe's Finest abstraction."""
        vocab = paper_vocabulary()
        row = dict(
            origin="Madagascar", isSugarFree=True, isDark=True,
            hasFilling=True, hasNuts=False,
        )
        assert bt.format_tuple(vocab.boolean_tuple(row), 3) == "111"
        row["origin"] = "Belgium"
        row["isDark"] = False
        row["hasFilling"] = False
        assert bt.format_tuple(vocab.boolean_tuple(row), 3) == "000"

    def test_abstract_object_dedupes(self):
        vocab = paper_vocabulary()
        row = dict(
            origin="Belgium", isSugarFree=True, isDark=True,
            hasFilling=False, hasNuts=False,
        )
        assert len(vocab.abstract_object([row, dict(row)])) == 1

    def test_unknown_attribute_rejected(self):
        with pytest.raises(Exception):
            Vocabulary(chocolate_schema(), [BoolIs("notAColumn")])

    def test_needs_propositions(self):
        with pytest.raises(ValueError):
            Vocabulary(chocolate_schema(), [])


def _listed(vocab, objects_rows):
    """The per-row reference for :meth:`Vocabulary.mask_positions`: each
    mask's ascending object positions, from ``boolean_tuples``."""
    expected: dict[int, list[int]] = {}
    for position, rows in enumerate(objects_rows):
        for mask in sorted(set(vocab.boolean_tuples(rows))):
            expected.setdefault(mask, []).append(position)
    return expected


class TestMaskSets:
    """The bulk abstraction every bitmask build runs: answers exactly
    those of the per-row reference path, memo hits and misses alike."""

    VOCAB = Vocabulary(
        NUM_SCHEMA,
        [
            LessThan("count", 5),
            Between("weight", 1.0, 2.0),
            BoolIs("flag"),
            OneOf("kind", {"a", "b"}),
        ],
    )

    def _rows(self):
        return [
            {"count": 3, "weight": 1.5, "flag": True, "kind": "a"},
            {"count": 7, "weight": 0.5, "flag": False, "kind": "c"},
            {"count": 3, "weight": 1.5, "flag": True, "kind": "a"},
        ]

    def test_matches_the_per_row_path(self):
        objects_rows = [self._rows(), self._rows()[:1], []]
        assert self.VOCAB.mask_positions(objects_rows) == _listed(
            self.VOCAB, objects_rows
        )

    def test_unhashable_value_falls_back(self):
        vocab = Vocabulary(NUM_SCHEMA, [Equals("kind", "a")])
        rows = [{"kind": ["a"]}, {"kind": "a"}]  # a list is no memo key
        assert vocab.mask_positions([rows]) == _listed(vocab, [rows])
        assert vocab.mask_positions([rows]) == {0: [0], 1: [0]}


class TestSynthesis:
    """Assumption (i): Boolean tuple -> data row construction."""

    @pytest.fixture
    def vocab(self) -> Vocabulary:
        return Vocabulary(
            NUM_SCHEMA,
            [
                BoolIs("flag"),
                Equals("kind", "a"),
                LessThan("count", 10),
                GreaterThan("weight", 2.0),
            ],
        )

    def test_every_assignment_synthesizable(self, vocab):
        for bits in range(1 << vocab.n):
            row = vocab.synthesize_row(bits)
            NUM_SCHEMA.validate_row(row)
            assert vocab.boolean_tuple(row) == bits

    def test_synthesize_object_roundtrip(self, vocab):
        q = Question.of(vocab.n, [0b1010, 0b0101, 0b1111])
        rows = vocab.synthesize_object(q)
        assert vocab.abstract_object(rows) == q.tuples

    def test_question_width_checked(self, vocab):
        with pytest.raises(ValueError):
            vocab.synthesize_object(Question.of(2, [0b11]))

    def test_multiple_props_same_attribute(self):
        vocab = Vocabulary(
            NUM_SCHEMA,
            [LessThan("count", 10), LessThan("count", 20)],
            check=False,
        )
        # (T,T): count < 10; (F,T): 10 <= count < 20; (F,F): count >= 20
        for bits in (0b11, 0b10, 0b00):
            row = vocab.synthesize_row(bits)
            assert vocab.boolean_tuple(row) == bits
        # (T,F) is interfering: count < 10 implies count < 20
        with pytest.raises(InterferenceError):
            vocab.synthesize_row(0b01)

    def test_paper_vocabulary_full_roundtrip(self):
        vocab = paper_vocabulary()
        for bits in range(1 << 3):
            row = vocab.synthesize_row(bits)
            assert vocab.boolean_tuple(row) == bits


class TestInterference:
    """Assumption (ii): the paper's Madagascar/Belgium example."""

    def test_equality_interference_detected(self):
        with pytest.raises(InterferenceError) as exc:
            Vocabulary(
                chocolate_schema(),
                [
                    Equals("origin", "Madagascar"),
                    Equals("origin", "Belgium"),
                ],
            )
        assert "origin" in str(exc.value)

    def test_reports_available_unchecked(self):
        vocab = Vocabulary(
            chocolate_schema(),
            [Equals("origin", "Madagascar"), Equals("origin", "Belgium")],
            check=False,
        )
        reports = vocab.check_interference()
        # exactly the both-true assignment is unrealizable
        assert len(reports) == 1
        assert reports[0].assignment == (True, True)
        assert "no value" in reports[0].describe()

    def test_independent_propositions_pass(self):
        vocab = paper_vocabulary()
        assert vocab.check_interference() == []

    def test_closed_universe_interference(self):
        schema = FlatSchema(
            "S", (Attribute.category("kind", ("a",), open_universe=False),)
        )
        with pytest.raises(InterferenceError):
            Vocabulary(schema, [Equals("kind", "a")])  # cannot be false

    def test_range_interference(self):
        with pytest.raises(InterferenceError):
            Vocabulary(
                NUM_SCHEMA,
                [LessThan("count", 5), GreaterThan("count", 3),
                 Between("count", 10, 12)],
            )


class TestPresentation:
    def test_legend(self):
        vocab = paper_vocabulary()
        legend = vocab.legend()
        assert "x1: p1: isDark" in legend
        assert "x3: p3: origin = Madagascar" in legend

    def test_render_question_has_all_rows(self):
        vocab = paper_vocabulary()
        q = Question.from_strings("111", "011")
        text = vocab.render_question(q)
        assert text.count("\n") == 2  # header + 2 rows
        assert "origin" in text
