"""Propositions and vocabularies: the bridge between data and Booleans (§2).

Users specify a query's atoms as simple propositions over the embedded
relation's attributes (``p1: c.isDark``, ``p3: c.origin = Madagascar``).  A
:class:`Vocabulary` is an ordered list of propositions; it abstracts data
rows into Boolean tuples (Fig. 1) and — crucially for membership questions —
*concretizes* Boolean tuples back into data rows.

The paper's two assumptions about this bridge are implemented directly:

(i)  "it is relatively efficient to construct an actual data tuple from a
     Boolean tuple" — :meth:`Vocabulary.synthesize_row` solves each
     attribute's constraints independently against a finite candidate pool;

(ii) "the true/false assignment to one proposition does not interfere with
     the true/false assignments to other propositions" —
     :meth:`Vocabulary.check_interference` enumerates, per attribute, every
     truth assignment of the propositions on that attribute and reports the
     assignments with no witness value (e.g. ``origin = Madagascar`` and
     ``origin = Belgium`` both true).
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.tuples import Question
from repro.data.schema import Attribute, AttributeType, FlatSchema

__all__ = [
    "Proposition",
    "BoolIs",
    "Equals",
    "OneOf",
    "LessThan",
    "GreaterThan",
    "Between",
    "Vocabulary",
    "InterferenceError",
    "InterferenceReport",
]


class Proposition(abc.ABC):
    """A Boolean atom over a single attribute of the embedded relation."""

    def __init__(self, attribute: str, name: str | None = None) -> None:
        self.attribute = attribute
        self._name = name

    @property
    def name(self) -> str:
        return self._name or self.describe()

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable form, e.g. ``origin = Madagascar``."""

    @abc.abstractmethod
    def evaluate(self, row: Mapping[str, Any]) -> bool:
        """Truth value of the proposition on a data row."""

    @abc.abstractmethod
    def candidates(self, attribute: Attribute) -> list[Any]:
        """Attribute values that witness interesting truth assignments.

        The synthesizer unions the candidates of every proposition on an
        attribute and picks a value satisfying the requested assignment, so
        each proposition must contribute values making it true *and* values
        making it false (when such values exist).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


class BoolIs(Proposition):
    """``row.attr is `value``` for a BOOLEAN attribute."""

    def __init__(self, attribute: str, value: bool = True, name: str | None = None):
        super().__init__(attribute, name)
        self.value = bool(value)

    def describe(self) -> str:
        return self.attribute if self.value else f"not {self.attribute}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return bool(row[self.attribute]) == self.value

    def candidates(self, attribute: Attribute) -> list[Any]:
        return [True, False]


class Equals(Proposition):
    """``row.attr == constant``."""

    def __init__(self, attribute: str, constant: Any, name: str | None = None):
        super().__init__(attribute, name)
        self.constant = constant

    def describe(self) -> str:
        return f"{self.attribute} = {self.constant!r}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] == self.constant

    def candidates(self, attribute: Attribute) -> list[Any]:
        out = [self.constant]
        out.extend(attribute.universe)
        if attribute.type is AttributeType.CATEGORY and attribute.open_universe:
            out.append("≠" + str(self.constant))  # a fresh non-member
        if attribute.type in (AttributeType.INTEGER, AttributeType.FLOAT):
            out.append(self.constant + 1)
        return out


class OneOf(Proposition):
    """``row.attr ∈ constants``."""

    def __init__(
        self, attribute: str, constants: Iterable[Any], name: str | None = None
    ):
        super().__init__(attribute, name)
        self.constants = frozenset(constants)
        if not self.constants:
            raise ValueError("OneOf needs at least one constant")

    def describe(self) -> str:
        vals = ", ".join(repr(c) for c in sorted(self.constants, key=str))
        return f"{self.attribute} in {{{vals}}}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] in self.constants

    def candidates(self, attribute: Attribute) -> list[Any]:
        out = sorted(self.constants, key=str)
        out.extend(attribute.universe)
        if attribute.type is AttributeType.CATEGORY and attribute.open_universe:
            out.append("∉" + str(sorted(self.constants, key=str)[0]))
        return out


class LessThan(Proposition):
    """``row.attr < constant`` for numeric attributes."""

    def __init__(self, attribute: str, constant: float, name: str | None = None):
        super().__init__(attribute, name)
        self.constant = constant

    def describe(self) -> str:
        return f"{self.attribute} < {self.constant}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] < self.constant

    def candidates(self, attribute: Attribute) -> list[Any]:
        delta = 1 if attribute.type is AttributeType.INTEGER else 0.5
        return [self.constant - delta, self.constant, self.constant + delta]


class GreaterThan(Proposition):
    """``row.attr > constant`` for numeric attributes."""

    def __init__(self, attribute: str, constant: float, name: str | None = None):
        super().__init__(attribute, name)
        self.constant = constant

    def describe(self) -> str:
        return f"{self.attribute} > {self.constant}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] > self.constant

    def candidates(self, attribute: Attribute) -> list[Any]:
        delta = 1 if attribute.type is AttributeType.INTEGER else 0.5
        return [self.constant - delta, self.constant, self.constant + delta]


class Between(Proposition):
    """``lo <= row.attr <= hi`` for numeric attributes."""

    def __init__(
        self, attribute: str, lo: float, hi: float, name: str | None = None
    ):
        if lo > hi:
            raise ValueError("Between needs lo <= hi")
        super().__init__(attribute, name)
        self.lo, self.hi = lo, hi

    def describe(self) -> str:
        return f"{self.lo} <= {self.attribute} <= {self.hi}"

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return self.lo <= row[self.attribute] <= self.hi

    def candidates(self, attribute: Attribute) -> list[Any]:
        delta = 1 if attribute.type is AttributeType.INTEGER else 0.5
        mid = (self.lo + self.hi) / 2
        if attribute.type is AttributeType.INTEGER:
            mid = int(mid)
        return [self.lo - delta, self.lo, mid, self.hi, self.hi + delta]


@dataclass(frozen=True)
class InterferenceReport:
    """One unrealizable truth assignment among same-attribute propositions."""

    attribute: str
    propositions: tuple[str, ...]
    assignment: tuple[bool, ...]

    def describe(self) -> str:
        parts = ", ".join(
            f"{p}={'T' if v else 'F'}"
            for p, v in zip(self.propositions, self.assignment)
        )
        return f"no value of {self.attribute!r} realizes: {parts}"


class InterferenceError(ValueError):
    """Raised when a vocabulary violates the independence assumption (ii)."""

    def __init__(self, reports: Sequence[InterferenceReport]) -> None:
        self.reports = list(reports)
        super().__init__(
            "; ".join(r.describe() for r in self.reports[:5])
            + (f" (+{len(self.reports) - 5} more)" if len(self.reports) > 5 else "")
        )


class Vocabulary:
    """An ordered proposition list over a flat schema.

    Proposition ``i`` corresponds to Boolean variable ``x_{i+1}`` throughout
    the library.  Construction verifies the paper's independence assumption
    unless ``check=False``.
    """

    def __init__(
        self,
        schema: FlatSchema,
        propositions: Sequence[Proposition],
        check: bool = True,
    ) -> None:
        if not propositions:
            raise ValueError("a vocabulary needs at least one proposition")
        self.schema = schema
        self.propositions = tuple(propositions)
        for p in self.propositions:
            schema.attribute(p.attribute)  # raises on unknown attribute
        self._by_attribute: dict[str, list[tuple[int, Proposition]]] = {}
        for i, p in enumerate(self.propositions):
            self._by_attribute.setdefault(p.attribute, []).append((i, p))
        # Hoisted (bit, evaluator) pairs for the hot abstraction path.
        self._evaluators = tuple(
            (1 << i, p.evaluate) for i, p in enumerate(self.propositions)
        )
        # Attributes the propositions actually read: rows agreeing on
        # these values must abstract to the same mask, which is what the
        # bulk pass (:meth:`mask_positions`) memoizes on.
        self._key_attributes = tuple(
            sorted({p.attribute for p in self.propositions})
        )
        # itemgetter extracts the memo key at C speed; with a single
        # attribute it returns the bare value, which is an equally good
        # dict key.  Empty vocabularies have no attributes to project.
        self._key_getter: Callable[[Mapping[str, Any]], Any] | None = (
            operator.itemgetter(*self._key_attributes)
            if self._key_attributes
            else None
        )
        if check:
            reports = self.check_interference()
            if reports:
                raise InterferenceError(reports)

    @property
    def n(self) -> int:
        return len(self.propositions)

    def names(self) -> list[str]:
        return [p.name for p in self.propositions]

    # ------------------------------------------------------------------
    # Data -> Boolean (Fig. 1)
    # ------------------------------------------------------------------
    def boolean_tuple(self, row: Mapping[str, Any]) -> int:
        """Abstract one data row into a Boolean tuple bitmask."""
        mask = 0
        for bit, evaluate in self._evaluators:
            if evaluate(row):
                mask |= bit
        return mask

    def boolean_tuples(self, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Abstract rows into bitmasks, preserving order and multiplicity."""
        evaluators = self._evaluators
        out: list[int] = []
        for row in rows:
            mask = 0
            for bit, evaluate in evaluators:
                if evaluate(row):
                    mask |= bit
            out.append(mask)
        return out

    def abstract_object(self, rows: Iterable[Mapping[str, Any]]) -> frozenset[int]:
        """Abstract an object's rows into its set of Boolean tuples."""
        return frozenset(self.boolean_tuples(rows))

    def mask_positions(
        self, objects_rows: Iterable[Iterable[Mapping[str, Any]]]
    ) -> dict[int, list[int]]:
        """Bulk abstraction: each distinct mask → the ascending positions
        of the objects exhibiting it (object order = position).

        The per-row reference path (:meth:`boolean_tuple`) re-evaluates
        every proposition on every row.  Across a whole relation, rows
        repeat heavily — propositions only read the attributes they name,
        so any two rows agreeing on those values share a mask.  This pass
        memoizes, per distinct projection of a row onto the
        proposition-referenced attributes, the position list of the
        row's mask, so a repeated row costs one dict lookup, and records
        each object's position once per distinct mask.  No per-object
        mask set is built: the lists are what
        :func:`~repro.data.index.pack_positions` packs into the inverted
        index of every bitmask build.

        The memo lives for one call, so it covers an entire build without
        growing unboundedly across relation versions.  Rows with
        unhashable attribute values fall back to direct evaluation.
        Object ``i`` is listed under mask ``m`` exactly when ``m`` is in
        ``frozenset(boolean_tuples(rows_i))``.
        """
        evaluators = self._evaluators
        key_of = self._key_getter
        positions: dict[int, list[int]] = {}
        memo: dict[Any, list[int]] = {}
        memo_get = memo.get

        def position_list(row: Mapping[str, Any]) -> list[int]:
            mask = 0
            for bit, evaluate in evaluators:
                if evaluate(row):
                    mask |= bit
            found = positions.get(mask)
            if found is None:
                found = positions[mask] = []
            return found

        for position, rows in enumerate(objects_rows):
            for row in rows:
                found = None
                if key_of is not None:
                    try:
                        key = key_of(row)
                        found = memo_get(key)
                        if found is None:
                            found = memo[key] = position_list(row)
                    except (TypeError, KeyError):  # unhashable / partial row
                        pass
                if found is None:
                    found = position_list(row)
                # Positions arrive in order: the object is listed already
                # iff it is the last one listed.
                if not found or found[-1] != position:
                    found.append(position)
        return positions

    # ------------------------------------------------------------------
    # Boolean -> Data (assumption (i))
    # ------------------------------------------------------------------
    def _attribute_candidates(self, attribute: Attribute) -> list[Any]:
        values: list[Any] = []
        for _, p in self._by_attribute.get(attribute.name, []):
            for v in p.candidates(attribute):
                if attribute.type.validate(v) and v not in values:
                    values.append(v)
        if not values:
            values = list(attribute.universe) or self._default_pool(attribute)
        return values

    @staticmethod
    def _default_pool(attribute: Attribute) -> list[Any]:
        if attribute.type is AttributeType.BOOLEAN:
            return [True, False]
        if attribute.type is AttributeType.INTEGER:
            return [0]
        if attribute.type is AttributeType.FLOAT:
            return [0.0]
        return ["⊥"]  # an arbitrary category value

    def _witness(
        self, attribute: Attribute, wanted: dict[int, bool]
    ) -> Any | None:
        """A value of ``attribute`` realizing the requested truth values of
        the propositions on it, or ``None`` if the assignment interferes."""
        props = self._by_attribute.get(attribute.name, [])
        for value in self._attribute_candidates(attribute):
            row = {attribute.name: value}
            if all(
                p.evaluate(row) == wanted[i] for i, p in props if i in wanted
            ):
                return value
        return None

    def synthesize_row(self, mask: int) -> dict[str, Any]:
        """Construct a data row whose Boolean abstraction equals ``mask``.

        Solves each attribute independently (propositions constrain exactly
        one attribute), which is complete because the vocabulary passed the
        interference check.
        """
        wanted = {
            i: bool(mask & (1 << i)) for i in range(len(self.propositions))
        }
        row: dict[str, Any] = {}
        for attribute in self.schema.attributes:
            value = self._witness(attribute, wanted)
            if value is None:
                raise InterferenceError(
                    [
                        InterferenceReport(
                            attribute=attribute.name,
                            propositions=tuple(
                                p.name
                                for _, p in self._by_attribute[attribute.name]
                            ),
                            assignment=tuple(
                                wanted[i]
                                for i, _ in self._by_attribute[attribute.name]
                            ),
                        )
                    ]
                )
            row[attribute.name] = value
        return row

    def synthesize_object(self, question: Question) -> list[dict[str, Any]]:
        """One data row per Boolean tuple of a membership question."""
        if question.n != self.n:
            raise ValueError(
                f"question over {question.n} variables, vocabulary has {self.n}"
            )
        return [self.synthesize_row(t) for t in question.sorted_tuples()]

    # ------------------------------------------------------------------
    # Assumption (ii)
    # ------------------------------------------------------------------
    def check_interference(self) -> list[InterferenceReport]:
        """Find all same-attribute truth assignments with no witness value."""
        reports: list[InterferenceReport] = []
        for attr_name, props in self._by_attribute.items():
            attribute = self.schema.attribute(attr_name)
            indices = [i for i, _ in props]
            for assignment in product([True, False], repeat=len(indices)):
                wanted = dict(zip(indices, assignment))
                if self._witness(attribute, wanted) is None:
                    reports.append(
                        InterferenceReport(
                            attribute=attr_name,
                            propositions=tuple(p.name for _, p in props),
                            assignment=assignment,
                        )
                    )
        return reports

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def legend(self) -> str:
        """``x1: isDark`` … — how Boolean variables map to propositions."""
        return "\n".join(
            f"x{i + 1}: {p.name}" for i, p in enumerate(self.propositions)
        )

    def render_question(self, question: Question) -> str:
        """Show a question as synthesized data rows (what the user sees)."""
        rows = self.synthesize_object(question)
        cols = self.schema.attribute_names
        widths = {
            c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
            for c in cols
        }
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
        return "\n".join(lines)
