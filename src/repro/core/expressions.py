"""Quantified expressions: the building blocks of qhorn queries (§2.1).

A qhorn query is a conjunction of quantified Horn expressions over the tuples
of an object's embedded relation.  Two expression forms cover the whole
class once existential Horn expressions are rewritten as conjunctions (§2.1.4):

* :class:`UniversalHorn` — ``∀t ∈ S (B → h)`` with body set ``B`` (possibly
  empty, the *bodyless* degenerate form ``∀h``) and head variable ``h``.
  Per qhorn property 2, every universal Horn expression carries an implicit
  *guarantee clause* ``∃t ∈ S (B ∧ h)``.
* :class:`ExistentialConjunction` — ``∃t ∈ S (C)`` for a non-empty variable
  set ``C``.  An existential Horn expression ``∃B → h`` is semantically its
  guarantee clause ``∃(B ∧ h)``, i.e. the conjunction over ``B ∪ {h}``.

Variables are 0-based indices; display names are ``x1..xn``.

Both forms sort by a total key — a universal expression by its head, then
its sorted body; a conjunction by its sorted variables — so equal queries
print, serialize and compile alike whatever order their sets iterate in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.core import tuples as bt

__all__ = ["UniversalHorn", "ExistentialConjunction", "var_name", "var_names"]


def var_name(v: int) -> str:
    """Display name of 0-based variable ``v`` (paper style, 1-based)."""
    return f"x{v + 1}"


def var_names(vs) -> str:
    """Concatenated display names of a variable collection, sorted."""
    return "".join(var_name(v) for v in sorted(vs))


@dataclass(frozen=True)
class UniversalHorn:
    """``∀t ∈ S (body → head)`` plus its guarantee clause ``∃(body ∧ head)``.

    ``body`` is a frozenset of 0-based variable indices and may be empty,
    giving the degenerate bodyless form ``∀head``.  The head must not be a
    member of its own body.
    """

    head: int
    body: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", frozenset(self.body))
        if self.head < 0 or any(v < 0 for v in self.body):
            raise ValueError("variable indices must be non-negative")
        if self.head in self.body:
            raise ValueError(
                f"head {var_name(self.head)} cannot appear in its own body"
            )

    @property
    def body_mask(self) -> int:
        return bt.mask_of(self.body)

    @property
    def head_mask(self) -> int:
        return 1 << self.head

    @property
    def variables(self) -> frozenset[int]:
        return self.body | {self.head}

    @property
    def is_bodyless(self) -> bool:
        return not self.body

    def violated_by(self, t: int) -> bool:
        """True iff tuple ``t`` has the full body true but the head false."""
        body = self.body_mask
        return (t & body) == body and not t & self.head_mask

    def holds_universally(self, question) -> bool:
        """The ``∀`` part only: no tuple in the question violates body→head."""
        return not any(self.violated_by(t) for t in question)

    def guarantee(self) -> "ExistentialConjunction":
        """The guarantee clause ``∃ (body ∧ head)`` (qhorn property 2)."""
        return ExistentialConjunction(self.variables)

    def dominates(self, other: "UniversalHorn") -> bool:
        """Rule R2: ``∀B→h`` dominates ``∀B'→h`` whenever ``B' ⊇ B``."""
        return self.head == other.head and self.body <= other.body

    def __lt__(self, other: "UniversalHorn") -> bool:
        if not isinstance(other, UniversalHorn):
            return NotImplemented
        return (self.head, sorted(self.body)) < (other.head, sorted(other.body))

    def __str__(self) -> str:
        if self.is_bodyless:
            return f"∀{var_name(self.head)}"
        return f"∀{var_names(self.body)}→{var_name(self.head)}"


@dataclass(frozen=True)
class ExistentialConjunction:
    """``∃t ∈ S (C)``: some tuple has every variable in ``C`` true."""

    variables: FrozenSet[int] = field(default_factory=frozenset)

    def __init__(self, variables) -> None:
        vs = frozenset(variables)
        if not vs:
            raise ValueError("an existential conjunction needs >= 1 variable")
        if any(v < 0 for v in vs):
            raise ValueError("variable indices must be non-negative")
        object.__setattr__(self, "variables", vs)

    @property
    def mask(self) -> int:
        return bt.mask_of(self.variables)

    def satisfied_by(self, t: int) -> bool:
        """True iff tuple ``t`` makes every conjunct true."""
        m = self.mask
        return (t & m) == m

    def holds_on(self, question) -> bool:
        """True iff some tuple of the question satisfies the conjunction."""
        return any(self.satisfied_by(t) for t in question)

    def dominates(self, other: "ExistentialConjunction") -> bool:
        """Rule R1: a conjunction dominates any conjunction over a subset."""
        return self.variables >= other.variables

    def __lt__(self, other: "ExistentialConjunction") -> bool:
        if not isinstance(other, ExistentialConjunction):
            return NotImplemented
        return sorted(self.variables) < sorted(other.variables)

    def __str__(self) -> str:
        return f"∃{var_names(self.variables)}"
