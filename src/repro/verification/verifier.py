"""The query verifier: decide whether a given query matches the user (§4).

Query verification is the decision problem companion to learning: the
verifier presents each question of the given query's verification set with
the query's own label; the user's intended query is *different* iff the user
disagrees with at least one label (Theorem 4.2, for role-preserving qhorn).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import QhornQuery
from repro.oracle.base import MembershipOracle, QueryOracle
from repro.protocol.core import Steps, ask_one, ask_round
from repro.protocol.drivers import drive
from repro.verification.sets import (
    VerificationQuestion,
    VerificationSet,
    build_verification_set,
)

__all__ = ["Disagreement", "VerificationOutcome", "Verifier", "verify_query"]


@dataclass(frozen=True)
class Disagreement:
    """A verification question whose label the user contradicted."""

    item: VerificationQuestion
    user_response: bool

    def describe(self) -> str:
        said = "answer" if self.user_response else "non-answer"
        wanted = "answer" if self.item.expected else "non-answer"
        return (
            f"[{self.item.kind}] {self.item.provenance}: query says {wanted}, "
            f"user says {said}"
        )


@dataclass
class VerificationOutcome:
    """Result of running a verification set against the user."""

    verified: bool
    questions_asked: int
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def detecting_kinds(self) -> frozenset[str]:
        """Which question families exposed the discrepancy (Fig. 8 cells)."""
        return frozenset(d.item.kind for d in self.disagreements)


class Verifier:
    """Runs verification sets against a membership oracle (the user)."""

    def __init__(self, query: QhornQuery) -> None:
        self.query = query
        self.verification_set: VerificationSet = build_verification_set(query)

    def run(
        self, oracle: MembershipOracle, stop_at_first: bool = False
    ) -> VerificationOutcome:
        """Ask every question; collect the user's disagreements, driving
        :meth:`steps` against ``oracle``."""
        return drive(self.steps(stop_at_first=stop_at_first), oracle)

    def steps(self, stop_at_first: bool = False) -> Steps:
        """Verification as a sans-io step generator (DESIGN.md §2e).

        ``stop_at_first`` aborts on the first disagreement, the interactive
        behaviour; the default asks all O(k) questions so experiments can
        report every detecting family.

        The verification set is fixed before the first answer arrives, so
        the full run is one round; only ``stop_at_first`` keeps the
        sequential single-question rounds (batching would spend questions
        past the abort, changing the paper's question count).
        """
        disagreements: list[Disagreement] = []
        items = self.verification_set.questions
        if stop_at_first:
            asked = 0
            for item in items:
                response = yield from ask_one(item.question)
                asked += 1
                if response != item.expected:
                    disagreements.append(
                        Disagreement(item=item, user_response=response)
                    )
                    break
        else:
            responses = yield from ask_round(
                [item.question for item in items]
            )
            asked = len(items)
            disagreements = [
                Disagreement(item=item, user_response=response)
                for item, response in zip(items, responses)
                if response != item.expected
            ]
        return VerificationOutcome(
            verified=not disagreements,
            questions_asked=asked,
            disagreements=disagreements,
        )


def verify_query(
    given: QhornQuery, oracle: MembershipOracle, stop_at_first: bool = False
) -> VerificationOutcome:
    """Verify ``given`` against the user behind ``oracle``."""
    return Verifier(given).run(oracle, stop_at_first=stop_at_first)


def detecting_kinds(
    given: QhornQuery, intended: QhornQuery
) -> frozenset[str]:
    """Which question families of ``given``'s verification set detect that
    the user actually intends ``intended`` — one cell of Fig. 8."""
    outcome = verify_query(given, QueryOracle(intended))
    return outcome.detecting_kinds
