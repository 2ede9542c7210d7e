"""Query verification: O(k) verification sets and the verifier (§4),
plus teaching-set analysis (§5)."""

from repro.verification.sets import (
    VerificationQuestion,
    VerificationSet,
    build_verification_set,
)
from repro.verification.teaching import (
    LabelledExample,
    greedy_teaching_set,
    teaching_set,
    verification_set_as_examples,
)
from repro.verification.verifier import (
    Disagreement,
    VerificationOutcome,
    Verifier,
    detecting_kinds,
    verify_query,
)

__all__ = [
    "Disagreement",
    "LabelledExample",
    "VerificationOutcome",
    "VerificationQuestion",
    "VerificationSet",
    "Verifier",
    "build_verification_set",
    "detecting_kinds",
    "greedy_teaching_set",
    "teaching_set",
    "verification_set_as_examples",
    "verify_query",
]
