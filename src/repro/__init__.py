"""repro — qhorn: learning and verifying quantified Boolean queries by example.

A complete implementation of the PODS 2013 paper by Abouzied, Angluin,
Papadimitriou, Hellerstein and Silberschatz: the qhorn query class over
nested relations, exact learning algorithms for qhorn-1 and role-preserving
qhorn from membership questions, O(k) verification sets, the lower-bound
adversaries, and the nested-relational data domain that renders Boolean
membership questions as concrete example objects.

Quickstart::

    import random
    from repro import parse_query, QueryOracle, CountingOracle, learn_qhorn1

    target = parse_query("∀x1x2→x3 ∃x4x5 ∀x6", n=6)
    oracle = CountingOracle(QueryOracle(target))
    result = learn_qhorn1(oracle)
    print(result.query.shorthand(), oracle.questions_asked)
"""

from repro.core.expressions import ExistentialConjunction, UniversalHorn
from repro.core.normalize import (
    CanonicalForm,
    brute_force_equivalent,
    canonicalize,
    equivalent,
    normalize,
)
from repro.core.parser import parse_query
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.data import DbApiBackend, QueryEngine
from repro.learning import (
    Qhorn1Learner,
    Qhorn1Result,
    RolePreservingLearner,
    RolePreservingResult,
    learn_qhorn1,
    learn_role_preserving,
)
from repro.oracle import (
    CountingOracle,
    MembershipOracle,
    NoisyOracle,
    QueryOracle,
    RecordingOracle,
)
from repro.protocol import (
    Finished,
    LearnerProtocol,
    Round,
    drive,
)

__version__ = "1.0.0"

__all__ = [
    "CanonicalForm",
    "CountingOracle",
    "DbApiBackend",
    "QueryEngine",
    "ExistentialConjunction",
    "MembershipOracle",
    "NoisyOracle",
    "QhornQuery",
    "Qhorn1Learner",
    "Qhorn1Result",
    "Finished",
    "LearnerProtocol",
    "Round",
    "Question",
    "QueryOracle",
    "RecordingOracle",
    "RolePreservingLearner",
    "RolePreservingResult",
    "UniversalHorn",
    "brute_force_equivalent",
    "canonicalize",
    "drive",
    "equivalent",
    "learn_qhorn1",
    "learn_role_preserving",
    "normalize",
    "parse_query",
]
