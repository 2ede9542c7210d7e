"""Bounded-exhaustive enumeration + differential conformance (DESIGN.md §2j).

The property suites sample; this package *enumerates*.  ``space``
generates every qhorn query and every relation up to small size bounds
(deduplicated up to semantic equivalence, stable content-hash ids), and
``differ`` runs every learner on each enumerated query, checking the
learned query and the paper's Theorem 3.1 question bound exactly on
every instance, and checks every backend against the compiled reference
on each (query, store) pair.  ``runner`` adds the
``repro enumerate`` CLI face: JSONL corpus export (which
``repro.server.loadgen --scenario`` replays), resume-from-checkpoint and
progress reporting.
"""

from repro.enumerate.space import (
    EnumeratedQuery,
    EnumeratedStore,
    enumerate_queries,
    enumerate_stores,
    query_signature,
)
from repro.enumerate.differ import (
    Divergence,
    MatrixSpec,
    role_preserving_bound,
    theorem_31_bound,
)

__all__ = [
    "EnumeratedQuery",
    "EnumeratedStore",
    "enumerate_queries",
    "enumerate_stores",
    "query_signature",
    "Divergence",
    "MatrixSpec",
    "theorem_31_bound",
    "role_preserving_bound",
]
