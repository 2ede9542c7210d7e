"""E7 — Theorem 3.6: learning the θ universal Horn expressions of one head
requires Ω((n/θ)^{θ-1}) questions.

The family: θ−1 disjoint bodies of size n/(θ−1) plus a large body Bθ
overlapping each in all but one variable.  Per the proof, the only
informative questions falsify exactly one variable of each small body; each
"answer" eliminates a single candidate Bθ.  We play that game against the
candidate-elimination adversary and also measure the actual lattice
learner's (upper-bound) cost on the same family.
"""

from __future__ import annotations

from itertools import product

from repro.analysis import render_table
from repro.core import tuples as bt
from repro.core.generators import theta_body_query
from repro.core.normalize import canonicalize
from repro.core.query import QhornQuery
from repro.core.tuples import Question
from repro.learning import RolePreservingLearner
from repro.oracle import CandidateEliminationAdversary, CountingOracle, QueryOracle


def _candidate_family(n_body: int, theta: int) -> list[QhornQuery]:
    """All queries of the Thm 3.6 family: fixed small bodies, every choice
    of Bθ = union of (block minus one variable)."""
    block = n_body // (theta - 1)
    head = n_body
    blocks = [
        list(range(b * block, (b + 1) * block)) for b in range(theta - 1)
    ]
    out = []
    for removal in product(range(block), repeat=theta - 1):
        big = [
            v
            for b, blk in enumerate(blocks)
            for i, v in enumerate(blk)
            if i != removal[b]
        ]
        out.append(
            QhornQuery.build(
                n_body + 1,
                universals=[(blk, head) for blk in blocks] + [(big, head)],
            )
        )
    return out


def test_e7_adversarial_lower_bound(report, benchmark):
    rows = []
    for n_body, theta in ((6, 3), (8, 3), (9, 4), (8, 5)):
        block = n_body // (theta - 1)
        cands = _candidate_family(n_body, theta)
        adv = CandidateEliminationAdversary(cands)
        head = n_body
        blocks = [
            list(range(b * block, (b + 1) * block)) for b in range(theta - 1)
        ]
        top = bt.all_true(n_body + 1)
        for removal in product(range(block), repeat=theta - 1):
            if adv.is_identified():
                break
            falsify = [blocks[b][i] for b, i in enumerate(removal)] + [head]
            adv.ask_many(
                [Question.of(n_body + 1, [top, bt.with_false(top, falsify)])]
            )
        bound = block ** (theta - 1) - 1
        rows.append(
            [n_body, theta, len(cands), adv.questions_asked, bound,
             "yes" if adv.questions_asked >= bound else "no"]
        )
        assert adv.questions_asked >= bound
    table = render_table(
        ["body vars", "θ", "candidates", "questions to identify",
         "(n/(θ-1))^{θ-1} - 1", "bound met"],
        rows,
        title=(
            "E7a / Thm 3.6 — adversarial lower bound for learning the θ "
            "bodies of one head (paper: Ω((n/θ)^{θ-1}))"
        ),
    )
    report("e7a_universal_lower_bound", table)

    benchmark(_candidate_family, 8, 3)


def test_e7_learner_upper_bound(report, benchmark):
    """Thm 3.5's upper bound on the same family: O(n^θ) questions."""
    rows = []
    for n_body, theta in ((6, 2), (6, 3), (12, 4)):
        target = theta_body_query(n_body, theta)
        oracle = CountingOracle(QueryOracle(target))
        result = RolePreservingLearner(oracle).learn()
        assert canonicalize(result.query) == canonicalize(target)
        n = n_body + 1
        rows.append(
            [n_body, theta, oracle.questions_asked, n**theta]
        )
        assert oracle.questions_asked <= n**theta
    table = render_table(
        ["body vars", "θ", "learner questions", "n^θ (upper bound)"],
        rows,
        title="E7b / Thm 3.5 — measured learner cost on the Thm 3.6 family",
    )
    report("e7b_universal_upper_bound", table)

    benchmark(
        lambda: RolePreservingLearner(
            QueryOracle(theta_body_query(6, 3))
        ).learn()
    )
