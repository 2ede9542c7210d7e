"""E5 — Theorem 2.1: learning qhorn with variable repetition needs Ω(2^n)
membership questions.

Two measurements on the ``Uni(X) ∧ Alias(Y)`` family:

* exhaustive (n ≤ 3): *every* possible membership question eliminates at
  most one of the 2^n candidates when the adversary answers with the
  majority — the counting heart of the proof;
* adversarial play (n up to 10): a sound learner interrogating the
  adversary cannot identify the target before 2^n − 1 questions.
"""

from __future__ import annotations

from itertools import chain, combinations

from repro.analysis import render_table
from repro.core import tuples as bt
from repro.core.generators import uni_alias_query
from repro.core.tuples import Question
from repro.oracle import CandidateEliminationAdversary, max_elimination


def _candidates(n: int):
    return [
        uni_alias_query(n, list(alias))
        for alias in chain.from_iterable(
            combinations(range(n), r) for r in range(n + 1)
        )
    ]


def _all_questions(n: int):
    universe = list(range(1 << n))
    for bits in range(1, 1 << len(universe)):
        yield Question.of(
            n, [t for i, t in enumerate(universe) if bits & (1 << i)]
        )


def test_e5_exhaustive_elimination_bound(report, benchmark):
    rows = []
    for n in (2, 3):
        cands = _candidates(n)
        worst = max_elimination(cands, _all_questions(n))
        rows.append([n, len(cands), 2 ** (2**n) - 1, worst])
        assert worst <= 1
    table = render_table(
        ["n", "candidates (2^n)", "questions examined", "max eliminated by any question"],
        rows,
        title=(
            "E5a / Thm 2.1 — exhaustive check: no membership question "
            "eliminates more than one Uni∧Alias candidate"
        ),
    )
    report("e5a_intractability_exhaustive", table)

    benchmark(
        lambda: max_elimination(_candidates(3), _all_questions(3))
    )


def test_e5_adversarial_play(report, benchmark):
    rows = []
    for n in (4, 6, 8, 10):
        cands = _candidates(n)
        adv = CandidateEliminationAdversary(cands)
        top = bt.all_true(n)
        # the only informative question shape: {1^n, alias-pattern}
        for alias in chain.from_iterable(
            combinations(range(n), r) for r in range(n + 1)
        ):
            if adv.is_identified():
                break
            adv.ask_many(
                [Question.of(n, [top, bt.with_false(top, list(alias))])]
            )
        rows.append(
            [n, len(cands), adv.questions_asked, 2**n - 1,
             "yes" if adv.questions_asked >= 2**n - 1 else "no"]
        )
        assert adv.questions_asked >= 2**n - 1
    table = render_table(
        ["n", "candidates", "questions to identify", "2^n - 1", "bound met"],
        rows,
        title=(
            "E5b / Thm 2.1 — adversarial play: identifying the target takes "
            "2^n − 1 questions (paper: Ω(2^n))"
        ),
    )
    report("e5b_intractability_adversary", table)

    def play_once():
        cands = _candidates(8)
        adv = CandidateEliminationAdversary(cands)
        top = bt.all_true(8)
        for alias in chain.from_iterable(
            combinations(range(8), r) for r in range(9)
        ):
            if adv.is_identified():
                break
            adv.ask_many(
                [Question.of(8, [top, bt.with_false(top, list(alias))])]
            )

    benchmark(play_once)
