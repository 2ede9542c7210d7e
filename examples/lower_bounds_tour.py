#!/usr/bin/env python
"""A tour of the paper's lower bounds, executed.

Three hardness results made concrete:

* Theorem 2.1 — general qhorn (the Uni∧Alias family) forces 2^n − 1
  questions: watch the adversary keep everything alive.
* Lemma 3.4 — cap the tuples per question and existential learning turns
  quadratic.
* Theorem 3.9 — the information floor: membership answers are single bits,
  so k middle-level conjunctions need ≥ lg C(C(n,n/2),k) questions.

Run:  python examples/lower_bounds_tour.py
"""

from itertools import chain, combinations

from repro.analysis import (
    existential_bound_bits,
    existential_bound_closed_form,
)
from repro.core import tuples as bt
from repro.core.generators import head_pair_query, uni_alias_query
from repro.core.tuples import Question
from repro.learning import HeadPairLearner
from repro.oracle import CandidateEliminationAdversary, QueryOracle


def theorem_2_1(n: int = 6) -> None:
    print(f"— Theorem 2.1: Uni ∧ Alias over n={n} variables —")
    candidates = [
        uni_alias_query(n, list(alias))
        for alias in chain.from_iterable(
            combinations(range(n), r) for r in range(n + 1)
        )
    ]
    adversary = CandidateEliminationAdversary(candidates)
    print(f"candidate queries: {len(candidates)} (= 2^{n})")
    top = bt.all_true(n)
    checkpoints = {1, len(candidates) // 2, len(candidates) - 1}
    for alias in chain.from_iterable(
        combinations(range(n), r) for r in range(n + 1)
    ):
        if adversary.is_identified():
            break
        adversary.ask_many(
            [Question.of(n, [top, bt.with_false(top, list(alias))])]
        )
        if adversary.questions_asked in checkpoints:
            print(
                f"  after {adversary.questions_asked:4d} questions: "
                f"{adversary.remaining} candidates remain"
            )
    print(f"questions to identify: {adversary.questions_asked} "
          f"(bound: 2^n - 1 = {2**n - 1})\n")


def lemma_3_4(n: int = 16) -> None:
    print(f"— Lemma 3.4: tuple-budgeted learning, n={n} —")
    for c in (4, 8):
        worst = 0
        for i, j in combinations(range(n), 2):
            learner = HeadPairLearner(
                QueryOracle(head_pair_query(n, i, j)), max_tuples=c
            )
            learner.learn()
            worst = max(worst, learner.questions_asked)
        print(f"  c={c} tuples/question: worst case {worst} questions "
              f"(n²/c² = {n * n // (c * c)})")
    print()


def theorem_3_9() -> None:
    print("— Theorem 3.9: the information floor —")
    for n, k in ((8, 2), (10, 4), (12, 6)):
        exact = existential_bound_bits(n, k)
        closed = existential_bound_closed_form(n, k)
        print(f"  n={n:2d} k={k}: ≥ {exact:6.1f} questions "
              f"(closed form nk/2 - k lg k = {closed:.1f})")
    print()


if __name__ == "__main__":
    theorem_2_1()
    lemma_3_4()
    theorem_3_9()
