"""Binary-search primitives over membership responses (Algs. 2, 3, 8).

The learning algorithms repeatedly reduce "which variables/tuples matter?"
to monotone set queries answered by the user:

* :func:`narrow_steps` — Alg. 2 (*Find*)'s narrowing: once the root
  question ``contains(V)`` came back true (the caller asks it), locate one
  positive item of ``V`` with ⌈lg |V|⌉ questions at most.
* :func:`find_all_steps` — Alg. 3 (*FindAll*): locate every positive item
  with O(|found| · lg |V|) questions.
* :func:`find_all_batch_steps` — batch-first FindAll: the same questions,
  asked level by level so each round is one oracle batch.
* :func:`minimal_prefix_steps` — binary search for the shortest prefix
  satisfying a monotone predicate (the engine behind *GetHead*, Alg. 5).
* :func:`minimal_satisfying_subset_steps` — Alg. 8 (*Prune*): extract a
  minimal subset that keeps a monotone predicate true, O(|kept| · lg |V|)
  questions.

Every primitive takes *step-generator* predicates — generators that
yield :class:`~repro.protocol.core.Round` objects and return the
predicate's truth — and is itself a step generator, so the sans-io
learners compose it with ``yield from``.

Find's narrowing, the prefix search and Prune are inherently *adaptive* —
every question depends on the previous answer — so each is a chain of
single-question rounds; only FindAll's recursion tree contains
independent questions to batch.  A chain whose answers no later question
needs can still share rounds with other work: the qhorn-1 learner hands
Find's narrowing to :func:`~repro.protocol.core.ask_parallel` once the
root question is answered.  Each primitive documents its question
complexity so the learners' totals can be audited against the paper's
theorems.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence, TypeVar

T = TypeVar("T")

#: A step-generator predicate over one subset.
StepPredicate = Callable[[Sequence[T]], Generator]
#: A step-generator predicate answering many subsets in one round.
StepBatchPredicate = Callable[[Sequence[Sequence[T]]], Generator]

__all__ = [
    "narrow_steps",
    "find_all_steps",
    "find_all_batch_steps",
    "minimal_prefix_steps",
    "minimal_satisfying_subset_steps",
]


# ----------------------------------------------------------------------
# Alg. 2 — Find
# ----------------------------------------------------------------------


def narrow_steps(contains: StepPredicate, items: Sequence[T]) -> Generator:
    """Alg. 2 (*Find*)'s narrowing: one item of a positive set.

    ``contains(S)`` must be a monotone step predicate meaning "``S``
    contains at least one target item", and ``contains(items)`` must be
    true: Find's root question, which the caller asks, since its answer
    decides what the caller does next.  Asks ⌊lg |items|⌋ or
    ⌈lg |items|⌉ questions: the paper's version re-asks the second half
    after a failed first half; we use the implied answer instead (one
    fewer question per level).
    """
    items = list(items)
    while len(items) > 1:
        mid = len(items) // 2
        first, second = items[:mid], items[mid:]
        # By the invariant, a target is in first ∪ second; one question on
        # the first half decides which half to keep.
        items = first if (yield from contains(first)) else second
    return items[0]


# ----------------------------------------------------------------------
# Alg. 3 — FindAll
# ----------------------------------------------------------------------


def find_all_steps(
    contains: StepPredicate, items: Sequence[T]
) -> Generator:
    """Alg. 3 (*FindAll*): return every target item in ``items``.

    Recursively splits; a subtree is abandoned after one question whenever
    it contains no target.  O(m lg |items|) questions for m found items.
    """
    items = list(items)
    if not items:
        return []
    if not (yield from contains(items)):
        return []
    if len(items) == 1:
        return items
    mid = len(items) // 2
    first = yield from find_all_steps(contains, items[:mid])
    second = yield from find_all_steps(contains, items[mid:])
    return first + second


def find_all_batch_steps(
    contains_each: StepBatchPredicate, items: Sequence[T]
) -> Generator:
    """Alg. 3 (*FindAll*), batch-first: one oracle round per tree level.

    ``contains_each(subsets)`` answers the containment question for every
    subset in one round.  A node's question depends only on its own
    ancestors' answers — sibling subtrees are independent — so walking the
    recursion tree level by level asks exactly the questions of the
    depth-first :func:`find_all_steps` (same multiset, O(lg |items|)
    rounds of at most 2·|found| questions each) and returns the same
    items in the same left-to-right order.
    """
    items = list(items)
    if not items:
        return []
    found_positions: list[int] = []
    frontier: list[list[int]] = [list(range(len(items)))]
    while frontier:
        answers = yield from contains_each(
            [[items[i] for i in subset] for subset in frontier]
        )
        next_frontier: list[list[int]] = []
        for subset, positive in zip(frontier, answers):
            if not positive:
                continue
            if len(subset) == 1:
                found_positions.append(subset[0])
                continue
            mid = len(subset) // 2
            next_frontier.append(subset[:mid])
            next_frontier.append(subset[mid:])
        frontier = next_frontier
    return [items[i] for i in sorted(found_positions)]


# ----------------------------------------------------------------------
# Minimal prefixes and subsets (Algs. 5 and 8's engines)
# ----------------------------------------------------------------------


def minimal_prefix_steps(
    pred: StepPredicate, items: Sequence[T]
) -> Generator:
    """Shortest prefix of ``items`` satisfying monotone step ``pred``.

    Returns ``None`` when even the full sequence fails.  O(lg |items|)
    predicate evaluations (the full-sequence check is reused as the first
    probe).
    """
    items = list(items)
    if not (yield from pred(items)):
        return None
    lo, hi = 1, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if (yield from pred(items[:mid])):
            hi = mid
        else:
            lo = mid + 1
    return items[:lo]


def minimal_satisfying_subset_steps(
    pred: StepPredicate, items: Sequence[T]
) -> Generator:
    """Alg. 8 (*Prune*): a minimal subset of ``items`` keeping ``pred`` true.

    ``pred`` must be monotone with ``pred(items)`` true.  Classic minimal
    witness extraction: repeatedly binary-search the shortest prefix that,
    together with the already-kept elements, satisfies the predicate; the
    prefix's last element is necessary.  O(|kept| · lg |items|) predicate
    evaluations — the "O(lg n) questions for each tuple we need to keep" of
    §3.2.2.
    """
    kept: list[T] = []
    rest = list(items)
    while not (yield from pred(kept)):
        lo, hi = 1, len(rest)
        if hi == 0:
            raise ValueError("pred(items) must hold for minimization")
        while lo < hi:
            mid = (lo + hi) // 2
            if (yield from pred(kept + rest[:mid])):
                hi = mid
            else:
                lo = mid + 1
        kept.append(rest[lo - 1])
        rest = rest[: lo - 1]
    return kept
