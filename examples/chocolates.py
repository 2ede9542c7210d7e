#!/usr/bin/env python
"""The paper's introduction, end to end: buying chocolates by example.

You want "a box with dark chocolates — some sugar-free with nuts".  Instead
of writing the quantified query, you answer yes/no on example boxes the
learner synthesizes (or picks from the store's real stock).  The learned
query then filters the store's hundred boxes.

Run:  python examples/chocolates.py
"""

import random

from repro import CountingOracle, canonicalize, learn_qhorn1
from repro.data import ExampleFactory, QueryEngine
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)


class Shopper:
    """The simulated customer: inspects real boxes and labels them."""

    def __init__(self, vocabulary, factory):
        self.intended = intro_query()
        self.vocabulary = vocabulary
        self.factory = factory
        self.n = vocabulary.n
        self.inspected = 0

    def ask_many(self, questions):
        """Label one round of boxes, in the order they are offered."""
        return [self.label(question) for question in questions]

    def label(self, question):
        box = self.factory.from_database(question)
        self.inspected += 1
        if self.inspected <= 2:  # show the first couple of boxes
            print(f"\n--- box offered to the shopper ---")
            print(box.format(columns=[
                "isDark", "isSugarFree", "hasNuts", "hasFilling"
            ]))
        tuples = self.vocabulary.abstract_object(box.rows)
        verdict = self.intended.evaluate(tuples)
        if self.inspected <= 2:
            print("shopper says:", "I'd buy it" if verdict else "push aside")
        return verdict


def main() -> None:
    rng = random.Random(1304)
    vocabulary = storefront_vocabulary()
    store = random_store(100, rng)

    print("propositions the shopper mentioned:")
    print(vocabulary.legend())

    shopper = Shopper(vocabulary, ExampleFactory(vocabulary, database=store))
    counted = CountingOracle(shopper)
    result = learn_qhorn1(counted)

    print(f"\nlearned query: {result.query.shorthand()}")
    print(f"boxes inspected: {shopper.inspected}")
    exact = canonicalize(result.query) == canonicalize(intro_query())
    print(f"matches the shopper's intent exactly: {exact}")
    assert exact

    engine = QueryEngine(store, vocabulary)
    matches = engine.execute(result.query)
    print(f"\nboxes in stock matching the learned query: "
          f"{len(matches)} / {len(store)}")
    for box in matches[:3]:
        print(f"  {box.key}  ({len(box.rows)} chocolates)")

    if matches:
        print("\nwhy the first box matches:")
        for line in engine.explain(result.query, matches[0]):
            mark = "✓" if line.satisfied else "✗"
            print(f"  {mark} {line.expression}: {line.detail}")


if __name__ == "__main__":
    main()
