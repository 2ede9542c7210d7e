#!/usr/bin/env python
"""An out-of-tree evaluation backend registering itself (DESIGN.md §2i).

The backend plugin API v2 means a third-party package never edits
``repro.data.backends``: it implements the
:class:`~repro.data.backends.EvaluationBackend` contract, registers on
the process-wide :data:`~repro.data.backends.REGISTRY` (decorator shown
here; installed packages use a ``repro.backends`` entry point, ad-hoc
code the ``REPRO_BACKENDS`` environment variable), and immediately works
everywhere a backend name is accepted — ``QueryEngine(backend=...)``,
``REGISTRY.create``, the CLI ``--backend`` choices, and the pytest
``--backend`` fixture.

The toy backend below memoizes full-relation answer bitmasks per query —
a "caching proxy" over the reference evaluation path.  Real plugins
would talk to an external system instead (see
``repro.data.backends.dbapi`` for the production-shaped example:
dialects, pooling, retry).

Run:  python examples/custom_backend.py

To load the same class without importing this file yourself::

    REPRO_BACKENDS=examples.custom_backend:MemoizingBackend \
        python -m repro.cli demo --backend memo
"""

import random

from repro.core import tuples as bt
from repro.data import QueryEngine
from repro.data.backends import REGISTRY
from repro.data.backends.base import check_width
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)


@REGISTRY.register("memo", supports_oracle=True, replace_existing=True)
class MemoizingBackend:
    """Per-query answer-bitmask memo over the reference path.

    Capability flags ride along at registration (or as a class
    ``capabilities`` attribute for entry-point/env plugins, where no
    registration call site exists).
    """

    name = "memo"

    def __init__(self, relation, vocabulary, auto_refresh=True, **options):
        self.relation = relation
        self.vocabulary = vocabulary
        self.auto_refresh = auto_refresh
        self.options = options
        self._memo = {}
        self._version = None

    # -- the EvaluationBackend contract --------------------------------
    @property
    def is_stale(self):
        return getattr(self.relation, "version", None) != self._version

    def refresh(self, force=False):
        if force or self.is_stale:
            self._memo.clear()
            self._version = getattr(self.relation, "version", None)
            return True
        return False

    def matching_bits(self, query):
        check_width(query, self.vocabulary)
        if self.auto_refresh and self.is_stale:
            self.refresh()
        bits = self._memo.get(query)
        if bits is None:
            abstract = self.vocabulary.abstract_object
            bits = self._memo[query] = bt.union_masks(
                1 << i
                for i, obj in enumerate(self.relation)
                if query.evaluate(abstract(obj.rows))
            )
        return bits

    def execute(self, query):
        bits = self.matching_bits(query)
        return [
            o for i, o in enumerate(self.relation) if bits >> i & 1
        ]

    def matches_many(self, query, objects=None):
        bits = self.matching_bits(query)
        if objects is None:
            return [bool(bits >> i & 1) for i in range(len(self.relation))]
        abstract = self.vocabulary.abstract_object
        return [query.evaluate(abstract(o.rows)) for o in objects]

    def describe(self):
        return (
            f"memo backend: {len(self.relation)} objects, "
            f"{len(self._memo)} memoized queries"
        )


def main():
    vocab = storefront_vocabulary()
    store = random_store(80, random.Random(7))
    query = intro_query()

    print("registered backends:", ", ".join(REGISTRY.names()))
    print("memo capabilities:  ", REGISTRY.capabilities("memo"))

    # The plugin is a first-class citizen of every construction seam.
    backend = REGISTRY.create("memo", store, vocab)
    engine = QueryEngine(store, vocab, backend="memo")
    reference = QueryEngine(store, vocab)  # default bitmask backend

    mine = [o.key for o in engine.execute_batch(query)]
    theirs = [o.key for o in reference.execute_batch(query)]
    assert mine == theirs, "answer identity is the §2c contract"
    print(f"\n{query.shorthand()} matches {len(mine)} / {len(store)} boxes")
    print(backend.describe(), "->", engine.backend.describe())

    # Second evaluation hits the memo instead of re-evaluating.
    engine.execute_batch(query)
    print("after re-run:", engine.backend.describe())


if __name__ == "__main__":
    main()
