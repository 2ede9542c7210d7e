#!/usr/bin/env python
"""From examples to SQL: close the loop the paper opens in §1.

"SQL interfaces force us to formulate precise quantified queries from the
get go."  Here the quantified query is *learned* from yes/no examples, then
compiled to SQL and executed on a real SQLite database through the
``dbapi`` backend — with the in-process engine cross-checking
every answer.

Run:  python examples/sql_export.py
"""

import random

from repro import QueryOracle, learn_qhorn1
from repro.data import DbApiBackend, QueryEngine
from repro.data.chocolate import (
    intro_query,
    random_store,
    storefront_vocabulary,
)
from repro.data.sql import to_sql


def main() -> None:
    vocabulary = storefront_vocabulary()
    store = random_store(100, random.Random(1304))

    # learn the intro query from membership answers
    learned = learn_qhorn1(QueryOracle(intro_query())).query
    print(f"learned query: {learned.shorthand()}")
    print("\npropositions:")
    print(vocabulary.legend())

    # compile to SQL over the objects/rows encoding
    sql = to_sql(learned, vocabulary)
    print("\ncompiled SQL:")
    print(sql)

    # execute on SQLite and cross-check with the in-process engine
    with DbApiBackend(store, vocabulary) as db:
        via_sql = [o.key for o in db.execute(learned)]
        print(f"\nSQLite answers: {len(via_sql)} boxes")
        for key in via_sql[:5]:
            print(f"  {key}")

    memory = QueryEngine(store, vocabulary)
    via_memory = [o.key for o in memory.execute(learned)]
    print(f"\nin-process engine agrees: {via_sql == via_memory}")
    assert via_sql == via_memory


if __name__ == "__main__":
    main()
