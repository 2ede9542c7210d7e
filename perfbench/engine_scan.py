"""The query-answering workload: ``engine-scan``.

A :class:`~repro.data.QueryEngine` with its default backend answers seeded
qhorn queries with ``execute_batch``, the call ``repro learn`` uses to show
answers.  The relation holds 100 000 objects over a 10-proposition Boolean
vocabulary, each with 1-3 uniformly random rows, so about 1 024 distinct
masks occur.  Set-up is building the engine's index.

Because rows are uniform and every query names disjoint variables, a
query's answer count -- which is what a query costs -- depends only on its
shape: the body size of each universal and the existential's size.
Queries therefore come in blocks holding every shape once, in seeded order
with seeded variables, and a run ends only at a block boundary, so runs on
different seeds do the same work.

Every answer set is checked, outside the timed call, against an evaluation
computed here with numpy straight from the generated row bits.

A host-speed probe (:class:`measure.HostProbes`) runs right after every
query and every index build, and before the first; each call's time is
scaled by the probes on either side of it.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from repro.core.query import QhornQuery
from repro.data import BoolIs, NestedRelation, QueryEngine, Vocabulary
from repro.data.schema import Attribute, FlatSchema, NestedSchema

from measure import HostProbes, overhead_pct, percentile
from spans import SpanRecorder

OBJECTS = 100_000
WIDTH = 10
MAX_ROWS = 3
SETUP_BUILDS = 5
#: The tail percentile reported is p90, which needs 100 samples per run.
MIN_QUERIES = 100
#: (body size of each universal, existential size or 0): 1-2 universals
#: with bodies of at most 2 variables, and 0-1 existentials of 1-2.
SHAPES = [
    (bodies, exist)
    for bodies in ((0,), (1,), (2,), (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for exist in (0, 1, 2)
]


@dataclass
class Data:
    relation: NestedRelation
    vocabulary: Vocabulary
    #: Row masks per object, padded with -1: shape (OBJECTS, MAX_ROWS).
    rows: np.ndarray


def make_data(seed: int) -> Data:
    rng = random.Random(seed)
    names = [f"b{j + 1}" for j in range(WIDTH)]
    flat = FlatSchema(
        name="wide", attributes=tuple(Attribute.boolean(name) for name in names)
    )
    vocabulary = Vocabulary(flat, [BoolIs(name) for name in names])
    relation = NestedRelation(NestedSchema(name="wide_objects", embedded=flat))
    rows = np.full((OBJECTS, MAX_ROWS), -1, dtype=np.int16)
    bits = list(enumerate(names))
    for i in range(OBJECTS):
        masks = [rng.getrandbits(WIDTH) for _ in range(rng.randrange(1, MAX_ROWS + 1))]
        rows[i, : len(masks)] = masks
        relation.add_object(
            f"w{i}",
            rows=[{name: bool(m >> j & 1) for j, name in bits} for m in masks],
        )
    return Data(relation, vocabulary, rows)


def query_block(rng: random.Random) -> list[QhornQuery]:
    """One query of every shape, in seeded order with seeded variables."""
    shapes = list(SHAPES)
    rng.shuffle(shapes)
    block = []
    for bodies, exist in shapes:
        free = rng.sample(range(WIDTH), WIDTH)
        universals = []
        for size in bodies:
            head, *body = (free.pop() for _ in range(size + 1))
            universals.append((body, head))
        existentials = [[free.pop() for _ in range(exist)]] if exist else []
        block.append(QhornQuery.build(WIDTH, universals, existentials))
    return block


def expected_positions(query: QhornQuery, rows: np.ndarray) -> np.ndarray:
    """Answer positions by the paper's semantics, evaluated per distinct
    mask and gathered per object -- no code from ``repro.data``."""
    masks = np.arange(1 << WIDTH)
    present = rows >= 0
    safe = np.where(present, rows, 0)
    keep = np.ones(len(rows), dtype=bool)
    for u in query.universals:
        body = sum(1 << v for v in u.body)
        covers = (masks & body) == body
        holds = (masks >> u.head) & 1 == 1
        keep &= ~((covers & ~holds)[safe] & present).any(axis=1)
        if query.require_guarantees:
            keep &= ((covers & holds)[safe] & present).any(axis=1)
    for e in query.existentials:
        mask = sum(1 << v for v in e.variables)
        keep &= (((masks & mask) == mask)[safe] & present).any(axis=1)
    return np.flatnonzero(keep)


def build_engine(data: Data) -> QueryEngine:
    engine = QueryEngine(data.relation, data.vocabulary)
    engine.backend.refresh()
    return engine


def setup(
    data: Data, recorder: SpanRecorder | None
) -> tuple[list[float], QueryEngine]:
    """``SETUP_BUILDS`` index builds from a collected heap, each between
    two probes and scaled by them; the last engine answers the run."""
    times = []
    engine = None
    for _ in range(SETUP_BUILDS):
        engine = None
        if recorder is None:
            gc.collect()
        else:
            recorder.quiet_collect()
        probes = HostProbes()
        probes.take()
        began = time.perf_counter()
        engine = build_engine(data)
        ended = time.perf_counter()
        probes.take()
        times.append(probes.scaled(began, ended))
    return times, engine


@dataclass
class PhaseResult:
    setup_s: list[float]
    probes: HostProbes
    #: Seconds per ``execute_batch`` call on the reference host.
    latencies: list[float] = field(default_factory=list)
    #: The same, as measured.
    raw_latencies: list[float] = field(default_factory=list)
    answers: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    distinct_masks: int = 0


def run_phase(
    data: Data, seed: int, seconds: float, recorder: SpanRecorder | None = None
) -> PhaseResult:
    setup_times, engine = setup(data, recorder)
    probes = HostProbes()
    result = PhaseResult(
        setup_times, probes, distinct_masks=engine.index.distinct_masks
    )
    objects = data.relation.objects
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    number = 0
    probes.take()
    while len(result.latencies) < MIN_QUERIES or time.perf_counter() < deadline:
        for query in query_block(rng):
            if recorder is not None:
                recorder.current_key = number
            began = time.perf_counter()
            answers = engine.execute_batch(query)
            ended = time.perf_counter()
            probes.take()
            result.latencies.append(probes.scaled(began, ended))
            result.raw_latencies.append(ended - began)
            result.answers.append(len(answers))
            expected = [objects[i] for i in expected_positions(query, data.rows)]
            if answers != expected:
                result.problems.append(
                    f"query {number} ({query.shorthand()}): {len(answers)} "
                    f"answers, expected {len(expected)}"
                )
            number += 1
    return result


def end_to_end(phase: PhaseResult) -> tuple[dict[str, float], dict[str, tuple]]:
    """The end-to-end metrics of ``BENCHMARK.json``, and the same figures
    under the names a reader of the query engine uses: ``name -> (value,
    unit, note)``."""
    latencies = phase.latencies
    count = len(latencies)
    named: dict[str, tuple] = {
        "setup_s": (
            median(phase.setup_s),
            "s",
            f"median of {len(phase.setup_s)} index builds",
        ),
        "queries_per_s": (
            count / sum(latencies),
            "1/s",
            f"{count} queries at {OBJECTS} objects "
            f"({count / sum(phase.raw_latencies):.2f}/s as measured)",
        ),
        "query_p50_ms": (percentile(latencies, 50) * 1e3, "ms", f"n={count}"),
        "query_p90_ms": (percentile(latencies, 90) * 1e3, "ms", f"n={count}"),
        "answers_per_query": (
            sum(phase.answers) / count,
            "count",
            f"{phase.distinct_masks} distinct masks",
        ),
        "failed_ratio": (
            len(phase.problems) / count,
            "ratio",
            f"{len(phase.problems)} of {count} queries",
        ),
    }
    metrics = {
        "setup_s": named["setup_s"][0],
        "throughput_per_s": named["queries_per_s"][0],
        "latency_p50_ms": named["query_p50_ms"][0],
        "latency_p90_ms": named["query_p90_ms"][0],
        # One execute_batch call answers a query.
        "rounds_per_op": 1.0,
        "items_per_op": named["answers_per_query"][0],
    }
    return metrics, named


def per_layer(
    phase: PhaseResult, recorder: SpanRecorder, untraced: PhaseResult
) -> dict[str, float]:
    layers = recorder.layer_times()

    builds = layers["index.build"]
    gc_pause_ms, gen2 = recorder.gc_summary()
    untraced_rate = len(untraced.latencies) / sum(untraced.latencies)
    traced_rate = len(phase.latencies) / sum(phase.latencies)
    # Times on the reference host, by the run's median probe.
    scale = phase.probes.factor()
    return {
        "core.compile_us": layers["core.compile"].mean_self_us() * scale,
        "index.build_s": builds.mean_self_us() / 1e6 * scale,
        "index.matching_bits_us": (
            layers["index.matching_bits"].mean_self_us() * scale
        ),
        "engine.materialize_us": (
            layers["engine.execute_batch"].mean_self_us() * scale
        ),
        "index.distinct_masks": phase.distinct_masks,
        "engine.answers_per_query": sum(phase.answers) / len(phase.answers),
        "gc.pause_ms": gc_pause_ms * scale,
        "gc.gen2_collections": gen2,
        "trace.overhead_pct": overhead_pct(untraced_rate, traced_rate),
    }
