"""Differential properties: the superset-union (tabled) kernel vs the scan.

:class:`~repro.data.index.BitsetKernel` (the kernel behind the bitmask
backend) answers from lazily built superset-union
tables when :func:`~repro.data.index.zeta_bits` admits them, and scans
otherwise.  Either way its answer bitset must be bit-identical to
:func:`~repro.data.index.evaluate_inverted` over the same inverted
index.  Queries are drawn as raw ``CompiledQuery`` masks, so they reach
what ``QhornQuery.compile`` never emits: query bits at or above the
data's width in bodies, heads and existentials, empty heads and
multi-bit heads.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.query import CompiledQuery
from repro.data.index import (
    BitsetKernel,
    evaluate_inverted,
    pack_positions,
    zeta_bits,
)

MAX_DATA_BITS = 6
#: Query width beyond the data's: bits no data mask carries.
MAX_EXTRA_BITS = 3


def _assert_match_scan(mask_sets, queries):
    """The kernel equals the scan on every query, in order, so tables
    one query builds serve the next."""
    positions: dict[int, list[int]] = {}
    for position, masks in enumerate(mask_sets):
        for m in masks:
            positions.setdefault(m, []).append(position)
    inverted = pack_positions(positions, len(mask_sets))
    kernel = BitsetKernel(inverted, len(mask_sets))
    all_bits = (1 << len(mask_sets)) - 1
    for compiled in queries:
        expected = evaluate_inverted(compiled, inverted, all_bits)
        assert kernel.matching_bits(compiled) == expected, compiled
    return kernel


def _compiled(n, universals=(), existentials=(), guarantees=False):
    return CompiledQuery(
        n=n,
        universal_masks=tuple(universals),
        existential_masks=tuple(existentials),
        require_guarantees=guarantees,
    )


def _random_compiled(rng: random.Random, n: int) -> CompiledQuery:
    def head() -> int:
        roll = rng.random()
        if roll < 0.1:
            return 0
        if roll < 0.2:
            return rng.randrange(1 << n)  # often multi-bit
        return 1 << rng.randrange(n)

    return _compiled(
        n,
        [(rng.randrange(1 << n), head()) for _ in range(rng.randrange(4))],
        [rng.randrange(1 << n) for _ in range(rng.randrange(3))],
        rng.random() < 0.5,
    )


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


@st.composite
def table_cases(draw):
    data_bits = draw(st.integers(min_value=0, max_value=MAX_DATA_BITS))
    n = max(1, data_bits + draw(st.integers(0, MAX_EXTRA_BITS)))
    mask_sets = draw(
        st.lists(
            st.frozensets(
                st.integers(0, (1 << data_bits) - 1),
                max_size=2 * data_bits + 1,
            ),
            max_size=12,
        )
    )
    mask = st.integers(0, (1 << n) - 1)
    head = st.one_of(
        st.integers(0, n - 1).map(lambda h: 1 << h), st.just(0), mask
    )
    queries = draw(
        st.lists(
            st.builds(
                _compiled,
                st.just(n),
                st.lists(st.tuples(mask, head), max_size=3),
                st.lists(mask, max_size=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return mask_sets, queries


@given(table_cases())
def test_tabled_kernels_match_the_scan(case):
    mask_sets, queries = case
    _assert_match_scan(mask_sets, queries)


# ----------------------------------------------------------------------
# Seeded sweep: both sides of the admission rule, counted
# ----------------------------------------------------------------------


def test_seeded_sweep_covers_admitted_and_refused_data():
    rng = random.Random(1315)
    admitted = refused = 0
    for _ in range(600):
        data_bits = rng.randrange(MAX_DATA_BITS + 1)
        n = max(1, data_bits + rng.randrange(MAX_EXTRA_BITS + 1))
        # Sparse (at most one row per object) or dense relations.
        rows = rng.choice((1, 2 * data_bits + 1))
        mask_sets = [
            frozenset(
                rng.randrange(1 << data_bits)
                for _ in range(rng.randrange(rows + 1))
            )
            for _ in range(rng.randrange(13))
        ]
        queries = [_random_compiled(rng, n) for _ in range(3)]
        kernel = _assert_match_scan(mask_sets, queries)
        if kernel._zeta_bits >= 0:
            admitted += 1
        else:
            refused += 1
    assert admitted >= 150 and refused >= 150, (admitted, refused)


# ----------------------------------------------------------------------
# Pinned edge cases
# ----------------------------------------------------------------------


def test_sparse_wide_masks_build_no_tables():
    """A few objects with masks over 18 bits: a table would hold 2^18
    entries for 4 distinct masks, so the kernel refuses and scans."""
    mask_sets = [
        frozenset({1 << 17 | 1 << 3, 1 << 16}),
        frozenset({1 << 15 | 1 << 17}),
        frozenset({0b1011}),
    ]
    n = 20
    queries = [
        _compiled(n, [(1 << 17, 1 << 3)], [1 << 16], guarantees=True),
        _compiled(n, [(0, 1 << 17), (1 << 19, 1 << 2)], [1 << 18]),
        _compiled(n, [(1 << 15, 1 << 19)]),
        _compiled(n, existentials=[1 << 17]),
    ]
    kernel = _assert_match_scan(mask_sets, queries)
    assert kernel._zeta_bits == -1
    assert not kernel._tables


def test_dense_masks_build_tables():
    mask_sets = [frozenset({m, m ^ 0b1111}) for m in range(16)]
    queries = [
        _compiled(4, [(0b0011, 0b0100)], [0b1000], guarantees=True),
        _compiled(4, [(0b0001, 0b1000), (0, 0b0010)]),
    ]
    kernel = _assert_match_scan(mask_sets, queries)
    assert kernel._zeta_bits == 4
    # Z, and V_h for the heads x2, x3, x4.
    assert set(kernel._tables) == {0, 0b0010, 0b0100, 0b1000}


def test_query_bits_above_the_data_width():
    """Data masks over 3 bits, queries over 6: a body, a head and an
    existential each naming a bit no data mask carries."""
    rng = random.Random(6)
    mask_sets = [
        frozenset(rng.randrange(8) for _ in range(rng.randrange(1, 4)))
        for _ in range(20)
    ]
    queries = [
        _compiled(6, [(1 << 4, 1 << 1)], guarantees=guarantees)
        for guarantees in (False, True)
    ] + [
        _compiled(6, [(0b011, 1 << 5)], guarantees=guarantees)
        for guarantees in (False, True)
    ] + [
        _compiled(6, [(0b001, 0b010)], [1 << 3 | 1], guarantees=guarantees)
        for guarantees in (False, True)
    ]
    kernel = _assert_match_scan(mask_sets, queries)
    assert kernel._zeta_bits == 3
    # The head x6 never occurs in the data: its violators come from Z.
    assert set(kernel._tables) == {0, 0b010}


def test_multi_bit_head_falls_back_to_the_scan():
    mask_sets = [frozenset({m}) for m in range(8)]
    queries = [
        _compiled(3, [(0b001, 0b110)], guarantees=guarantees)
        for guarantees in (False, True)
    ]
    kernel = _assert_match_scan(mask_sets, queries)
    assert kernel._zeta_bits == 3
    assert not kernel._tables


def test_empty_index():
    """D = 0: no objects at all, and objects with no rows."""
    queries = [
        _compiled(2, [(0b01, 0b10)], guarantees=guarantees)
        for guarantees in (False, True)
    ] + [_compiled(2, existentials=[0])]
    for mask_sets in ([], [frozenset()] * 3):
        kernel = _assert_match_scan(mask_sets, queries)
        everyone = (1 << len(mask_sets)) - 1
        assert kernel.matching_bits(queries[0]) == everyone
        assert zeta_bits(0, 0, len(mask_sets)) == -1


def test_only_mask_zero():
    """One distinct mask, 0: a one-entry table."""
    mask_sets = [frozenset({0}), frozenset(), frozenset({0})]
    queries = [
        _compiled(2, [(0, 0b01)], guarantees=guarantees)
        for guarantees in (False, True)
    ] + [
        _compiled(2, [(0b10, 0b01)], [0], guarantees=True),
        _compiled(2, existentials=[0]),
        _compiled(2, existentials=[0b01]),
    ]
    kernel = _assert_match_scan(mask_sets, queries)
    assert kernel._zeta_bits == 0
    assert kernel.matching_bits(queries[0]) == 0b010
    assert kernel.matching_bits(queries[3]) == 0b101
