"""Differential properties: the object-position bitset decoder.

:func:`~repro.data.index.flags_of` decodes an arbitrary-width ``int`` in
one ``to_bytes`` pass into a boolean flag array: the mask behind every
bitmask backend's ``execute`` gather, and, through ``.tolist()``, the
per-position labels of ``matches_many``.  It is pinned here against two
reference loops: lowest-set-bit peeling
(:func:`repro.core.tuples.variables_of`) and the per-position shift
``bits >> i & 1``.  Counts 7/8/9 straddle a byte, 63/64/65 a word.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tuples as bt
from repro.data.index import flags_of

EDGE_COUNTS = (0, 1, 7, 8, 9, 63, 64, 65)


def _assert_decodes(bits: int, count: int) -> None:
    flags = flags_of(bits, count)
    assert flags.dtype == np.bool_
    assert flags.shape == (count,)
    assert np.flatnonzero(flags).tolist() == list(bt.variables_of(bits))
    labels = flags.tolist()
    assert labels == [bool(bits >> i & 1) for i in range(count)]
    assert all(type(label) is bool for label in labels)


def test_decoders_on_empty_full_and_top_only_bitsets():
    for count in EDGE_COUNTS:
        shapes = {0, (1 << count) - 1}
        if count:
            shapes.add(1 << (count - 1))
        for bits in sorted(shapes):
            _assert_decodes(bits, count)


@st.composite
def bitsets(draw) -> tuple[int, int]:
    count = draw(
        st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 3000))
    )
    bits = draw(st.integers(min_value=0, max_value=(1 << count) - 1))
    return bits, count


@given(bitsets())
@settings(max_examples=300, deadline=None)
def test_decoders_agree_with_reference_loops(case):
    bits, count = case
    _assert_decodes(bits, count)
