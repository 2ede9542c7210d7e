"""Property-based tests: bitmask tuples and lattice invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tuples as bt
from repro.lattice import children, downset, level, parents, upset

from tests.properties.strategies import boolean_tuples


@given(boolean_tuples())
def test_format_parse_roundtrip(pair):
    n, t = pair
    assert bt.parse_tuple(bt.format_tuple(t, n)) == t


def _format_by_loop(t, n):
    """The bit-by-bit formatter the int formatting replaced."""
    return "".join("1" if t & (1 << i) else "0" for i in range(n))


def _parse_by_loop(text):
    """The character-by-character parser ``int(..., 2)`` replaced."""
    mask = 0
    for i, ch in enumerate(text.strip()):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid tuple character {ch!r} in {text!r}")
    return mask


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as error:
        return ("ValueError", str(error))


@settings(max_examples=1000)
@given(
    st.integers(min_value=-(1 << 80), max_value=1 << 80),
    st.integers(min_value=0, max_value=70),
    # Digits, then what int() would take and the loop rejects: "_",
    # signs, whitespace, other bases' digits, non-ASCII digits.
    st.text(alphabet=st.sampled_from("0101 _+-\t\n2x\u0661\u00a0"), max_size=12),
)
def test_int_formatting_matches_the_loops(t, n, text):
    """Bits at or above n are ignored (negative ints included), "" is 0,
    and a character other than 0/1 inside the stripped text is the same
    ValueError as before."""
    assert bt.format_tuple(t, n) == _format_by_loop(t, n)
    assert _outcome(bt.parse_tuple, text) == _outcome(_parse_by_loop, text)


@pytest.mark.parametrize("text", ["1_0", "+10", "-1", " 1 0", "12", "\u0661"])
def test_parse_rejects_what_int_accepts(text):
    with pytest.raises(ValueError, match="invalid tuple character"):
        bt.parse_tuple(text)


@given(boolean_tuples())
def test_true_false_sets_partition(pair):
    n, t = pair
    ts, fs = bt.true_set(t), bt.false_set(t, n)
    assert ts | fs == set(range(n))
    assert not ts & fs


@given(boolean_tuples())
def test_with_false_then_true_restores(pair):
    n, t = pair
    vs = list(bt.true_set(t))
    assert bt.with_true(bt.with_false(t, vs), vs) == t


@given(boolean_tuples(), boolean_tuples())
def test_is_subset_antisymmetry(p1, p2):
    _, a = p1
    _, b = p2
    if bt.is_subset(a, b) and bt.is_subset(b, a):
        assert a == b


@given(boolean_tuples())
def test_children_are_one_level_down(pair):
    n, t = pair
    for c in children(t, n):
        assert level(c, n) == level(t, n) + 1
        assert bt.is_subset(c, t)


@given(boolean_tuples())
def test_parents_are_one_level_up(pair):
    n, t = pair
    for p in parents(t, n):
        assert level(p, n) == level(t, n) - 1
        assert bt.is_subset(t, p)


@given(boolean_tuples())
@settings(max_examples=40)
def test_downset_upset_duality(pair):
    n, t = pair
    if n > 6:
        return  # keep set sizes small
    for d in downset(t, n):
        assert t in set(upset(d, n))


@given(boolean_tuples())
@settings(max_examples=40)
def test_upset_downset_sizes_multiply(pair):
    n, t = pair
    if n > 6:
        return
    k = bt.popcount(t)
    assert len(set(downset(t, n))) == 2**k
    assert len(set(upset(t, n))) == 2 ** (n - k)


@given(boolean_tuples())
def test_popcount_matches_true_set(pair):
    _, t = pair
    assert bt.popcount(t) == len(bt.true_set(t))
