"""Boolean tuples and membership questions (the Boolean domain of §2).

The paper abstracts data tuples into Boolean tuples: given ``n`` propositions
``p1..pn`` over the embedded relation, each data tuple maps to a vector of
``n`` truth values (Fig. 1).  An *object* (a set of data tuples) maps to a set
of Boolean tuples, and a *membership question* is exactly such a set,
presented to the user for an answer / non-answer label (§2.1.2).

We represent a Boolean tuple over ``n`` variables as an ``int`` bitmask where
bit ``i`` (LSB = bit 0) holds the truth value of variable ``x_{i+1}``.  The
paper writes tuples as strings such as ``1011`` with ``x1`` leftmost; the
helpers here follow that convention for parsing and formatting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import FrozenSet

__all__ = [
    "MAX_VARIABLES",
    "all_true",
    "mask_of",
    "variables_of",
    "true_set",
    "false_set",
    "with_false",
    "with_true",
    "parse_tuple",
    "format_tuple",
    "popcount",
    "is_subset",
    "union_masks",
    "Question",
]

#: Upper limit on variable count; bitmasks stay fast far beyond this but the
#: paper's algorithms are only ever exercised on double-digit ``n``.
MAX_VARIABLES = 256


def _check_n(n: int) -> None:
    if not 0 < n <= MAX_VARIABLES:
        raise ValueError(f"variable count must be in 1..{MAX_VARIABLES}, got {n}")


def all_true(n: int) -> int:
    """The tuple ``1^n`` where every variable is true."""
    _check_n(n)
    return (1 << n) - 1


def mask_of(variables: Iterable[int]) -> int:
    """Bitmask with the given 0-based variable indices set."""
    mask = 0
    for v in variables:
        mask |= 1 << v
    return mask


def variables_of(mask: int) -> Iterator[int]:
    """Yield the 0-based indices of set bits, ascending.

    Every step copies ``mask``, so this suits variable masks (at most
    :data:`MAX_VARIABLES` bits); object-position bitsets decode with
    :func:`repro.data.index.flags_of`.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def true_set(t: int) -> frozenset[int]:
    """The set of variables that are true in tuple ``t``."""
    return frozenset(variables_of(t))


def false_set(t: int, n: int) -> frozenset[int]:
    """The set of variables that are false in tuple ``t`` (of width ``n``)."""
    return frozenset(variables_of(all_true(n) & ~t))


def with_false(t: int, variables: Iterable[int]) -> int:
    """Copy of ``t`` with the given variables forced false."""
    return t & ~mask_of(variables)


def with_true(t: int, variables: Iterable[int]) -> int:
    """Copy of ``t`` with the given variables forced true."""
    return t | mask_of(variables)


#: Deletes the tuple digits, leaving only the characters a tuple string
#: may not hold.
_STRAY = str.maketrans("", "", "01")


def parse_tuple(text: str) -> int:
    """Parse the paper's string form, e.g. ``"1011"`` (``x1`` leftmost)."""
    bits = text.strip()
    # int() also takes "_", signs, whitespace and non-ASCII digits: only
    # "0" and "1" may reach it.
    stray = bits.translate(_STRAY)
    if stray:
        raise ValueError(f"invalid tuple character {stray[0]!r} in {text!r}")
    return int(bits[::-1], 2) if bits else 0


def format_tuple(t: int, n: int) -> str:
    """Format a tuple the way the paper prints it (``x1`` leftmost);
    bits at or above ``n`` are ignored."""
    return format(t & ((1 << n) - 1), f"0{n}b")[::-1] if n > 0 else ""


def popcount(mask: int) -> int:
    """Number of true variables in the tuple."""
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    """True iff every variable true in ``a`` is true in ``b``."""
    return a & ~b == 0


def union_masks(masks: Iterable[int]) -> int:
    """OR together a collection of bitmasks (empty iterable gives ``0``).

    Used both for variable tuples and for the arbitrary-width
    object-position bitsets of the batch evaluation engine.
    """
    out = 0
    for m in masks:
        out |= m
    return out


@dataclass(frozen=True)
class Question:
    """A membership question: a set of Boolean tuples over ``n`` variables.

    The user classifies the whole set as an *answer* (``True``) or a
    *non-answer* (``False``) for their intended query (§2.1.2).  Questions are
    immutable and hashable so oracles can memoise responses.
    """

    n: int
    tuples: FrozenSet[int]

    def __post_init__(self) -> None:
        _check_n(self.n)
        top = all_true(self.n)
        for t in self.tuples:
            if t & ~top:
                raise ValueError(
                    f"tuple {t:#x} uses variables beyond n={self.n}"
                )
        # Questions key every oracle-side dict (response caches, batch
        # dedup); precomputing the hash keeps those lookups O(1) instead
        # of re-hashing the tuple set on every probe.
        object.__setattr__(self, "_hash", hash((self.n, self.tuples)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, n: int, tuples: Iterable[int]) -> "Question":
        """Build a question from any iterable of bitmask tuples."""
        return cls(n=n, tuples=frozenset(tuples))

    @classmethod
    def from_strings(cls, *rows: str) -> "Question":
        """Build a question from paper-style strings, e.g. ``("1011","1110")``."""
        if not rows:
            raise ValueError("a question needs at least one tuple string")
        widths = {len(r.strip()) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"tuple strings have differing widths: {widths}")
        (n,) = widths
        return cls(n=n, tuples=frozenset(parse_tuple(r) for r in rows))

    @property
    def size(self) -> int:
        """Number of tuples shown to the user."""
        return len(self.tuples)

    def sorted_tuples(self) -> list[int]:
        """Tuples in descending popcount (paper's presentation order)."""
        return sorted(self.tuples, key=lambda t: (-popcount(t), t))

    def format(self) -> str:
        """Multi-line paper-style rendering of the question."""
        return "\n".join(format_tuple(t, self.n) for t in self.sorted_tuples())

    def __iter__(self) -> Iterator[int]:
        return iter(self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, t: int) -> bool:
        return t in self.tuples

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rows = ",".join(format_tuple(t, self.n) for t in self.sorted_tuples())
        return f"Question(n={self.n}, {{{rows}}})"
