"""Permutations in one-line notation and the single-pass sorting operators.

A permutation of length n is a tuple of the values 1..n; positions are
1-based everywhere in the public interface.  A *word* is a tuple of pairwise
distinct integers that need not form an interval; standardizing a word
relabels it to the unique permutation with the same relative order.

The module-level helpers prefixed with an underscore operate on plain value
tuples so that exhaustive enumeration loops avoid object overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidInputError

Values = tuple[int, ...]


def as_word(letters: Iterable[int]) -> Values:
    """Return ``letters`` as a tuple, requiring pairwise distinct entries.

    >>> as_word([5, 3, 7])
    (5, 3, 7)
    """
    word = tuple(letters)
    if len(set(word)) != len(word):
        raise InvalidInputError(f"letters are not pairwise distinct: {word}")
    return word


def _standardize(letters: Sequence[int]) -> Values:
    rank = {v: r for r, v in enumerate(sorted(letters), 1)}
    return tuple(rank[v] for v in letters)


def _stack_sort(values: Values) -> Values:
    # One pass through a stack kept increasing from the top: before pushing x,
    # pop every element smaller than x.
    out: list[int] = []
    stack: list[int] = []
    for x in values:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def _bubble_sort(values: Values) -> Values:
    # One left-to-right pass of compare-and-swap on adjacent entries.
    vals = list(values)
    for i in range(len(vals) - 1):
        if vals[i] > vals[i + 1]:
            vals[i], vals[i + 1] = vals[i + 1], vals[i]
    return tuple(vals)


_OPERATORS: dict[str, Callable[[Values], Values]] = {
    "stack": _stack_sort,
    "bubble": _bubble_sort,
}

OPERATOR_IDS = tuple(sorted(_OPERATORS))


def operator_fn(op_id: str) -> Callable[[Values], Values]:
    """Look up a single-pass operator by identifier ('stack' or 'bubble')."""
    try:
        return _OPERATORS[op_id]
    except KeyError:
        raise InvalidInputError(
            f"unknown operator {op_id!r}; expected one of {', '.join(OPERATOR_IDS)}"
        ) from None


def _sort_power(op_id: str, k: int, values: Values) -> Values:
    fn = operator_fn(op_id)
    for _ in range(k):
        values = fn(values)
    return values


def _value_pairs(values: Values) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
    """(inversions, noninversions) as ordered value pairs (u, v), u before v."""
    inv = set()
    ninv = set()
    for i, u in enumerate(values):
        for v in values[i + 1 :]:
            (inv if u > v else ninv).add((u, v))
    return frozenset(inv), frozenset(ninv)


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of 1..n in one-line notation.

    Instances are immutable, hashable and ordered lexicographically by their
    value tuple.

    >>> Permutation((3, 2, 4, 1)).n
    4
    >>> Permutation.from_text("3241").value_at(3)
    4
    """

    values: Values

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        # A bool or a float equal to an int would pass the set comparison.
        if not set(map(type, vals)) <= {int} or set(vals) != set(range(1, len(vals) + 1)):
            raise InvalidInputError(f"not a permutation of 1..{len(vals)}: {vals!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return self.to_text()

    def value_at(self, position: int) -> int:
        """The value at a 1-based position."""
        if not 1 <= position <= len(self.values):
            raise InvalidInputError(f"position {position} outside 1..{len(self.values)}")
        return self.values[position - 1]

    def position_of(self, value: int) -> int:
        """The 1-based position of a value."""
        if not 1 <= value <= len(self.values):
            raise InvalidInputError(f"value {value} outside 1..{len(self.values)}")
        return self.values.index(value) + 1

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.values, 1))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 0:
            raise InvalidInputError(f"length must be nonnegative, got {n}")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse one-line notation: contiguous digits up to length 9
        (``3241``), comma-separated values beyond (``10,2,1,...``).

        >>> Permutation.from_text("3241").values
        (3, 2, 4, 1)
        """
        s = text.strip()
        if not s:
            raise InvalidInputError("empty permutation text")
        try:
            if "," in s:
                vals = tuple(int(part) for part in s.split(","))
            else:
                vals = tuple(int(ch) for ch in s)
        except ValueError:
            raise InvalidInputError(f"cannot parse permutation text {text!r}") from None
        return cls(vals)

    def to_text(self) -> str:
        """Inverse of :meth:`from_text`; digits for n <= 9, commas beyond."""
        if len(self.values) <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)


@dataclass(frozen=True)
class ValuePairSets:
    """The inversion and non-inversion tables of a permutation, both stored
    as ordered value pairs (u, v) with u appearing before v."""

    inversions: frozenset[tuple[int, int]]
    noninversions: frozenset[tuple[int, int]]


def standardize(word: Iterable[int]) -> Permutation:
    """Relabel a word of distinct integers to a permutation, preserving
    relative order.

    >>> standardize((5, 3, 7, 1)).values
    (3, 2, 4, 1)
    """
    return Permutation(_standardize(as_word(word)))


def stack_sort(pi: Permutation) -> Permutation:
    """One stack-sorting pass.

    >>> stack_sort(Permutation.from_text("231")).to_text()
    '213'
    """
    return Permutation(_stack_sort(pi.values))


def bubble_sort(pi: Permutation) -> Permutation:
    """One bubble-sorting pass.

    >>> bubble_sort(Permutation.from_text("521634")).to_text()
    '215346'
    """
    return Permutation(_bubble_sort(pi.values))


def sort_power(op_id: str, k: int, pi: Permutation) -> Permutation:
    """Apply the operator ``k`` times (``k = 0`` is the identity map)."""
    if k < 0:
        raise InvalidInputError(f"pass count must be nonnegative, got {k}")
    return Permutation(_sort_power(op_id, k, pi.values))


def inversion_tables(pi: Permutation) -> ValuePairSets:
    """Inversions and non-inversions of ``pi`` as ordered value pairs.

    >>> t = inversion_tables(Permutation.from_text("3241"))
    >>> sorted(t.noninversions)
    [(2, 4), (3, 4)]
    """
    inv, ninv = _value_pairs(pi.values)
    return ValuePairSets(inversions=inv, noninversions=ninv)


def pattern_of_values(pi: Permutation, values: Iterable[int]) -> Permutation:
    """Standardization of the subsequence of ``pi`` formed by ``values``.

    >>> pattern_of_values(Permutation.from_text("526413"), {2, 6, 4}).to_text()
    '132'
    """
    chosen = set(values)
    for v in chosen:
        if not 1 <= v <= pi.n:
            raise InvalidInputError(f"value {v} outside 1..{pi.n}")
    return Permutation(_standardize([v for v in pi.values if v in chosen]))
