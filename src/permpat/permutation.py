"""Permutations in one-line notation and the single-pass sorting operators.

A permutation of length n is a tuple of the values 1..n; positions are
1-based everywhere in the public interface.  A *word* is a tuple of pairwise
distinct integers that need not form an interval; standardizing a word
relabels it to the unique permutation with the same relative order.

The module-level helpers prefixed with an underscore operate on plain value
tuples so that exhaustive enumeration loops avoid object overhead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidInputError

Values = tuple[int, ...]

# int() alone would also read other Unicode digits, a sign, and underscores
# between digits; text that passes this reads as ASCII digits only.
_TEXT_RE = re.compile(r"[0-9,\s]+")


def as_word(letters: Iterable[int]) -> Values:
    """Return ``letters`` as a tuple, requiring pairwise distinct integers.

    >>> as_word([5, 3, 7])
    (5, 3, 7)
    """
    word = tuple(letters)
    # By the rule of Permutation: a bool or a float is not a letter, and an
    # unhashable letter must not reach the set below.
    if not set(map(type, word)) <= {int}:
        raise InvalidInputError(f"letters are not all integers: {word!r}")
    if len(set(word)) != len(word):
        raise InvalidInputError(f"letters are not pairwise distinct: {word}")
    return word


def _check_permutation(values: Values) -> None:
    """Refuse ``values`` unless they are ints forming 1..k."""
    # A bool or a float equal to an int would pass the set comparison.
    if not set(map(type, values)) <= {int} or set(values) != set(range(1, len(values) + 1)):
        raise InvalidInputError(f"not a permutation of 1..{len(values)}: {values!r}")


def _values_text(values: Values) -> str:
    """One-line notation: digits for length <= 9, commas beyond."""
    return ("" if len(values) <= 9 else ",").join(map(str, values))


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
    # Pass i of either operator leaves the i largest values in place at the
    # end, so n - 1 passes sort, and no later pass moves anything.
    fn = operator_fn(op_id)
    for _ in range(min(k, len(values) - 1)):
        values = fn(values)
    return values


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of 1..n in one-line notation.

    Instances are immutable, hashable and ordered lexicographically by their
    value tuple.

    >>> Permutation((3, 2, 4, 1)).n
    4
    """

    values: Values

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        _check_permutation(vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return self.to_text()

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
            if not _TEXT_RE.fullmatch(s):
                raise ValueError(s)
            vals = tuple(map(int, s.split(",") if "," in s else s))
        except ValueError:
            raise InvalidInputError(f"cannot parse permutation text {text!r}") from None
        return cls(vals)

    def to_text(self) -> str:
        """Inverse of :meth:`from_text`; digits for n <= 9, commas beyond."""
        return _values_text(self.values)


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
