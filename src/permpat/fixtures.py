"""Built-in pattern bases for the classical sorting characterizations.

Available names:

* ``west2`` -- basis of the West-2-stack-sortable permutations (two stack
  passes sort); classical 2341 plus one mesh pattern on 3241.
* ``west3`` -- basis of the West-3-stack-sortable permutations (three stack
  passes sort); six mesh patterns of length 5 and four decorated patterns
  of lengths 6 and 7, each decorated pattern watching one region for the
  pattern 12.
* ``bubble1243`` -- basis of the bubble-sort preimage of Av(1243).
* ``stack_len3_P`` for each length-3 permutation P -- basis of the
  stack-sort preimage of Av(P), in shaded-and-marked form.

``FIXTURES`` pairs each name with its operator, pass count, target
patterns and basis.  Each basis is exact for all lengths: avoidance of the
basis is equivalent to the sorted image avoiding the target patterns.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .patterns import Pattern, canonical, classical, decorated, marked, mesh

WEST2: tuple[Pattern, ...] = (
    classical("2341"),
    mesh("3241", {(1, 4)}),
)


def _watched(perm: str, empty_boxes: set[tuple[int, int]], watch_box: tuple[int, int]) -> Pattern:
    # Empty boxes are decorations avoiding 1; the watched box must avoid 12,
    # i.e. hold no increasing pair.
    return decorated(perm, [(empty_boxes, "1"), ({watch_box}, "12")])


WEST3: tuple[Pattern, ...] = (
    classical("23451"),
    mesh("24351", {(2, 4), (2, 5)}),
    mesh("32451", {(1, 3), (1, 4), (1, 5)}),
    mesh("34251", {(1, 3), (1, 4), (1, 5), (2, 4), (2, 5)}),
    mesh("42351", {(1, 4), (1, 5), (2, 4), (2, 5)}),
    mesh("43251", {(1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}),
    _watched(
        "362451",
        {(0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6)},
        (2, 5),
    ),
    _watched(
        "364251",
        {(0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6), (3, 4), (3, 5), (3, 6)},
        (2, 5),
    ),
    _watched(
        "7362451",
        {(1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7)},
        (3, 5),
    ),
    _watched(
        "7364251",
        {(1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7),
         (4, 4), (4, 5), (4, 6), (4, 7)},
        (3, 5),
    ),
)

BUBBLE_1243: tuple[Pattern, ...] = (
    marked("1243", marks=[{(0, 4), (1, 4), (2, 4), (3, 4)}]),
    marked("1423", {(0, 4), (1, 4), (2, 4)}, [{(3, 4)}]),
    marked("2143", {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)}, [{(2, 4), (3, 4)}]),
    marked("4123", {(0, 4), (1, 4), (2, 4)}, [{(3, 4)}]),
)

STACK_LEN3: dict[str, tuple[Pattern, ...]] = {
    "123": (
        classical("123"),
        mesh("132", {(2, 3)}),
        mesh("213", {(1, 2), (1, 3)}),
        mesh("312", {(1, 3), (2, 3)}),
        mesh("321", {(1, 3), (2, 2), (2, 3)}),
    ),
    "132": (
        marked("132", marks=[{(2, 3)}]),
        marked("312", {(1, 3)}, [{(2, 3)}]),
    ),
    "213": (
        marked("213", marks=[{(1, 2), (1, 3)}]),
        mesh("231", {(2, 3)}),
        marked("321", {(1, 3), (2, 3)}, [{(2, 2)}]),
    ),
    "231": (
        marked("231", marks=[{(2, 3)}]),
        marked("321", {(1, 3)}, [{(2, 3)}]),
    ),
    "312": (
        marked("312", marks=[{(1, 3)}]),
        marked("321", {(2, 2), (2, 3)}, [{(1, 3)}]),
    ),
    "321": (
        marked("321", marks=[{(1, 3)}, {(2, 2), (2, 3)}]),
    ),
}

# name -> (operator, passes, target patterns, basis in canonical order).
FIXTURES: dict[str, tuple[str, int, tuple[Pattern, ...], tuple[Pattern, ...]]] = {
    "west2": ("stack", 2, (classical("21"),), canonical(WEST2)),
    "west3": ("stack", 3, (classical("21"),), canonical(WEST3)),
    "bubble1243": ("bubble", 1, (classical("1243"),), canonical(BUBBLE_1243)),
    **{f"stack_len3_{p}": ("stack", 1, (classical(p),), canonical(pats)) for p, pats in STACK_LEN3.items()},
}

FIXTURE_NAMES: tuple[str, ...] = tuple(sorted(FIXTURES))


def builtin_basis(name: str) -> tuple[Pattern, ...]:
    """Look up a built-in basis by name, in canonical pattern order."""
    try:
        return FIXTURES[name][3]
    except KeyError:
        raise InvalidInputError(
            f"unknown basis {name!r}; expected one of {', '.join(FIXTURE_NAMES)}"
        ) from None
