"""Pattern types and the occurrence engine.

Five pattern kinds share one type, and a pattern's parts decide its kind:

* ``classical``  -- an order pattern, nothing else;
* ``mesh``       -- classical plus shaded boxes that must stay empty;
* ``marked``     -- mesh plus marked regions that must hold enough points;
* ``barred``     -- classical with barred letters; an occurrence of the
                    unbarred part counts only if it extends to no occurrence
                    of the whole pattern;
* ``decorated``  -- classical plus regions whose contents must avoid a
                    further pattern.  A shaded box is the special case of a
                    region avoiding the pattern 1, so decorated patterns
                    carry no shading of their own.

Boxes are addressed by their lower-left corner: box (i, j) of a pattern of
length k is the unit square with corners (i, j) and (i+1, j+1), with (0, 0)
at the bottom left of the grid, so both coordinates range over 0..k.

An occurrence of a length-k pattern in a permutation of length n is a pair
of order-preserving injections alpha (columns) and beta (rows) from 1..k
into 1..n under which the pattern's point diagram lands on points of the
permutation.  Box (i, j) then instantiates to the rectangle

    [alpha(i)+1, alpha(i+1)-1] x [beta(j)+1, beta(j+1)-1]

with alpha(0) = beta(0) = 0 and alpha(k+1) = beta(k+1) = n+1.

One search is compiled and cached per tuple of patterns and per action
(``_search``), in two steps.  Lowering (:func:`_lower`) turns each pattern
into trie paths of letters, shaded boxes, marks and decorations.  Emission
writes the paths of the tuple as one function of nested loops over the
host's values, shared among the patterns like a trie, whose leaves test
each path's boxes by filtered slices of the host's values.  A single
pattern is the tuple of one.  The search that lists occurrences yields
each occurrence's whole record, (alpha, beta, omega), written out from its
loop variables, and :func:`occurrences` turns the records into
:class:`Occurrence` objects without running Python code per record.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InvalidInputError, InvalidInsertionError, UnsupportedPatternError
from .permutation import Permutation, Values, _check_permutation, _standardize


class Box(NamedTuple):
    col: int
    row: int


BoxLike = Union[Box, tuple[int, int]]
Region = tuple[Box, ...]


def _box_pairs(boxes: Iterable[BoxLike]) -> set[tuple[int, int]]:
    """The distinct boxes of ``boxes`` as plain ``(c, r)`` tuples, refused
    unless each is a pair of ints."""
    region = set()
    for box in boxes:
        try:
            c, r = box
        except (TypeError, ValueError):
            raise InvalidInputError(f"a box must be a (col, row) pair, got {box!r}") from None
        region.add((c, r))
    # A bool is an int to Python and would print as True or False.
    if not {type(x) for box in region for x in box} <= {int}:
        raise InvalidInputError(f"box coordinates must be integers, got {region}")
    return region


# Box(c, r) is tuple.__new__(Box, (c, r)); called on a checked pair, this
# builds the same box in C.
_box = functools.partial(tuple.__new__, Box)


def as_boxes(boxes: Iterable[BoxLike]) -> Region:
    """Normalize a collection of (col, row) pairs to a sorted tuple of boxes."""
    return tuple(sorted(map(_box, _box_pairs(boxes))))


def _check_boxes(boxes: Iterable[Box], k: int, what: str) -> None:
    for c, r in boxes:
        if not (0 <= c <= k and 0 <= r <= k):
            raise InvalidInputError(f"{what} box {(c, r)} outside grid 0..{k}")


@dataclass(frozen=True)
class Mark:
    """A region (nonempty set of boxes) required to hold at least
    ``min_count`` points of the host permutation."""

    region: Region
    min_count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", as_boxes(self.region))
        if not self.region:
            raise InvalidInputError("mark region is empty")
        if type(self.min_count) is not int or self.min_count < 1:
            raise InvalidInputError(f"mark min_count must be an integer >= 1, got {self.min_count!r}")

    def sort_key(self) -> tuple:
        return (self.region, self.min_count)


# The most levels a pattern may nest decorations within decorations.
# Comparing two equal patterns recurses through every level, at about 7 of
# CPython 3.11's default limit of 1,000 frames each, so 50 levels take some
# 350 and leave the rest to the caller's own stack; 120 levels already
# failed ``==`` when called from 200 frames deep.
_MAX_NESTING = 50


def _nesting(pat: "Pattern") -> int:
    """How many levels of decorations ``pat`` nests: 0 without any."""
    return max((1 + _nesting(d.avoid) for d in pat.decorations), default=0)


@dataclass(frozen=True)
class Decoration:
    """A region whose contents, read as a subpermutation, must avoid
    ``avoid``.  Only classical and decorated avoid-patterns are accepted;
    the geometry of shaded or marked boxes inside a scattered region is not
    defined here.  A pattern nests at most ``_MAX_NESTING`` levels of
    decorations."""

    region: Region
    avoid: "Pattern"

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", as_boxes(self.region))
        if not self.region:
            raise InvalidInputError("decoration region is empty")
        if not isinstance(self.avoid, Pattern):
            raise InvalidInputError(f"decoration avoid-pattern must be a Pattern, got {self.avoid!r}")
        if self.avoid.kind not in ("classical", "decorated"):
            raise UnsupportedPatternError(
                f"decoration avoid-pattern must be classical or decorated, got {self.avoid.kind}"
            )
        if _nesting(self.avoid) >= _MAX_NESTING:
            raise UnsupportedPatternError(
                f"decorations nested too deeply: at most {_MAX_NESTING} levels are supported"
            )

    def sort_key(self) -> tuple:
        return (self.region, pattern_sort_key(self.avoid))


KINDS = ("classical", "mesh", "marked", "barred", "decorated")
_KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Pattern:
    """A pattern, whose parts decide its ``kind``: barred if it has barred
    positions, else decorated if it has decorations, else marked if it has
    marks, else mesh if it has shading, else classical.  Bars stand alone,
    decorations exclude shading and marks, and marks stay off the shading.

    Construction normalizes every component (sorted, deduplicated tuples),
    so two patterns are syntactically equal exactly when they compare equal.
    A part left at its default ``()`` is already normal and is not read.
    """

    perm: Permutation
    shade: Region = ()
    marks: tuple[Mark, ...] = ()
    decorations: tuple[Decoration, ...] = ()
    barred_positions: tuple[int, ...] = ()
    kind: str = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.perm, Permutation):
            raise InvalidInputError(f"a pattern's perm must be a Permutation, got {self.perm!r}")
        k = len(self.perm.values)
        shade = marks = decorations = bars = ()
        if self.shade != ():
            shade = as_boxes(self.shade)
            object.__setattr__(self, "shade", shade)
        if self.marks != ():
            marks = tuple(sorted(set(self.marks), key=Mark.sort_key))
            object.__setattr__(self, "marks", marks)
        if self.decorations != ():
            decorations = tuple(sorted(set(self.decorations), key=Decoration.sort_key))
            object.__setattr__(self, "decorations", decorations)
        if self.barred_positions != ():
            bars = set(self.barred_positions)
            if not set(map(type, bars)) <= {int}:
                raise InvalidInputError(f"barred positions must be integers, got {self.barred_positions!r}")
            bars = tuple(sorted(bars))
            object.__setattr__(self, "barred_positions", bars)
            if bars and (shade or marks or decorations):
                raise InvalidInputError("barred patterns carry only barred positions")
            if not all(1 <= b <= k for b in bars):
                raise InvalidInputError(f"barred positions {bars} outside 1..{k}")
        if decorations and (shade or marks):
            raise InvalidInputError("decorated patterns carry only decorations")
        _check_boxes(shade, k, "shaded")
        for m in marks:
            _check_boxes(m.region, k, "marked")
            if not set(m.region).isdisjoint(shade):
                raise InvalidInputError(f"mark region {m.region} overlaps the shading")
        for d in decorations:
            _check_boxes(d.region, k, "decorated")
        kind = ("barred" if bars else "decorated" if decorations else "marked" if marks
                else "mesh" if shade else "classical")
        object.__setattr__(self, "kind", kind)

    def __len__(self) -> int:
        return len(self.perm)


PermLike = Union[Permutation, str, Sequence[int]]


def _as_perm(perm: PermLike) -> Permutation:
    if isinstance(perm, Permutation):
        return perm
    if isinstance(perm, str):
        return Permutation.from_text(perm)
    return Permutation(tuple(perm))


def classical(perm: PermLike) -> Pattern:
    """A classical pattern.

    >>> classical("231").perm.values
    (2, 3, 1)
    """
    return Pattern(_as_perm(perm))


def mesh(perm: PermLike, shade: Iterable[BoxLike] = ()) -> Pattern:
    """A mesh pattern with the given shaded boxes."""
    return Pattern(_as_perm(perm), shade)


def _as_mark(item) -> Mark:
    if isinstance(item, Mark):
        return item
    if (
        isinstance(item, tuple)
        and len(item) == 2
        and isinstance(item[1], int)
        and not isinstance(item[0], int)
    ):
        return Mark(item[0], item[1])
    return Mark(item)


def marked(perm: PermLike, shade: Iterable[BoxLike] = (), marks: Iterable = ()) -> Pattern:
    """A marked mesh pattern.  Each element of ``marks`` may be a
    :class:`Mark`, a bare region, or a ``(region, min_count)`` pair.

    >>> p = marked("21", marks=[{(1, 2)}])
    >>> p.marks[0].region
    (Box(col=1, row=2),)
    """
    return Pattern(_as_perm(perm), shade, tuple(_as_mark(m) for m in marks))


def _as_decoration(item) -> Decoration:
    if isinstance(item, Decoration):
        return item
    region, avoid = item
    if not isinstance(avoid, Pattern):
        avoid = classical(avoid)
    return Decoration(region, avoid)


def decorated(perm: PermLike, decorations: Iterable) -> Pattern:
    """A decorated pattern.  Each element of ``decorations`` may be a
    :class:`Decoration` or a ``(region, avoid)`` pair, where ``avoid`` is a
    pattern or anything :func:`classical` accepts."""
    return Pattern(_as_perm(perm), decorations=tuple(_as_decoration(d) for d in decorations))


def barred(perm: PermLike, positions: Iterable[int]) -> Pattern:
    """A barred pattern; ``positions`` are the 1-based barred positions."""
    pat = Pattern(_as_perm(perm), barred_positions=tuple(positions))
    if not pat.barred_positions:
        raise InvalidInputError("barred pattern without barred positions")
    return pat


def pattern_sort_key(pat: Pattern) -> tuple:
    """A total order on patterns: by length, underlying permutation, kind,
    then components.  Used wherever a deterministic pattern order is needed."""
    return (
        len(pat.perm),
        pat.perm.values,
        _KIND_RANK[pat.kind],
        pat.shade,
        tuple(map(Mark.sort_key, pat.marks)),
        tuple(map(Decoration.sort_key, pat.decorations)),
        pat.barred_positions,
    )


def canonical(patterns: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """The distinct patterns of ``patterns`` in :func:`pattern_sort_key` order.

    >>> [p.perm.to_text() for p in canonical(classical(w) for w in ["231", "12", "231", "1"])]
    ['1', '12', '231']
    """
    return tuple(sorted(set(patterns), key=pattern_sort_key))


def _plain(pat: Pattern, action: str) -> tuple:
    """``pat`` as the plain ``(values, shade, marks)`` triple of :func:`_insert`."""
    if pat.kind not in ("classical", "mesh", "marked"):
        raise UnsupportedPatternError(f"cannot {action} a {pat.kind} pattern")
    return pat.perm.values, frozenset(pat.shade), tuple((frozenset(m.region), m.min_count) for m in pat.marks)


def _insert(values: Values, shade: frozenset, marks: tuple, box: tuple[int, int]) -> tuple:
    """Insert a point into ``box`` of a plain pattern, whose marks are
    ``(region, min_count)`` pairs, and return the grown plain pattern: the
    point takes column ``col + 1`` and value ``row + 1``, boxes on its
    column or row split in two, and it counts once towards every mark whose
    region holds the box; a mark whose count reaches 0 goes."""
    col, row = box

    def split(boxes) -> frozenset:
        out = []
        for c, r in boxes:
            c2, r2 = c + (c > col), r + (r > row)
            out.append((c2, r2))
            if c == col:
                out.append((c2 + 1, r2))
                if r == row:
                    out += (c2, r2 + 1), (c2 + 1, r2 + 1)
            elif r == row:
                out.append((c2, r2 + 1))
        return frozenset(out)

    grown = []
    for region, count in marks:
        count -= box in region
        if count:
            grown.append((split(region), count))
    shifted = [v + 1 if v > row else v for v in values]
    shifted.insert(col, row + 1)
    return tuple(shifted), split(shade), tuple(grown)


def _expansions(plains: Iterable[tuple], cap: int | None = None) -> list[tuple[Values, list]] | None:
    """The plain ``(values, shade)`` pairs of the distinct finished
    expansions of all the plain triples ``plains`` (:func:`_plain`), each
    shade as a sorted list, in the plain order of :func:`pattern_sort_key`;
    or None once there are more than ``cap``.  While marks are left, branch on every
    box of the least mark by sorted region, inserting a witness there
    (:func:`_insert`); branches that finish equal count once.  A mark of c
    points has at least c! expansions, its witnesses' orders in one box, so
    a triple with such a mark over ``cap`` is refused before any insertion."""
    todo = list(plains)
    if cap is not None and any(math.factorial(min(count, cap + 1)) > cap
                               for _, _, marks in todo for _, count in marks):
        return None
    found = set()
    while todo:
        values, shade, marks = todo.pop()
        if marks:
            region = marks[0][0] if len(marks) == 1 else min(marks, key=lambda m: (sorted(m[0]), m[1]))[0]
            todo.extend(_insert(values, shade, marks, b) for b in region)
            continue
        found.add((values, shade))
        if cap is not None and len(found) > cap:
            return None
    # For peak memory on long outputs: the set and its frozensets are freed
    # before each sort key is replaced by its pair in place, so neither the
    # set nor a second list is held beside the pairs.
    pairs = sorted([(len(v), v, bool(s), sorted(s)) for v, s in found])
    del found
    for i, (_, values, _, shade) in enumerate(pairs):
        pairs[i] = values, shade
    return pairs


def _pattern(values: Values, shade: Iterable[BoxLike], marks: tuple = ()) -> Pattern:
    """The pattern of a plain triple, checked as every pattern is."""
    return Pattern(Permutation(values), shade, tuple(Mark(region, count) for region, count in marks))


def _mesh_patterns(pairs: Iterable[tuple[Values, list]]) -> tuple[Pattern, ...]:
    """The plain ``(values, shade)`` pairs of :func:`_expansions` as
    patterns, in order, each built once."""
    return tuple(itertools.starmap(_pattern, pairs))


def _mesh_pairs(pairs: Iterable[tuple[Values, list]]) -> Iterator[tuple[Values, list]]:
    """The plain ``(values, shade)`` pairs of :func:`_expansions`, in
    order, each refused as ``Pattern(Permutation(values), shade)`` would
    refuse it, by the same checks, with no object built."""
    for values, shade in pairs:
        _check_permutation(values)
        _check_boxes(_box_pairs(shade), len(values), "shaded")
        yield values, shade


def insert_point(pat: Pattern, box: BoxLike) -> Pattern:
    """Insert an explicit point into a box by the rule of :func:`_insert`,
    after checking that the box lies in the grid and is not shaded.

    >>> p = insert_point(marked("2341", marks=[{(3, 4)}]), (3, 4))
    >>> p.kind, str(p.perm)
    ('classical', '23451')
    """
    (box,) = as_boxes([box])
    values, shade, marks = _plain(pat, "insert a point into")
    k = len(values)
    if not (0 <= box.col <= k and 0 <= box.row <= k):
        raise InvalidInsertionError(f"box {tuple(box)} outside grid 0..{k}")
    if box in shade:
        raise InvalidInsertionError(f"box {tuple(box)} is shaded")
    return _pattern(*_insert(values, shade, marks, box))


def expand_basis(basis: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Replace each marked pattern of a basis by its expansions
    (:func:`_expansions`), the mesh patterns containment in some of which
    equals containment in it, and return the union, sorted once.

    >>> [str(p.perm) for p in expand_basis([marked("21", marks=[{(1, 2)}])])]
    ['231']
    """
    return _mesh_patterns(_expansions(_plain(pat, "expand") for pat in basis))


class Occurrence(NamedTuple):
    """An occurrence: ``alpha`` are the 1-based chosen positions, ``beta``
    the chosen values in increasing order, and ``omega`` the chosen points
    as (position, value) pairs ordered by position, as the engine yields
    them.  Occurrences compare by ``alpha``, the order in which
    :func:`occurrences` reports them."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    omega: tuple[tuple[int, int], ...]


# An Occurrence from an (alpha, beta, omega) triple as the engine yields it,
# built in C with nothing rechecked.
_occurrence = functools.partial(tuple.__new__, Occurrence)


class Diagram:
    """A host permutation's point set, with a two-dimensional prefix-count
    table giving rectangle point counts in constant time.

    No search reads it: box and mark tests read column slices of the host's
    values.  It stays because the benchmark's layer probe
    ``patterns.prefix_us`` times ``Diagram(values).prefix()``, and goes with
    the benchmark change that retires that probe."""

    def __init__(self, values: Sequence[int]):
        self.values: Values = tuple(values)

    def prefix(self) -> list[list[int]]:
        """prefix()[i][j] counts points (x, y) with x <= i and y <= j."""
        rows = [[0] * (len(self.values) + 1)]
        for v in self.values:
            prev = rows[-1]
            rows.append(prev[:v] + [c + 1 for c in prev[v:]])
        return rows


_POINT = Pattern(Permutation((1,)))

# CPython compiles at most 20 statically nested blocks in one function; a
# search nested deeper continues in a helper function.
_MAX_LOOPS = 20

class _Node:
    """A trie node of a compiled search: the ``(condition, hit)`` pair of
    each path whose letters are all placed here, the loops that place the
    next letter, keyed on (depth, column range) and then on the value test,
    and the bits of every pattern with a path below."""

    __slots__ = ("leaves", "loops", "bits")

    def __init__(self, bits: int = 0) -> None:
        self.leaves: list[tuple[str, list[str]]] = []
        self.loops: dict[tuple[int, str], dict[str, _Node]] = {}
        self.bits = bits


def _placements(letters: Values) -> list[tuple[int, str, str]]:
    """(position, column range, value test) of each letter in the order it
    is placed: the maximum, the minimum, then the rest right to left."""
    k = len(letters)
    ends = [letters.index(k), letters.index(1)] if k else []
    # dict.fromkeys keeps each position's first place in the list.
    order = dict.fromkeys([*ends, *range(k - 1, -1, -1)])
    depth: dict[int, int] = {}
    out = []
    for d, t in enumerate(order):
        # Nearest placed letters in position leave room for the letters
        # still to be placed between them; the grid's borders sit at
        # positions -1 and k, columns -1 and n.
        lefts = [s for s in depth if s < t]
        rights = [s for s in depth if s > t]
        if lefts:
            tl = max(lefts)
            start = f"x{depth[tl]} + {t - tl}"
        else:
            start = f"{t}"
        if rights:
            tr = min(rights)
            stop = f"x{depth[tr]} - {tr - t - 1}" if tr - t > 1 else f"x{depth[tr]}"
        else:
            stop = f"n - {k - 1 - t}" if k - 1 - t else "n"
        below = [s for s in depth if letters[s] < letters[t]]
        above = [s for s in depth if letters[s] > letters[t]]
        chain = [max(below, key=letters.__getitem__)] if below else []
        chain.append(t)
        if above:
            chain.append(min(above, key=letters.__getitem__))
        depth[t] = d
        test = " < ".join(f"v{depth[s]}" for s in chain) if len(chain) > 1 else ""
        out.append((t, f"range({start}, {stop})", test))
    return out


def _rectangles(region: Region, letters: Values) -> list[list[Box]]:
    """The boxes of ``region`` merged into rectangles, each given by its
    lower-left and upper-right box.  Each column's boxes are first merged
    into runs of consecutive rows.  Then runs over the same rows in
    adjacent columns merge, unless the value of the letter between the two
    columns lies inside those rows, which would put that letter's point in
    the rectangle."""
    runs: list[list[Box]] = []
    for box in region:  # sorted by column, then by row
        if runs and runs[-1][1] == (box.col, box.row - 1):
            runs[-1][1] = box
        else:
            runs.append([box, box])
    rects: list[list[Box]] = []
    by_rows: dict[tuple[int, int], list[Box]] = {}
    for first, last in runs:
        rows = (first.row, last.row)
        rect = by_rows.get(rows)
        if rect and rect[1].col == first.col - 1 and not rows[0] < letters[first.col - 1] <= rows[1]:
            rect[1] = last
        else:
            rect = by_rows[rows] = [first, last]
            rects.append(rect)
    return rects


# The first-hit and mask searches test a marked pattern with at most this
# many expansions (the cap of :func:`_expansions`) as those expansions.
# Over every host of length up to 8, summed over the 29 fixture and derived
# length-4 bases that have marks, the bound 3 took 0.56 of the time of the
# mark tests, 2 took 0.61 and 1 took 0.64.  No bound took 0.52 but only
# 0.93 on bubble1243, whose 1243 has a mark of four boxes in one band: one
# slice tests it, where its four expansions cost a loop each.
_MAX_EXPANSIONS = 3

# The cap for the searches through the maximum, which exist only once every
# mark is lowered: bubble1243's 1243 has four expansions; a mark of 3
# points, 3!.
_MAX_AT_MAX_EXPANSIONS = 4

# The searches through the host's maximum, by the action each restricts.
_THROUGH_MAX = {"at_max": "first", "mask_at_max": "mask"}


def _lower(
    pat: Pattern, action: str
) -> list[tuple[Values, Region, tuple[Mark, ...], tuple[Decoration, ...]]]:
    """Every trie path of ``pat`` in the search for ``action``, as
    ``(letters, shade, marks, decorations)``.

    A barred pattern becomes its mesh pattern (:func:`barred_to_mesh`): an
    occurrence of the unbarred part extends exactly when the box the barred
    letter vacated holds a point.  A decoration whose region must avoid the
    pattern 1 becomes shaded boxes; the decorations left avoid a longer
    pattern.  With ``"first"`` and ``"mask"``, a marked pattern whose
    expansions :func:`_expansions` lists under the cap ``_MAX_EXPANSIONS``
    becomes those expansions, one path each with no marks: a host contains
    the pattern exactly when it contains one of them.  With ``"at_max"``
    and ``"mask_at_max"`` the cap is ``_MAX_AT_MAX_EXPANSIONS``.  A refused
    pattern keeps its mark tests, and so does every pattern under
    ``"yield"``, because an expansion's occurrences have an extra letter."""
    if pat.kind == "barred":
        pat = barred_to_mesh(pat)
    cap = _MAX_AT_MAX_EXPANSIONS if action in _THROUGH_MAX else _MAX_EXPANSIONS
    expansions = (_expansions([_plain(pat, "expand")], cap)
                  if action != "yield" and pat.marks else None)
    if expansions is not None:
        return sorted((values, as_boxes(shade), (), ()) for values, shade in expansions)
    shade = set(pat.shade)
    decors = []
    for d in pat.decorations:
        if d.avoid == _POINT:
            shade.update(d.region)
        else:
            decors.append(d)
    return [(pat.perm.values, as_boxes(shade), pat.marks, tuple(decors))]


@functools.lru_cache(maxsize=4096)
def _search(patterns: tuple[Pattern, ...], action: str) -> Callable:
    """The search for a tuple of patterns, reusable across hosts.

    The result takes the host's tuple of values.  With ``action``
    ``"first"`` it returns 0 when the host contains no pattern of the
    tuple, and otherwise an odd int for the first occurrence it finds, of
    a lowered path of k letters: bit x + 1 is set for each index x at which
    a new largest letter, inserted into the host, would land in a shaded or
    decorated box of the path's top row (row k), and so may destroy the
    occurrence.  Top-row box (c, k) takes the indices from one past the
    occurrence's column c to its column c + 1, with 0 and the host's length
    at the borders.  A marked box only gains a point, so it never sets a
    bit.  With ``"mask"`` it returns the bitmask whose bit i is set when
    the host contains ``patterns[i]``, and takes a seed mask, 0 by default,
    whose patterns it does not look for and whose bits it returns set;
    with ``"yield"`` it is a generator over the ``(alpha, beta, omega)``
    record of every occurrence of the tuple's one pattern, in no
    particular order: each part is a tuple expression written out at
    compile time, ``alpha`` the placed columns plus 1 in position order,
    ``beta`` the placed values named in the pattern's value order, so no
    sort runs, and ``omega`` their pairs in position order.  ``"at_max"`` and ``"mask_at_max"`` restrict ``"first"``
    and ``"mask"`` to the occurrences through the host's maximum: they also
    take its index ``x0``, after the host, and look only for occurrences
    that place the pattern's maximum there.  They are None unless every
    lowered path is free of marks and of decorations avoiding non-classical
    patterns (``oracle`` says why).  Callers pass canonical tuples, so one
    basis is compiled once per action; the generated source is kept on the
    function as ``source``, and as ``top`` the bits of the patterns with a
    lowered path that has a shaded or decorated box in its top row.

    It is built in two steps.  Each pattern is lowered to its trie paths
    (:func:`_lower`), whose leaves return their first-hit value, set the
    bit of the pattern they came from, or yield their record.  Then the
    trie is emitted as source, as follows.

    The letters are placed by nested ``for`` loops, one per letter: the
    maximum first, then the minimum, then the rest right to left.  A
    letter's columns run between those of its nearest placed neighbours in
    position, leaving room for the letters still to come, and its value is
    compared with those of its nearest placed neighbours in value.  Across
    the paths the placements merge like a trie: one loop per distinct
    column range, one ``if`` per distinct value test inside it; under
    a search through the maximum a loop at the top is a test that ``x0``
    is in its range.
    Where a path's letters are all placed, its shaded boxes and each mark's
    boxes are merged into rectangles (:func:`_rectangles`), and each
    rectangle's points are listed by one comprehension over a column slice
    of the host, ``values[left:right]``, filtered to the rectangle's values:
    ``w > low`` when it reaches the top of the grid, ``w <= high`` when it
    reaches the bottom, ``low < w <= high`` otherwise, and no filter for a
    whole column.  A shaded rectangle must list no point; a mark with
    ``min_count`` 1 needs one of its lists nonempty, and a larger
    ``min_count`` bounds the sum of their lengths.  Each decoration is one
    more condition: the avoided pattern's own search, named ``sub{i}_{j}``
    in the namespace, runs on the values of the decoration's region as they
    are, unstandardized, read off the host by column slices.  The mask
    search skips a loop once every pattern below it is found.
    CPython stops compiling a function at 20 nested ``for`` loops, so the
    loops below that depth continue in a helper function, ``h{i}``, that
    takes the placed letters as arguments.

    The source is passed to ``exec`` but is built from loop indices, box
    coordinates and mark counts, all integers validated when the patterns
    were built, and fixed names, never from text a user typed.
    """
    namespace: dict = {}
    full = (1 << len(patterns)) - 1
    # Per action: the lines that call a helper function and pass its hits
    # on, and the line that ends a search.
    report = f"if mask == {full}: return mask"
    base = _THROUGH_MAX.get(action, action)
    call, finish = {
        "first": (["if hit := {}: return hit"], "return 0"),
        "mask": (["mask = {}", report], "return mask"),
        "yield": (["yield from {}"], "return"),
    }[base]
    root = _Node(full)
    paths = [(i, *path) for i, pat in enumerate(patterns) for path in _lower(pat, action)]
    if action in _THROUGH_MAX and any(
        marks or any(d.avoid.kind != "classical" for d in decors) for *_, marks, decors in paths
    ):
        return None
    top = 0
    for i, letters, shade, marks, decors in paths:
        k = len(letters)
        gaps = sorted({c for c, r in itertools.chain(shade, *(d.region for d in decors)) if r == k})
        if gaps:
            top |= 1 << i
        node = root
        col: dict[int, str] = {}
        val: dict[int, str] = {}
        for d, (t, cols, test) in enumerate(_placements(letters)):
            node = node.loops.setdefault((d, cols), {}).setdefault(test, _Node())
            node.bits |= 1 << i
            col[t], val[letters[t]] = f"x{d}", f"v{d}"

        def corners(box: Box) -> tuple[str, str, str, str]:
            # Box (i, j) holds the host points strictly between the
            # occurrence's columns i and i+1 and its values j and j+1 (1-based,
            # with the grid's borders as columns and values 0 and n+1).  As
            # 0-based indices into the host its columns are the slice
            # values[left:right], and its values run over (low, high].
            c, r = box
            left = f"{col[c - 1]} + 1" if c else "0"
            right = col[c] if c < k else "n"
            low = val[r] if r else "0"
            high = f"{val[r + 1]} - 1" if r < k else "n"
            return left, right, low, high

        def points(first: Box, last: Box) -> str:
            # The host points of the rectangle from box ``first`` to box
            # ``last``, as a list.
            left, _, low, _ = corners(first)
            _, right, _, high = corners(last)
            if low == "0" and high == "n":
                return f"values[{left}:{right}]"
            if high == "n":
                inside = f"w > {low}"
            elif low == "0":
                inside = f"w <= {high}"
            else:
                inside = f"{low} < w <= {high}"
            return f"[w for w in values[{left}:{right}] if {inside}]"

        tests = [f"not {points(*rect)}" for rect in _rectangles(shade, letters)]
        for m in marks:
            found = [points(*rect) for rect in _rectangles(m.region, letters)]
            if m.min_count == 1:
                tests.append(f"({' or '.join(found)})")
            else:
                tests.append(f"{' + '.join(f'len({f})' for f in found)} >= {int(m.min_count)}")
        for j, dec in enumerate(decors):
            namespace[f"sub{i}_{j}"] = _search((dec.avoid,), "first")
            # A region's boxes are sorted by column, so one slice per column,
            # joined left to right, lists the region's points in host order.
            slices = []
            for _, boxes in itertools.groupby(dec.region, key=lambda box: box.col):
                bounds = [corners(box) for box in boxes]
                inside = " or ".join(
                    f"{low} < w" if high == "n" else f"{low} < w <= {high}" for _, _, low, high in bounds
                )
                slices.append(f"[w for w in values[{bounds[0][0]}:{bounds[0][1]}] if {inside}]")
            tests.append(f"not sub{i}_{j}({' + '.join(slices)})")
        # A new maximum inserted into the host at index x lands in top-row
        # box (c, k) for x from left to right, the bounds of the box's
        # slice; the first-hit value sets bits left + 1 to right + 1 for
        # each such box that is shaded or decorated.
        hit = ["return 1" + "".join(
            f" | (4 << {right}) - (2 << {left})" for left, right, _, _ in (corners((c, k)) for c in gaps))]
        if base == "mask":
            tests.insert(0, f"not mask & {1 << i}")
            hit = [f"mask |= {1 << i}", report]
        elif action == "yield":
            alpha = "".join(f"{col[t]} + 1, " for t in range(k))
            beta = "".join(f"{val[r]}, " for r in range(1, k + 1))
            omega = "".join(f"({col[t]} + 1, {val[letters[t]]}), " for t in range(k))
            hit = [f"yield (({alpha}), ({beta}), ({omega}))"]
        node.leaves.append((" and ".join(tests), hit))

    state = "values, n" + (", mask" if base == "mask" else "")
    helpers: list[list[str]] = []

    def emit(node: _Node, ind: str, loops: int, out: list[str]) -> None:
        # The lines of ``node``'s leaves and loops, indented by ``ind``
        # inside ``loops`` nested loops of the function that ``out`` holds.
        for cond, lines in node.leaves:
            if cond:
                out.append(f"{ind}if {cond}:")
                out.extend(f"{ind}    {line}" for line in lines)
            else:
                out.extend(f"{ind}{line}" for line in lines)
        for (d, cols), branches in node.loops.items():
            # The expansions of one pattern may lie below several branches,
            # so their bits are joined, not summed.
            bits = functools.reduce(operator.or_, (child.bits for child in branches.values()))
            ind_loop = ind
            if base == "mask" and bits != node.bits:
                out.append(f"{ind}if mask & {bits} != {bits}:")
                ind_loop += "    "
            body, nested = out, loops
            if loops >= _MAX_LOOPS:
                name = f"h{len(helpers)}"
                args = state + "".join(f", x{e}, v{e}" for e in range(d))
                out.extend(ind_loop + line.format(f"{name}({args})") for line in call)
                body, nested, ind_loop = [f"def {name}({args}):"], 0, "    "
                helpers.append(body)
            loop = "if" if action in _THROUGH_MAX and d == 0 else "for"
            body.append(f"{ind_loop}{loop} x{d} in {cols}:")
            body.append(f"{ind_loop}    v{d} = values[x{d}]")
            for test, child in branches.items():
                ind_body = ind_loop + "    "
                if test:
                    body.append(f"{ind_body}if {test}:")
                    ind_body += "    "
                emit(child, ind_body, nested + 1, body)
                # A full mask has returned already, and the body of an
                # ``if`` runs once and could not hold a break.
                if base == "mask" and bits != full and loop == "for":
                    body.append(f"{ind_body}if mask & {bits} == {bits}: break")
            if body is not out:
                body.append(f"    {finish}")

    params = "values" + (", x0" if action in _THROUGH_MAX else "") + (", mask=0" if base == "mask" else "")
    body = [f"def search({params}):", "    n = len(values)"]
    emit(root, "    ", 0, body)
    body.append(f"    {finish}")
    source = "\n".join(line for lines in helpers + [body] for line in lines) + "\n"
    exec(source, namespace)
    search = namespace["search"]
    search.source = source
    search.top = top
    return search


def occurrences(pi: Permutation, pat: Pattern) -> list[Occurrence]:
    """All occurrences of ``pat`` in ``pi``, ordered lexicographically by
    ``alpha``.  For barred patterns the reported occurrences are those of the
    standardized unbarred part.

    >>> found = occurrences(Permutation.from_text("526413"), classical("132"))
    >>> [o.alpha for o in found]
    [(2, 3, 4), (2, 3, 6), (2, 4, 6)]
    >>> found[0]
    Occurrence(alpha=(2, 3, 4), beta=(2, 4, 6), omega=((2, 2), (3, 6), (4, 4)))
    """
    # The occurrences of one pattern have distinct alphas, so the records
    # sort by alpha.
    return list(map(_occurrence, sorted(_search((pat,), "yield")(pi.values))))


def contains(pi: Permutation, pat: Pattern) -> bool:
    """Whether ``pi`` contains at least one occurrence of ``pat``."""
    return bool(_search((pat,), "first")(pi.values))


def barred_to_mesh(pat: Pattern) -> Pattern:
    """Convert a single-bar pattern to its equivalent mesh pattern: drop the
    barred letter and shade the box it vacated.

    >>> p = barred_to_mesh(barred("35241", [2]))
    >>> p.perm.to_text(), p.shade
    ('3241', (Box(col=1, row=4),))
    """
    if pat.kind != "barred":
        raise InvalidInputError(f"expected a barred pattern, got {pat.kind}")
    if len(pat.barred_positions) != 1:
        raise UnsupportedPatternError(
            f"barred patterns are supported with exactly one bar, got {len(pat.barred_positions)}"
        )
    bar = pat.barred_positions[0]
    value = pat.perm.values[bar - 1]
    rest = _standardize([v for i, v in enumerate(pat.perm.values, 1) if i != bar])
    return mesh(rest, {(bar - 1, value - 1)})
