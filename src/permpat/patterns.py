"""Pattern types and the occurrence engine.

Five pattern kinds share one type:

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

Each pattern's search is compiled once and cached on the pattern
(``_search``): every kind is lowered to letters, shaded boxes and marks,
which become one generator expression over the host's prefix-count table,
plus any decorations that avoid a pattern longer than 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import InvalidInputError, UnsupportedPatternError
from .permutation import Permutation, Values, _standardize


class Box(NamedTuple):
    col: int
    row: int


BoxLike = Union[Box, tuple[int, int]]
Region = tuple[Box, ...]


def as_boxes(boxes: Iterable[BoxLike]) -> Region:
    """Normalize a collection of (col, row) pairs to a sorted tuple of boxes."""
    region = {Box(c, r) for c, r in boxes}
    # A bool is an int to Python and would print as True or False.
    if not {type(x) for box in region for x in box} <= {int}:
        raise InvalidInputError(f"box coordinates must be integers, got {region}")
    return tuple(sorted(region))


def _check_boxes(boxes: Iterable[Box], k: int, what: str) -> None:
    for b in boxes:
        if not (0 <= b.col <= k and 0 <= b.row <= k):
            raise InvalidInputError(f"{what} box {tuple(b)} outside grid 0..{k}")


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


@dataclass(frozen=True)
class Decoration:
    """A region whose contents, read as a subpermutation, must avoid
    ``avoid``.  Only classical and decorated avoid-patterns are accepted;
    the geometry of shaded or marked boxes inside a scattered region is not
    defined here."""

    region: Region
    avoid: "Pattern"

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", as_boxes(self.region))
        if not self.region:
            raise InvalidInputError("decoration region is empty")
        if self.avoid.kind not in ("classical", "decorated"):
            raise UnsupportedPatternError(
                f"decoration avoid-pattern must be classical or decorated, got {self.avoid.kind}"
            )

    def sort_key(self) -> tuple:
        return (self.region, pattern_sort_key(self.avoid))


KINDS = ("classical", "mesh", "marked", "barred", "decorated")
_KIND_RANK = {kind: rank for rank, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class Pattern:
    """A pattern of one of the five kinds.

    Construction normalizes every component (sorted, deduplicated tuples),
    so two patterns are syntactically equal exactly when they compare equal.
    """

    kind: str
    perm: Permutation
    shade: Region = ()
    marks: tuple[Mark, ...] = ()
    decorations: tuple[Decoration, ...] = ()
    barred_positions: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown pattern kind {self.kind!r}")
        k = len(self.perm)
        shade = as_boxes(self.shade)
        _check_boxes(shade, k, "shaded")
        marks = tuple(sorted(set(self.marks), key=Mark.sort_key))
        decorations = tuple(sorted(set(self.decorations), key=Decoration.sort_key))
        bars = set(self.barred_positions)
        if not set(map(type, bars)) <= {int}:
            raise InvalidInputError(f"barred positions must be integers, got {self.barred_positions!r}")
        bars = tuple(sorted(bars))
        object.__setattr__(self, "shade", shade)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "decorations", decorations)
        object.__setattr__(self, "barred_positions", bars)

        if self.kind == "classical":
            if shade or marks or decorations or bars:
                raise InvalidInputError("classical patterns carry no shading, marks, decorations or bars")
        elif self.kind == "mesh":
            if marks or decorations or bars:
                raise InvalidInputError("mesh patterns carry only shading")
        elif self.kind == "marked":
            if decorations or bars:
                raise InvalidInputError("marked patterns carry only shading and marks")
            shade_set = set(shade)
            for m in marks:
                _check_boxes(m.region, k, "marked")
                if shade_set.intersection(m.region):
                    raise InvalidInputError(f"mark region {m.region} overlaps the shading")
        elif self.kind == "barred":
            if shade or marks or decorations:
                raise InvalidInputError("barred patterns carry only barred positions")
            if not bars:
                raise InvalidInputError("barred pattern without barred positions")
            for b in bars:
                if not 1 <= b <= k:
                    raise InvalidInputError(f"barred position {b} outside 1..{k}")
        else:  # decorated
            if shade or marks or bars:
                raise InvalidInputError("decorated patterns carry only decorations")
            for d in decorations:
                _check_boxes(d.region, k, "decorated")

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
    return Pattern("classical", _as_perm(perm))


def mesh(perm: PermLike, shade: Iterable[BoxLike] = ()) -> Pattern:
    """A mesh pattern with the given shaded boxes."""
    return Pattern("mesh", _as_perm(perm), shade=shade)


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
    return Pattern("marked", _as_perm(perm), shade=shade, marks=tuple(_as_mark(m) for m in marks))


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
    return Pattern("decorated", _as_perm(perm), decorations=tuple(_as_decoration(d) for d in decorations))


def barred(perm: PermLike, positions: Iterable[int]) -> Pattern:
    """A barred pattern; ``positions`` are the 1-based barred positions."""
    return Pattern("barred", _as_perm(perm), barred_positions=tuple(positions))


def pattern_sort_key(pat: Pattern) -> tuple:
    """A total order on patterns: by length, underlying permutation, kind,
    then components.  Used wherever a deterministic pattern order is needed."""
    return (
        len(pat.perm),
        pat.perm.values,
        _KIND_RANK[pat.kind],
        pat.shade,
        tuple(m.sort_key() for m in pat.marks),
        tuple(d.sort_key() for d in pat.decorations),
        pat.barred_positions,
    )


class Occurrence(NamedTuple):
    """An occurrence: ``alpha`` are the 1-based chosen positions, ``beta``
    the chosen values in increasing order, and ``omega`` the chosen points
    as (position, value) pairs ordered by position.  Occurrences compare by
    ``alpha``, the order in which the engine reports them."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    omega: tuple[tuple[int, int], ...]

    @classmethod
    def from_columns(cls, values: Sequence[int], cols: Sequence[int]) -> "Occurrence":
        """Build from strictly increasing 0-based column indices into
        ``values``, as the engine yields them; nothing is rechecked."""
        alpha = tuple([c + 1 for c in cols])
        picked = tuple([values[c] for c in cols])
        return cls(alpha, tuple(sorted(picked)), tuple(zip(alpha, picked)))


class Diagram:
    """A host permutation's point set, with a lazily built two-dimensional
    prefix-count table giving rectangle point counts in constant time."""

    __slots__ = ("values", "n", "_prefix")

    def __init__(self, values: Sequence[int]):
        self.values: Values = tuple(values)
        self.n = len(self.values)
        self._prefix: list[list[int]] | None = None

    def prefix(self) -> list[list[int]]:
        """prefix()[i][j] counts points (x, y) with x <= i and y <= j."""
        if self._prefix is None:
            n = self.n
            rows = [[0] * (n + 1)]
            for v in self.values:
                prev = rows[-1]
                rows.append(prev[:v] + [c + 1 for c in prev[v:]])
            self._prefix = rows
        return self._prefix


_POINT = Pattern("classical", Permutation((1,)))


@functools.lru_cache(maxsize=4096)
def _search(pat: Pattern) -> Callable[[Diagram], Iterator[tuple[int, ...]]]:
    """The occurrence search for one pattern, reusable across hosts.

    The result maps a :class:`Diagram` to an iterator over the 0-based
    columns of every occurrence of ``pat``, in lexicographic order.  The
    pattern is first lowered to letters, shaded boxes, marks and the
    decorations that are left.  A barred pattern becomes its mesh pattern
    (:func:`barred_to_mesh`): an occurrence of the unbarred part extends
    exactly when the box the barred letter vacated holds a point.  A
    decoration whose region must avoid the classical pattern 1 becomes
    shaded boxes.

    Letters, shading and marks are compiled into one generator expression
    with a ``for`` clause per letter: letter t runs over the columns after
    letter t-1 that leave room for the letters still to come, and is
    accepted by comparing its value with those of at most two earlier
    letters, the one just below it and the one just above it in the
    pattern.  Each box is then counted as a four-lookup difference in the
    prefix table, which is fetched only once a whole skeleton exists.  A
    generator expression has no limit on how deeply its clauses nest, where
    a ``def`` of nested ``for`` statements stops compiling at 20.  The
    source is passed to ``exec`` but is built from loop indices, box
    coordinates and mark counts, all integers validated when the pattern
    was built, never from text a user typed.

    Each decoration left after lowering filters the skeletons the compiled
    search yields: the avoided pattern's own search runs on the
    standardized contents of the decoration's region.
    """
    if pat.kind == "barred":
        pat = barred_to_mesh(pat)
    shade = set(pat.shade)
    decors = []
    for d in pat.decorations:
        if d.avoid == _POINT:
            shade.update(d.region)
        else:
            decors.append((d.region, _search(d.avoid)))

    letters = pat.perm.values
    k = len(letters)
    at = {v: t for t, v in enumerate(letters)}
    clauses = ["for values, n, prefix in ((diag.values, diag.n, diag.prefix),)"]
    for t in range(k):
        start = f"x{t - 1} + 1" if t else "0"
        clauses.append(f"for x{t} in range({start}, n - {k - 1 - t}) for v{t} in (values[x{t}],)")
        earlier = sorted(range(t), key=lambda s: letters[s])
        rank = sum(1 for s in earlier if letters[s] < letters[t])
        chain = earlier[rank - 1: rank] + [t] + earlier[rank: rank + 1]
        if len(chain) > 1:
            clauses.append("if " + " < ".join(f"v{s}" for s in chain))

    def corners(box: Box) -> tuple[str, str, str, str]:
        # Box (i, j) holds the host points strictly between the occurrence's
        # columns i and i+1 and its values j and j+1 (1-based, with the
        # grid's borders as columns and values 0 and n+1).  In prefix-table
        # indices its columns run over (left, right] and its values over
        # (low, high].
        col, row = box
        left = f"x{col - 1} + 1" if col else "0"
        right = f"x{col}" if col < k else "n"
        low = f"v{at[row]}" if row else "0"
        high = f"v{at[row + 1]} - 1" if row < k else "n"
        return left, right, low, high

    tests = []
    for box in as_boxes(shade):
        left, right, low, high = corners(box)
        tests.append(f"p[{right}][{high}] - p[{right}][{low}] == p[{left}][{high}] - p[{left}][{low}]")
    for m in pat.marks:
        counts = []
        for box in m.region:
            left, right, low, high = corners(box)
            counts.append(f"p[{right}][{high}] - p[{right}][{low}] - p[{left}][{high}] + p[{left}][{low}]")
        tests.append(f"{' + '.join(counts)} >= {int(m.min_count)}")
    if tests:
        clauses.append("for p in (prefix(),) if " + " and ".join(tests))
    skeleton = "".join(f"x{t}, " for t in range(k))
    namespace: dict = {}
    exec(f"def search(diag):\n    return (({skeleton}) {' '.join(clauses)})\n", namespace)
    compiled = namespace["search"]
    if not decors:
        return compiled

    def search(diag: Diagram) -> Iterator[tuple[int, ...]]:
        values = diag.values
        for cols in compiled(diag):
            # Box (i, j) spans the host columns strictly between the
            # skeleton's i-th and (i+1)-th columns (0-based, the borders at
            # -1 and n) and the values strictly between its j-th and
            # (j+1)-th smallest values.
            a = (-1, *cols, diag.n)
            r = (0, *sorted(values[c] for c in cols), diag.n + 1)
            for region, sub in decors:
                # The boxes of a region are distinct, so no point is seen twice.
                xs = sorted(
                    x
                    for i, j in region
                    for x in range(a[i] + 1, a[i + 1])
                    if r[j] < values[x] < r[j + 1]
                )
                if next(sub(Diagram(_standardize([values[x] for x in xs]))), None) is not None:
                    break
            else:
                yield cols

    return search


def occurrences(pi: Permutation, pat: Pattern) -> list[Occurrence]:
    """All occurrences of ``pat`` in ``pi``, ordered lexicographically by
    ``alpha``.  For barred patterns the reported occurrences are those of the
    standardized unbarred part.

    >>> [o.alpha for o in occurrences(Permutation.from_text("526413"), classical("132"))]
    [(2, 3, 4), (2, 3, 6), (2, 4, 6)]
    """
    diag = Diagram(pi.values)
    return [Occurrence.from_columns(diag.values, cols) for cols in _search(pat)(diag)]


def contains(pi: Permutation, pat: Pattern) -> bool:
    """Whether ``pi`` contains at least one occurrence of ``pat``."""
    return next(_search(pat)(Diagram(pi.values)), None) is not None


def avoids(pi: Permutation, pat: Pattern) -> bool:
    return not contains(pi, pat)


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
