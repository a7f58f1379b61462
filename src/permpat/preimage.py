"""Stack-sort preimages of pattern classes.

The pipeline has three stages:

1. ``un_s`` lists every candidate pattern whose single stack-sorting pass
   can produce a given pattern, via the recursion on the position of the
   maximum letter.
2. ``shade_and_mark`` decides, for one candidate, which boxes must stay
   empty and which regions must hold a point so that an occurrence of the
   candidate is mapped by the sorting pass onto an occurrence of the image
   pattern; candidates whose required region is entirely shaded are
   rejected.
3. ``stack_preimage_basis`` packages the accepted candidates as a basis of
   marked mesh patterns: a permutation is mapped into the avoidance class of
   the image pattern exactly when it avoids every basis pattern.

``expand_marks`` trades marks for more patterns by inserting an explicit
witness point into each box of a marked region; ``prune_basis`` drops basis
elements that are implied by the rest, verified exhaustively up to a bound.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    InvalidBoundError,
    InvalidInputError,
    InvalidInsertionError,
    UnsupportedPatternError,
)
from .patterns import (
    Box,
    Mark,
    Pattern,
    as_boxes,
    classical,
    marked,
    mesh,
    pattern_sort_key,
)
from .oracle import containment_masks
from .permutation import Permutation, Values, _standardize, _value_pairs, as_word


# Bounded so that a long-lived process cannot grow it without limit; all 720
# images of length 6 together fill 1,046 entries.
@functools.lru_cache(maxsize=4096)
def _un_s_raw(word: Values) -> frozenset[Values]:
    # p = alpha m beta with m maximal.  A preimage word of p splits as
    # gamma m delta where gamma maps to a prefix of alpha and delta to the
    # rest: the pass sends gamma m delta to S(gamma) S(delta) m ... so m must
    # come last among its block; recursing on raw sub-words keeps letters
    # identified across the split.
    if not word:
        return frozenset({()})
    m = max(word)
    i = word.index(m)
    alpha, beta = word[:i], word[i + 1 :]
    out = set()
    for j in range(len(alpha) + 1):
        for gamma in _un_s_raw(alpha[:j]):
            for delta in _un_s_raw(alpha[j:] + beta):
                out.add(gamma + (m,) + delta)
    return frozenset(out)


def un_s(word: Iterable[int]) -> frozenset[Permutation]:
    """Candidate patterns whose stack-sorting pass can produce ``word``.

    >>> sorted(p.to_text() for p in un_s((1, 3, 2)))
    ['132', '312', '321']
    """
    return frozenset(Permutation(_standardize(w)) for w in _un_s_raw(as_word(word)))


@dataclass(frozen=True)
class ShadeMarkResult:
    """Outcome of shading and marking one accepted candidate: the candidate
    permutation, the shaded boxes, and the marked regions (each region needs
    at least one point; regions are pairwise incomparable under inclusion
    and disjoint from the shading)."""

    candidate: Permutation
    shades: tuple[Box, ...]
    marks: tuple[tuple[Box, ...], ...]

    def __post_init__(self) -> None:
        shades = as_boxes(self.shades)
        marks = tuple(sorted(as_boxes(region) for region in self.marks))
        object.__setattr__(self, "shades", shades)
        object.__setattr__(self, "marks", marks)
        shade_set = set(shades)
        for region in marks:
            if shade_set.intersection(region):
                raise InvalidInputError(f"mark region {region} overlaps the shading")
        for a in marks:
            for b in marks:
                if a is not b and set(a) <= set(b):
                    raise InvalidInputError(f"mark regions {a} and {b} are nested")

    def to_pattern(self) -> Pattern:
        return _plainest(self.candidate, self.shades, [Mark(region) for region in self.marks])


def _plainest(perm: Permutation, shade: Iterable[Box], marks: Sequence[Mark] = ()) -> Pattern:
    """The pattern of the plainest kind that carries ``shade`` and ``marks``:
    marked if there are marks, else mesh if there is shading, else classical."""
    if marks:
        return marked(perm, shade, marks)
    if shade:
        return mesh(perm, shade)
    return classical(perm)


def _shade_and_mark_impl(
    candidate: Permutation,
    image: Permutation,
    inv_pairs: Sequence[tuple[int, int]],
) -> ShadeMarkResult | None:
    """Core of shade_and_mark with an explicit inversion-pair order; the
    result does not depend on that order."""
    n = candidate.n
    lam = candidate.values
    pos = {v: i for i, v in enumerate(lam, 1)}
    _, ninv = _value_pairs(image.values)

    shades: set[Box] = set()
    for u, v in ninv:
        # u before v with u < v in the image: the candidate must not let a
        # later pass move anything between them, so shade the column strip
        # where v precedes u, from height v up.
        for c in range(pos[v], pos[u]):
            for r in range(v, n + 1):
                shades.add(Box(c, r))

    marks: list[frozenset[Box]] = []
    for u, v in inv_pairs:
        i, j = pos[u], pos[v]
        if all(lam[l - 1] < u for l in range(i + 1, j + 1)):
            region = frozenset(Box(c, r) for c in range(i, j) for r in range(u, n + 1)) - shades
            if not region:
                return None
            if not any(existing <= region for existing in marks):
                marks = [m for m in marks if not region <= m]
                marks.append(region)

    return ShadeMarkResult(candidate, tuple(shades), tuple(tuple(sorted(m)) for m in marks))


def shade_and_mark(candidate: Permutation, image: Permutation) -> ShadeMarkResult | None:
    """Shading and marking for one candidate, or None if the candidate is
    rejected (some required region is entirely shaded).

    The candidate must be order-compatible with the image: every inversion
    of the image must be an inversion of the candidate.

    >>> r = shade_and_mark(Permutation.from_text("4321"), Permutation.from_text("3241"))
    >>> r.shades
    (Box(col=1, row=4), Box(col=2, row=4))
    >>> r.marks
    ((Box(col=2, row=3),), (Box(col=3, row=4),))
    """
    if candidate.n != image.n:
        raise InvalidInputError(
            f"candidate length {candidate.n} differs from image length {image.n}"
        )
    inv, _ = _value_pairs(image.values)
    pos = {v: i for i, v in enumerate(candidate.values, 1)}
    for u, v in inv:
        if pos[u] > pos[v]:
            raise InvalidInputError(
                f"candidate {candidate} does not preserve the inversion ({u}, {v}) of {image}"
            )
    ordered = sorted(inv, key=lambda p: (pos[p[0]], pos[p[1]]))
    return _shade_and_mark_impl(candidate, image, ordered)


def candidate_outcomes(image: Permutation) -> list[tuple[Permutation, ShadeMarkResult | None]]:
    """Every candidate from :func:`un_s` paired with its shade-and-mark
    outcome (None for rejected candidates), in lexicographic order."""
    return [(lam, shade_and_mark(lam, image)) for lam in sorted(un_s(image.values))]


@dataclass(frozen=True)
class MarkedBasis:
    """A canonical, deduplicated tuple of classical/mesh/marked patterns.
    ``verified_upto`` records the bound of an exhaustive pruning check, if
    one was performed."""

    patterns: tuple[Pattern, ...]
    verified_upto: int | None = None

    def __post_init__(self) -> None:
        for pat in self.patterns:
            if pat.kind not in ("classical", "mesh", "marked"):
                raise InvalidInputError(f"basis patterns must be classical, mesh or marked, got {pat.kind}")
        keys = [pattern_sort_key(p) for p in self.patterns]
        if keys != sorted(set(keys)):
            raise InvalidInputError("basis patterns must be unique and canonically ordered")

    @classmethod
    def from_patterns(cls, patterns: Iterable[Pattern], verified_upto: int | None = None) -> "MarkedBasis":
        unique = sorted(set(patterns), key=pattern_sort_key)
        return cls(tuple(unique), verified_upto)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)


def stack_preimage_basis(image: Permutation) -> MarkedBasis:
    """Basis of marked mesh patterns characterizing the stack-sort preimage
    of the avoidance class of ``image``: for every n, the permutations whose
    sorting pass lands in Av_n(image) are exactly Av_n of this basis.

    >>> [str(p.perm) for p in stack_preimage_basis(Permutation.from_text("231"))]
    ['231', '321']
    """
    pats = [outcome.to_pattern() for _, outcome in candidate_outcomes(image) if outcome is not None]
    return MarkedBasis.from_patterns(pats)


def _remap(boxes: Iterable[Box], box: Box) -> set[Box]:
    cols = {box.col: (box.col, box.col + 1)}
    rows = {box.row: (box.row, box.row + 1)}
    out: set[Box] = set()
    for b in boxes:
        for c in cols.get(b.col, (b.col if b.col < box.col else b.col + 1,)):
            for r in rows.get(b.row, (b.row if b.row < box.row else b.row + 1,)):
                out.add(Box(c, r))
    return out


def insert_point(pat: Pattern, box: Box | tuple[int, int]) -> Pattern:
    """Insert an explicit point into a box: the new pattern has one more
    letter, at column ``box.col + 1`` and value ``box.row + 1``.  Shaded
    boxes split with the grid; a mark whose region contains the target box
    is witnessed by the new point and disappears, any other mark keeps its
    (remapped) region.

    >>> p = insert_point(marked("2341", marks=[{(3, 4)}]), (3, 4))
    >>> p.kind, str(p.perm)
    ('classical', '23451')
    """
    box = Box(*box)
    if pat.kind not in ("classical", "mesh", "marked"):
        raise UnsupportedPatternError(f"cannot insert a point into a {pat.kind} pattern")
    k = len(pat.perm)
    if not (0 <= box.col <= k and 0 <= box.row <= k):
        raise InvalidInsertionError(f"box {tuple(box)} outside grid 0..{k}")
    if box in pat.shade:
        raise InvalidInsertionError(f"box {tuple(box)} is shaded")

    shifted = [v + 1 if v > box.row else v for v in pat.perm.values]
    values = shifted[: box.col] + [box.row + 1] + shifted[box.col :]
    perm = Permutation(tuple(values))

    shade = _remap(pat.shade, box)
    marks = []
    for m in pat.marks:
        if box in m.region:
            continue
        marks.append(Mark(_remap(m.region, box), m.min_count))

    return _plainest(perm, shade, marks)


def expand_marks(pat: Pattern) -> tuple[Pattern, ...]:
    """Replace a marked pattern by the equivalent set of mesh patterns:
    one branch per box of each marked region, inserting a witness point.
    Containment in the marked pattern equals containment in some expansion.

    >>> [str(p.perm) for p in expand_marks(marked("21", marks=[{(1, 2)}]))]
    ['231']
    """
    if pat.kind not in ("classical", "mesh", "marked"):
        raise UnsupportedPatternError(f"cannot expand a {pat.kind} pattern")
    for m in pat.marks:
        if m.min_count != 1:
            raise UnsupportedPatternError(
                f"expansion requires min_count 1 regions, got {m.min_count}"
            )
    done: set[Pattern] = set()
    todo = [pat]
    while todo:
        cur = todo.pop()
        if not cur.marks:
            done.add(_plainest(cur.perm, cur.shade))
            continue
        region = min(cur.marks, key=Mark.sort_key).region
        for b in region:
            todo.append(insert_point(cur, b))
    return tuple(sorted(done, key=pattern_sort_key))


def expand_basis(basis: MarkedBasis | Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Expand every pattern of a basis and return the deduplicated union."""
    out: set[Pattern] = set()
    for pat in basis:
        out.update(expand_marks(pat))
    return tuple(sorted(out, key=pattern_sort_key))


def prune_basis(basis: MarkedBasis, n_max: int) -> MarkedBasis:
    """Greedily drop basis patterns implied by the rest, keeping avoidance
    sets identical for every length up to ``n_max``.  The result is only
    verified up to that bound, which it records.

    One scan per length records the distinct bitmasks of basis patterns
    that some permutation contains.  In basis order, a pattern q is dropped
    when every mask with q's bit also has the bit of another pattern still
    kept: every permutation containing q then contains one of them, so the
    avoidance sets do not change.

    >>> b = MarkedBasis.from_patterns([classical("2341"), classical("23451")])
    >>> [str(p.perm) for p in prune_basis(b, 5)]
    ['2341']
    """
    patterns = basis.patterns
    if patterns:
        longest = max(len(p.perm) for p in patterns)
        if n_max < longest:
            raise InvalidBoundError(
                f"pruning bound {n_max} is below the longest basis pattern ({longest})"
            )

    masks = {mask for n in range(1, n_max + 1) for _, mask in containment_masks(n, patterns)}
    kept = (1 << len(patterns)) - 1
    for i in range(len(patterns)):
        q = 1 << i
        if all(mask & kept & ~q for mask in masks if mask & q):
            kept &= ~q
    return MarkedBasis.from_patterns(
        (p for i, p in enumerate(patterns) if kept >> i & 1), verified_upto=n_max
    )
