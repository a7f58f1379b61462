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
3. ``stack_preimage_basis`` collects the accepted candidates' patterns
   into a basis of marked mesh patterns: a permutation is mapped into the
   avoidance class of the image pattern exactly when it avoids every basis
   pattern.  A basis is a canonical tuple (:func:`patterns.canonical`).

``expand_basis`` trades marks for more patterns by inserting an explicit
witness point into each box of a marked region.  It branches on plain
``(values, shade, marks)`` triples and builds one validated pattern per
distinct finished expansion.  The expansion helpers (``_plain``,
``_insert``, ``_expand``) live in ``patterns``, whose
compiled search also tests small marks through their expansions; this
module imports them.  ``prune_basis`` drops basis elements that are
implied by the rest, verified exhaustively up to a bound by the oracle's
one enumeration, ``oracle._scan``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    InvalidBoundError,
    InvalidInputError,
    InvalidInsertionError,
)
from .patterns import (
    Box,
    Mark,
    Pattern,
    Region,
    _expand,
    _insert,
    _plain,
    canonical,
)
from .oracle import _mask_block, _scan
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
    """Outcome of shading and marking one accepted candidate: the marked
    mesh pattern it denotes.  Its parts are the candidate permutation, the
    shaded boxes, and the marked regions, each of which needs at least one
    point; no region of one outcome lies inside another."""

    pattern: Pattern

    @property
    def candidate(self) -> Permutation:
        return self.pattern.perm

    @property
    def shades(self) -> Region:
        return self.pattern.shade

    @property
    def marks(self) -> tuple[Region, ...]:
        return tuple(m.region for m in self.pattern.marks)

    def to_pattern(self) -> Pattern:
        return self.pattern


def _shade_and_mark_impl(
    candidate: Permutation,
    ninv: Iterable[tuple[int, int]],
    inv_pairs: Iterable[tuple[int, int]],
) -> ShadeMarkResult | None:
    """Core of shade_and_mark, given the image's non-inversions and its
    inversions; the result does not depend on the order of either."""
    n = candidate.n
    lam = candidate.values
    pos = {v: i for i, v in enumerate(lam, 1)}

    # u before v with u < v in the image: the candidate must not let a later
    # pass move anything between them, so shade the column strip where v
    # precedes u, from height v up.  Column c is shaded from floor[c] up.
    floor = [n + 1] * (n + 1)
    for u, v in ninv:
        for c in range(pos[v], pos[u]):
            floor[c] = min(floor[c], v)
    shades = [(c, r) for c in range(n + 1) for r in range(floor[c], n + 1)]

    # Only the least regions are kept, so no region lies inside another.
    marks: list[frozenset[tuple[int, int]]] = []
    for u, v in inv_pairs:
        i, j = pos[u], pos[v]
        if all(lam[l - 1] < u for l in range(i + 1, j + 1)):
            region = frozenset((c, r) for c in range(i, j) for r in range(u, floor[c]))
            if not region:
                return None
            if not any(existing <= region for existing in marks):
                marks = [m for m in marks if not region <= m]
                marks.append(region)

    return ShadeMarkResult(Pattern(candidate, shades, [Mark(region) for region in marks]))


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
    inv, ninv = _value_pairs(image.values)
    pos = {v: i for i, v in enumerate(candidate.values, 1)}
    for u, v in inv:
        if pos[u] > pos[v]:
            raise InvalidInputError(
                f"candidate {candidate} does not preserve the inversion ({u}, {v}) of {image}"
            )
    return _shade_and_mark_impl(candidate, ninv, inv)


def candidate_outcomes(image: Permutation) -> list[tuple[Permutation, ShadeMarkResult | None]]:
    """Every candidate from :func:`un_s` paired with its shade-and-mark
    outcome (None for rejected candidates), in lexicographic order.  Every
    candidate keeps the image's inversions, so the image's value pairs are
    read once and :func:`shade_and_mark`'s checks are not repeated."""
    inv, ninv = _value_pairs(image.values)
    return [(lam, _shade_and_mark_impl(lam, ninv, inv)) for lam in sorted(un_s(image.values))]


class MarkedBasis:
    """Kept for the benchmark under ``perfbench/``, which builds bases
    through ``MarkedBasis.from_patterns``.  A basis is the canonical tuple
    that :func:`patterns.canonical` returns, and so is what this returns."""

    from_patterns = staticmethod(canonical)


def stack_preimage_basis(image: Permutation) -> tuple[Pattern, ...]:
    """Basis of marked mesh patterns characterizing the stack-sort preimage
    of the avoidance class of ``image``: for every n, the permutations whose
    sorting pass lands in Av_n(image) are exactly Av_n of this basis.

    >>> [str(p.perm) for p in stack_preimage_basis(Permutation.from_text("231"))]
    ['231', '321']
    """
    return canonical(outcome.pattern for _, outcome in candidate_outcomes(image) if outcome is not None)


def insert_point(pat: Pattern, box: Box | tuple[int, int]) -> Pattern:
    """Insert an explicit point into a box: the new pattern has one more
    letter, at column ``box.col + 1`` and value ``box.row + 1``.  Shaded
    boxes and marked regions split with the grid.  The new point counts
    once towards every mark whose region contains the target box: such a
    mark keeps its region with ``min_count`` one lower, and disappears when
    that count reaches 0.  Any other mark keeps its count.  The insertion
    itself runs on plain data, in the helper that expansion shares.

    >>> from .patterns import marked
    >>> p = insert_point(marked("2341", marks=[{(3, 4)}]), (3, 4))
    >>> p.kind, str(p.perm)
    ('classical', '23451')
    """
    box = Box(*box)
    values, shade, marks = _plain(pat, "insert a point into")
    k = len(values)
    if not (0 <= box.col <= k and 0 <= box.row <= k):
        raise InvalidInsertionError(f"box {tuple(box)} outside grid 0..{k}")
    if box in shade:
        raise InvalidInsertionError(f"box {tuple(box)} is shaded")
    values, shade, marks = _insert(values, shade, marks, box)
    return Pattern(Permutation(values), shade, tuple(Mark(region, count) for region, count in marks))


def expand_basis(basis: Iterable[Pattern]) -> tuple[Pattern, ...]:
    """Replace each marked pattern of a basis by the equivalent set of mesh
    patterns and return the deduplicated union, sorted once: while marks
    are left, branch on each box of the first mark's region, inserting a
    witness point there that counts towards every mark holding the box, so
    any ``min_count`` is accepted.  The branching runs on plain data and
    builds each distinct finished pattern once.  Containment in a marked
    pattern equals containment in some expansion.

    >>> from .patterns import marked
    >>> [str(p.perm) for p in expand_basis([marked("21", marks=[{(1, 2)}])])]
    ['231']
    """
    return canonical(p for pat in basis for p in _expand(pat))


def prune_basis(basis: Iterable[Pattern], n_max: int) -> tuple[Pattern, ...]:
    """Greedily drop basis patterns implied by the rest, keeping avoidance
    sets identical for every length up to ``n_max``, and return the
    canonical tuple of the patterns kept.  The result is only verified up
    to that bound.  Patterns of every kind are accepted.

    One scan per length (:func:`oracle._scan`) collects the distinct
    bitmasks of basis patterns that some permutation contains.  In basis
    order, a pattern q is dropped when every mask with q's bit also has the
    bit of another pattern still kept: every permutation containing q then
    contains one of them, so the avoidance sets do not change.

    >>> from .patterns import classical
    >>> [str(p.perm) for p in prune_basis([classical("2341"), classical("23451")], 5)]
    ['2341']
    """
    patterns = canonical(basis)
    if patterns:
        longest = max(len(p.perm) for p in patterns)
        if n_max < longest:
            raise InvalidBoundError(
                f"pruning bound {n_max} is below the longest basis pattern ({longest})"
            )

    masks = set().union(*(
        block for n in range(1, n_max + 1) for block in _scan(_mask_block, n, "stack", 0, 1, patterns)
    ))
    kept = (1 << len(patterns)) - 1
    for i in range(len(patterns)):
        q = 1 << i
        if all(mask & kept & ~q for mask in masks if mask & q):
            kept &= ~q
    return tuple(p for i, p in enumerate(patterns) if kept >> i & 1)
