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
3. ``stack_preimage_basis`` returns the accepted candidates' marked mesh
   patterns as a basis: a permutation is mapped into the avoidance class of
   the image pattern exactly when it avoids every basis pattern.  A basis
   is a canonical tuple (:func:`patterns.canonical`).

The stages run on plain ``(values, shade, marks)`` triples, which mark
expansion (:func:`patterns.expand_basis`) grows too: ``_outcomes`` shades
and marks each candidate once, and objects are built at the end, only for
the patterns returned.  ``preimage --expand`` without ``--prune`` builds
none: it prints each expanded ``(values, shade)`` pair straight to its
line, after the checks that building its pattern would run
(:func:`patterns._mesh_pairs`).
``_un_s_count`` counts the candidates without listing them, so that the
command line can refuse an image with too many.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInputError
from .patterns import Pattern, _pattern, canonical
from .permutation import Permutation, Values, _standardize, as_word


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


def _un_s_count(word: Values, memo: dict | None = None) -> int:
    """``len(_un_s_raw(word))``, by the same split and without listing the
    candidates: the candidates of one split point are the products of the
    two parts' candidates, and distinct split points put the maximum at
    distinct positions.  ``memo`` lives for one count only, so counting
    keeps no memory; the identity of length 13 fills 67 entries."""
    if len(word) < 2:
        return 1
    if memo is None:
        memo = {}
    got = memo.get(word)
    if got is None:
        i = word.index(max(word))
        alpha, beta = word[:i], word[i + 1 :]
        got = memo[word] = sum(_un_s_count(alpha[:j], memo) * _un_s_count(alpha[j:] + beta, memo)
                               for j in range(len(alpha) + 1))
    return got


def un_s(word: Iterable[int]) -> frozenset[Permutation]:
    """Candidate patterns whose stack-sorting pass can produce ``word``.

    >>> sorted(p.to_text() for p in un_s((1, 3, 2)))
    ['132', '312', '321']
    """
    return frozenset(Permutation(_standardize(w)) for w in _un_s_raw(as_word(word)))


@dataclass(frozen=True)
class ShadeMarkResult:
    """Outcome of shading and marking one accepted candidate: the marked
    mesh pattern it denotes, whose permutation is the candidate.  Each of
    its marked regions needs at least one point, and no region of one
    outcome lies inside another.  ``to_pattern`` is kept for the benchmark
    under ``perfbench/``, which reads outcomes through it."""

    pattern: Pattern

    def to_pattern(self) -> Pattern:
        return self.pattern


def _value_pairs(values: Values) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
    """(inversions, noninversions) as ordered value pairs (u, v), u before v."""
    inv = set()
    ninv = set()
    for i, u in enumerate(values):
        for v in values[i + 1 :]:
            (inv if u > v else ninv).add((u, v))
    return frozenset(inv), frozenset(ninv)


def _shade_and_mark_plain(
    lam: Values,
    ninv: Iterable[tuple[int, int]],
    inv_pairs: Iterable[tuple[int, int]],
) -> tuple | None:
    """The plain triple (:func:`patterns._insert`) of the candidate ``lam``,
    or None if it is rejected, given the image's non-inversions and its
    inversions; the pattern it denotes does not depend on their order."""
    n = len(lam)
    pos = {v: i for i, v in enumerate(lam, 1)}

    # u before v with u < v in the image: the candidate must not let a later
    # pass move anything between them, so shade the column strip where v
    # precedes u, from height v up.  Column c is shaded from floor[c] up.
    floor = [n + 1] * (n + 1)
    for u, v in ninv:
        for c in range(pos[v], pos[u]):
            floor[c] = min(floor[c], v)
    shade = frozenset((c, r) for c in range(n + 1) for r in range(floor[c], n + 1))

    # Only the least regions are kept, so no region lies inside another.
    marks: list[frozenset[tuple[int, int]]] = []
    for u, v in inv_pairs:
        i, j = pos[u], pos[v]
        # i < j, as every candidate keeps the image's inversions.
        if max(lam[i:j]) < u:
            region = frozenset((c, r) for c in range(i, j) for r in range(u, floor[c]))
            if not region:
                return None
            if not any(existing <= region for existing in marks):
                marks = [m for m in marks if not region <= m]
                marks.append(region)

    return lam, shade, tuple((region, 1) for region in marks)


def _outcomes(image: Values) -> list[tuple[Values, tuple | None]]:
    """Each candidate of the permutation ``image`` in value order, with its
    plain outcome (None if rejected).  The candidates of a permutation are
    permutations that keep its inversions, so none is standardized or checked."""
    inv, ninv = _value_pairs(image)
    return [(lam, _shade_and_mark_plain(lam, ninv, inv)) for lam in sorted(_un_s_raw(image))]


def _marked_basis(outcomes: list[tuple[Values, tuple | None]]) -> tuple[Pattern, ...]:
    """The patterns of the accepted outcomes.  Distinct candidates in value
    order are in :func:`patterns.canonical` order already."""
    return tuple(_pattern(*plain) for _, plain in outcomes if plain is not None)


def shade_and_mark(candidate: Permutation, image: Permutation) -> ShadeMarkResult | None:
    """Shading and marking for one candidate, or None if the candidate is
    rejected (some required region is entirely shaded).

    The candidate must be order-compatible with the image: every inversion
    of the image must be an inversion of the candidate.

    >>> r = shade_and_mark(Permutation.from_text("4321"), Permutation.from_text("3241"))
    >>> r.pattern.shade
    (Box(col=1, row=4), Box(col=2, row=4))
    >>> tuple(m.region for m in r.pattern.marks)
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
    plain = _shade_and_mark_plain(candidate.values, ninv, inv)
    return None if plain is None else ShadeMarkResult(_pattern(*plain))


def candidate_outcomes(image: Permutation) -> list[tuple[Permutation, ShadeMarkResult | None]]:
    """Every candidate from :func:`un_s` paired with its shade-and-mark
    outcome (None for rejected candidates), in lexicographic order.  Every
    candidate keeps the image's inversions, so the image's value pairs are
    read once and :func:`shade_and_mark`'s checks are not repeated."""
    return [(Permutation(lam), None if plain is None else ShadeMarkResult(_pattern(*plain)))
            for lam, plain in _outcomes(image.values)]


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
    return _marked_basis(_outcomes(image.values))
