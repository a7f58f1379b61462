"""Brute-force oracles: avoidance sets, sorting censuses, verification.

Everything here enumerates symmetric groups exhaustively: each answer up
to a bound looks at every permutation of every length up to it.  Pattern
tests run the compiled search (``patterns._search``), which
``tests/test_reference_matcher.py`` checks against a definition-level
matcher.  For each permutation the workers ask whether it avoids the
candidate basis, and whether its image after the sorting passes avoids
the image basis; each basis is one compiled search that stops at its
first hit.  ``census`` counts identity images instead, and
:func:`prune_basis` collects the distinct bitmasks of the patterns each
permutation contains.

S_n is enumerated in one of two orders, and a worker runs on the whole
of it, or with ``jobs > 1`` on blocks in parallel whose results are
merged so that worker count never changes a result.  ``_scan`` lists S_n
in lexicographic order, in one block per first letter.  ``census``,
``av_set`` and ``preimage_av_set`` use it: they carry nothing from one
length to the next, and the two avoidance sets are returned as
lexicographic lists, which the blocks then give by concatenation.
``verify_preimage`` and :func:`prune_basis` carry one value per
permutation from each length to the next, and list S_n (``_tree``, in
blocks by ``_tree_blocks``) in the order of the generating tree of
inserting the maximum (West, "Generating trees and the Catalan and
Schröder numbers", 1995).  The root
is the empty permutation, and the children of σ of length n - 1 are the
permutations σ[:x] + (n,) + σ[x:] for x = 0, 1, ..., n - 1.  Tree order
lists the parents in the tree order of length n - 1 and each parent's
children by x.  So a length reads the values of the length before in
order, from a flat array, with no map keyed by permutations, and the
subtree under any node holds a contiguous slice of every length below
it: with ``jobs > 1`` each block is the subtree under one node of a
shallow level and is handed only its slice of the values.

The image side of a scan depends on a permutation only through its image
after the first pass, and that pass is many-to-one (1,780 stack-sort
images among the 40,320 permutations of length 8).  So each block keeps
one dict from first-pass image to verdict, filled on a miss by the
remaining passes and the image-basis search, or for ``census`` with two
passes or more the identity test, and dropped with the block.  A verdict
is a function of the image alone, so neither the dict nor ``--jobs`` can
change a result.

On the candidate side of ``verify_preimage``, the value of a permutation
is what the first-hit search returns: 0 when it avoids the basis, and
otherwise an odd int whose bit x + 1 is set when a new maximum inserted
at index x would land in a shaded or decorated box of the top row (the
row above the largest letter) of the lowered path whose occurrence O the
search found.  Let π be the child of σ at x.  Two lemmas decide π from
σ's value.

Deletion lemma: if σ avoids the basis, every occurrence in π uses n.
This is exact when no lowered basis pattern keeps a mark or a decoration
avoiding a non-classical pattern.  Proof: let O be an occurrence of p in
π that does not use n.  Deleting n removes at most one point from each
of O's regions: a shaded box stays empty, and a decoration's contents
stay a subsequence of what they were, so they still avoid a classical
pattern.  So O occurs in σ.  Hence if σ avoids the basis, every
occurrence in π uses n, which as the largest letter can only play the
pattern's maximum, and π is searched only for those occurrences (the
``"at_max"`` search).  A mark has no such property, as n may be its only
witness, so marks are lowered to their expansions first; any other basis
gets no ``"at_max"`` search, and a child of an avoider gets the whole
search.

Survival lemma: if bit x + 1 of σ's value is clear, O is an occurrence
in π of the same path, so π contains the basis.  This holds for every
basis.  Proof: inserting n at x puts a point in exactly one box of O's
grid.  As n exceeds every value of O, that box is in the top row, in the
column c whose insertion indices run from one past O's letter c to O's
letter c + 1 (0 and the length at the borders).  Every other box keeps
its contents, so its shading, marks and decorations hold as before; the
box that gains n is neither shaded nor decorated, as its bit is clear,
and a mark only gains points.  O's letters keep their relative order.
So O occurs in π.  The box that gains n then spans one more insertion
index, and the boxes right of it move one index on.  So with d = h >> 1
for σ's value h, π's value is σ's bits with a clear bit inserted at
x + 1, found with no search:

    1 | (d & ((1 << x) - 1) | (d >> x) << (x + 1)) << 1

When the bit is set, n may break O, and π gets the whole search.  Every
verdict is exact, so neither the order nor the blocks can change a
result.

:func:`prune_basis` scans the tree too, with the survival lemma applied
to whole patterns: with ``top`` the bits of the patterns that have a
lowered path with a shaded or decorated box in its top row, π contains
every pattern of σ's mask outside ``top``.  With the deletion lemma,
π's mask is those bits, the patterns occurring through n, and the bits
of σ's mask in ``top`` that a full search confirms.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import InvalidBoundError, InvalidInputError
from .patterns import Pattern, _search, canonical
from .permutation import Permutation, Values, _sort_power, operator_fn

REASON_BAD_IMAGE = "in-Av-but-bad-image"
REASON_CONTAINS_BASIS = "image-good-but-contains-basis"


def _perm_stream(n: int, first: int | None) -> Iterator[Values]:
    if first is None:
        yield from itertools.permutations(range(1, n + 1))
        return
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        yield (first,) + tail


def _image_test(op_id: str, passes: int, test: Callable[[Values], bool]) -> Callable[[Values], bool]:
    """``test`` of a permutation's image after ``passes`` passes.  With one
    pass or more, that image is a function of the image after the first
    pass, so ``test`` runs once per distinct first-pass image and its
    verdict is kept in a dict that lives as long as the returned function.
    With no pass, ``test`` itself is returned."""
    if passes == 0:
        return test
    step = operator_fn(op_id)
    verdicts: dict[Values, bool] = {}

    def image_test(vals: Values) -> bool:
        once = step(vals)
        verdict = verdicts.get(once)
        if verdict is None:
            verdict = verdicts[once] = test(_sort_power(op_id, passes - 1, once))
        return verdict

    return image_test


def _kept_block(args) -> list[Values]:
    # The permutations of the block in lexicographic order whose image
    # after ``passes`` passes avoids the image basis; an empty basis is
    # avoided without a look at the image.
    n, first, op_id, passes, image = args
    img = _search(image, "first")
    good = _image_test(op_id, passes, lambda w: not img(w))
    return [vals for vals in _perm_stream(n, first) if not image or good(vals)]


def _census_block(args) -> int:
    n, first, op_id, passes = args
    ident = tuple(range(1, n + 1))
    if passes > 1:
        return sum(map(_image_test(op_id, passes, ident.__eq__), _perm_stream(n, first)))
    # With one pass the dict would save only the identity test, which costs
    # no more than a lookup, and would hold up to (n-1)! bubble-sort images.
    return sum(1 for vals in _perm_stream(n, first) if _sort_power(op_id, passes, vals) == ident)


def _check_scan(n: int, op_id: str, passes: int, jobs: int) -> None:
    """Refuse the arguments that no scan accepts."""
    if n < 0:
        raise InvalidInputError(f"length must be nonnegative, got {n}")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    if passes < 0:
        raise InvalidInputError(f"pass count must be nonnegative, got {passes}")
    operator_fn(op_id)


def _run_blocks(worker, blocks: list[tuple], jobs: int) -> list:
    """``worker`` on each block's arguments, in a pool of up to ``jobs``
    processes when there is more than one block, with the results in the
    blocks' order."""
    if jobs <= 1 or len(blocks) < 2:
        return list(map(worker, blocks))
    # Imported here, so that a process that never fans out does not load it.
    import multiprocessing

    # Fork starts workers fastest; spawn works everywhere, because the
    # workers are module-level functions and their arguments pickle.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with multiprocessing.get_context(method).Pool(min(jobs, len(blocks))) as pool:
        return pool.map(worker, blocks)


def _scan(worker, n: int, op_id: str, passes: int, jobs: int, *rest) -> list:
    """Validate the arguments every scan shares, then run ``worker`` on one
    block of S_n per first letter (one block when ``jobs`` is 1 or n < 2)
    and return the blocks' results in lexicographic order."""
    _check_scan(n, op_id, passes, jobs)
    firsts = [None] if jobs <= 1 or n < 2 else range(1, n + 1)
    return _run_blocks(worker, [(n, first, op_id, passes, *rest) for first in firsts], jobs)


def _tree(root: Values, n: int) -> Iterator[Values]:
    """The permutations of length ``n`` below ``root`` in tree order."""
    if n == len(root):
        yield root
        return
    largest = (n,)
    for vals in _tree(root, n - 1):
        for x in range(n):
            yield vals[:x] + largest + vals[x:]


def _tree_blocks(n: int, jobs: int, prev, *rest) -> list[tuple]:
    """The arguments ``(n, root, slice, *rest)`` of the blocks of S_n in
    tree order: the whole tree under the empty root when ``jobs`` is 1,
    else the subtree under each node of the least level with at least
    ``2 * jobs`` nodes, or of level n - 1 if that is lower.  ``prev`` holds
    a value per permutation of length n - 1 in tree order, or is None; each
    block gets the slice of the permutations under its root."""
    level = 0
    while jobs > 1 and level < n - 1 and math.factorial(level) < 2 * jobs:
        level += 1
    # Levels 0 and 1 have one node each.
    if level < 2:
        return [(n, (), prev, *rest)]
    roots = list(_tree((), level))
    size = math.factorial(n - 1) // len(roots)
    return [(n, root, None if prev is None else prev[j * size:(j + 1) * size], *rest)
            for j, root in enumerate(roots)]


def _classify(
    n: int, root: Values, prev: array, op_id: str, passes: int,
    candidate: tuple[Pattern, ...], image: tuple[Pattern, ...],
) -> Iterator[tuple[Values, int, bool]]:
    """The scan: each permutation of length ``n`` below ``root`` in tree
    order, with its value for the candidate basis, 0 when it avoids it
    (module docstring), and whether its image after ``passes`` passes
    avoids the image basis.  ``prev`` holds the values of the permutations
    of length n - 1 below ``root``, in tree order: a child of an avoider is
    searched through its maximum where the basis has that search, a child
    at a clear bit of its parent's value inherits it, and any other gets
    the whole first-hit search.  An empty image basis is avoided without a
    look at the image.  The image verdict is looked up per first-pass image
    (:func:`_image_test`), in one dict per block, so it is the same for any
    ``jobs``."""
    cand = _search(candidate, "first")
    at_max = _search(candidate, "at_max") or (lambda vals, x: cand(vals))
    img = _search(image, "first")
    good = _image_test(op_id, passes, lambda w: not img(w))
    largest = (n,)
    for parent, h in zip(_tree(root, n - 1), prev):
        d = h >> 1
        for x in range(n):
            vals = parent[:x] + largest + parent[x:]
            if not h:
                value = at_max(vals, x)
            elif d >> x & 1:
                value = cand(vals)
            else:
                value = 1 | (d & ((1 << x) - 1) | (d >> x) << (x + 1)) << 1
            yield vals, value, not image or good(vals)


def _verify_block(args) -> tuple[int, int, tuple[Values, str] | None, array | None]:
    # The two counts, the block's least permutation on which the two
    # answers differ, with the side it falls on, and, when ``keep`` is set,
    # the block's values in tree order, for the next length.
    n, root, prev, op_id, passes, candidate, image, keep = args
    in_av_count = good_count = 0
    least = None
    values = array("Q") if keep else None
    for vals, value, good in _classify(n, root, prev, op_id, passes, candidate, image):
        in_av = not value
        in_av_count += in_av
        good_count += good
        if keep:
            values.append(value)
        if in_av != good and (least is None or vals < least[0]):
            least = (vals, REASON_BAD_IMAGE if in_av else REASON_CONTAINS_BASIS)
    return in_av_count, good_count, least, values


def av_set(n: int, basis: Iterable[Pattern], *, jobs: int = 1) -> list[Permutation]:
    """Permutations of length ``n`` avoiding every basis pattern, in
    lexicographic order.  An empty basis yields all of S_n.

    >>> from .patterns import classical
    >>> len(av_set(4, [classical("231")]))
    14
    """
    # With no pass, a permutation is its own image.
    return preimage_av_set(n, "stack", 0, basis, jobs=jobs)


def preimage_av_set(
    n: int, op_id: str, passes: int, basis: Iterable[Pattern], *, jobs: int = 1
) -> list[Permutation]:
    """Permutations whose image under ``passes`` applications of the
    operator avoids every basis pattern, in lexicographic order."""
    blocks = _scan(_kept_block, n, op_id, passes, jobs, canonical(basis))
    return [Permutation(v) for block in blocks for v in block]


def census(op_id: str, passes: int, n: int, *, jobs: int = 1) -> int:
    """Number of permutations of length ``n`` sorted by ``passes``
    applications of the operator."""
    return sum(_scan(_census_block, n, op_id, passes, jobs))


def _mask_block(args) -> list[int] | set[int]:
    # The masks of the block, bit i set when a permutation contains
    # patterns[i]: when ``keep`` is set, as a list in tree order, for the
    # next length; otherwise as the set of distinct masks, which is what
    # implication pruning needs of S_n.  ``prev``, the masks of length
    # n - 1 below ``root``, is given only for patterns with a search
    # through the maximum, and builds each mask from its parent's (see
    # :func:`prune_basis`).
    n, root, prev, patterns, keep = args
    full = _search(patterns, "mask")
    if prev is None:
        masks = map(full, _tree(root, n))
    else:
        at = _search(patterns, "mask_at_max")
        top = at.top
        ones = (1 << len(patterns)) - 1

        def children() -> Iterator[int]:
            largest = (n,)
            for parent, old in zip(_tree(root, n - 1), prev):
                for x in range(n):
                    vals = parent[:x] + largest + parent[x:]
                    found = at(vals, x, old & ~top)
                    lost = old & top & ~found
                    yield found | full(vals, ones ^ lost) & lost if lost else found

        masks = children()
    return list(masks) if keep else set(masks)


def prune_basis(basis: Iterable[Pattern], n_max: int) -> tuple[Pattern, ...]:
    """Greedily drop basis patterns implied by the rest, keeping avoidance
    sets identical for every length up to ``n_max``, and return the
    canonical tuple of the patterns kept.  The result is only verified up
    to that bound.  Patterns of every kind are accepted.

    One scan per length (:func:`_tree_blocks`) collects the distinct
    bitmasks of basis patterns that some permutation contains.  Where the
    patterns have a search through the maximum, each length but the last
    keeps every permutation's mask, in tree order, for the next, and the
    mask of π of length n is built from that of its parent σ, π with its
    letter n deleted: the patterns occurring through n, found by that
    search seeded with the bits already known, and the bits of σ outside
    ``top``, carried over, since an occurrence in σ survives the insertion
    of n unless n lands in a shaded or decorated box of the top row
    (module docstring).  Only the
    bits of π⁻ in ``top`` that neither part set are searched for in full,
    by a search seeded so that it looks for no other pattern.  Any other
    basis is searched in full on every permutation.  In basis order, a
    pattern q is dropped when some mask has q's bit and every such mask
    also has the bit of another pattern still kept: every permutation
    containing q then contains one of them, so the avoidance sets do not
    change.  A pattern that no permutation up to the bound contains is
    kept, because the scan shows nothing that implies it.

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

    through = _search(patterns, "mask_at_max") is not None
    masks: set[int] = set()
    # The root's mask, that of the empty permutation.
    prev = [_search(patterns, "mask")(())] if through else None
    for n in range(1, n_max + 1):
        keep = through and n < n_max
        (block,) = _run_blocks(_mask_block, _tree_blocks(n, 1, prev, patterns, keep), 1)
        masks.update(block)
        prev = block if keep else None
    kept = (1 << len(patterns)) - 1
    for i in range(len(patterns)):
        q = 1 << i
        if any(mask & q for mask in masks) and all(mask & kept & ~q for mask in masks if mask & q):
            kept &= ~q
    return tuple(p for i, p in enumerate(patterns) if kept >> i & 1)


@dataclass(frozen=True)
class VerificationReport:
    """Result of comparing a candidate basis against a sorting preimage,
    length by length.  ``counts`` rows are (n, candidate avoidance count,
    preimage count, sets equal); on failure ``counterexample`` is the
    lexicographically least permutation in the symmetric difference at the
    least failing length, with the reason it fails."""

    op_id: str
    passes: int
    counts: tuple[tuple[int, int, int, bool], ...]
    counterexample: tuple[Permutation, str] | None = None

    @property
    def checked_n(self) -> tuple[int, ...]:
        return tuple(row[0] for row in self.counts)

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_text(self) -> str:
        lines = [f"{'n':>3} {'|Av|':>10} {'|preimage|':>10}  equal"]
        for n, a, b, eq in self.counts:
            lines.append(f"{n:>3} {a:>10} {b:>10}  {'yes' if eq else 'NO'}")
        if self.passed:
            lines.append("PASS")
        else:
            perm, reason = self.counterexample
            lines.append(f"FAIL {perm.to_text()} {reason}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out = {
            "op": self.op_id,
            "passes": self.passes,
            "checked_n": list(self.checked_n),
            "counts": [
                {"n": n, "avoidance": a, "preimage": b, "equal": eq}
                for n, a, b, eq in self.counts
            ],
            "status": self.status,
        }
        if self.counterexample is not None:
            perm, reason = self.counterexample
            out["counterexample"] = {"perm": list(perm.values), "reason": reason}
        return out


def verify_preimage(
    image_basis: Iterable[Pattern],
    candidate_basis: Iterable[Pattern],
    op_id: str,
    passes: int,
    n_max: int,
    *,
    jobs: int = 1,
) -> VerificationReport:
    """Check, for every length up to ``n_max``, that the avoidance set of
    the candidate basis equals the preimage of the avoidance set of the
    image basis.

    Each length is one scan of S_n in tree order (module docstring) that
    asks both questions of every permutation, counts both sides and keeps
    the least permutation on which they differ.  With ``jobs > 1`` the scan
    is split into subtree blocks; the counts are summed and the least of
    the blocks' differences is the least counterexample, so the report does
    not depend on the worker count.  The failing length is scanned to its
    end, so its row carries full counts, and verification stops there.
    Before a longer length, blocks also return their candidate values, in
    tree order, for the next length.

    >>> from .patterns import classical
    >>> verify_preimage([classical("231")], [classical("2341")], "stack", 1, 4).status
    'fail'
    """
    if n_max < 1:
        raise InvalidBoundError(f"verification bound must be >= 1, got {n_max}")
    _check_scan(n_max, op_id, passes, jobs)
    image = canonical(image_basis)
    candidate = canonical(candidate_basis)
    rows: list[tuple[int, int, int, bool]] = []
    counterexample: tuple[Permutation, str] | None = None
    # The root's value, that of the empty permutation.
    prev = array("Q", [_search(candidate, "first")(())])
    for n in range(1, n_max + 1):
        keep = n < n_max
        blocks = _run_blocks(_verify_block, _tree_blocks(
            n, jobs, prev, op_id, passes, candidate, image, keep), jobs)
        diffs = [b[2] for b in blocks if b[2] is not None]
        rows.append((n, sum(b[0] for b in blocks), sum(b[1] for b in blocks), not diffs))
        if diffs:
            vals, reason = min(diffs)
            counterexample = (Permutation(vals), reason)
            break
        if keep:
            prev = blocks[0][3]
            for b in blocks[1:]:
                prev.extend(b[3])
    return VerificationReport(op_id, passes, tuple(rows), counterexample)
