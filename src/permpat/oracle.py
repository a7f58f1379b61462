"""Brute-force oracles: avoidance sets, sorting censuses, verification.

Everything here enumerates symmetric groups exhaustively: each answer up
to a bound looks at every permutation of every length up to it.  Pattern
tests run the compiled search (``patterns._search``), which
``tests/test_reference_matcher.py`` checks against a definition-level
matcher.  ``_scan`` is the module's one
enumeration of S_n, in lexicographic order: it runs a worker on the whole
of S_n, or with ``jobs > 1`` on one block per first letter in parallel,
and merges the blocks' results in order, so worker count never changes a
result.  For ``av_set``, ``preimage_av_set`` and ``verify_preimage`` the
worker asks of each permutation whether it avoids the candidate basis and
whether its image after the sorting passes avoids the image basis; each
basis is one compiled search that stops at its first hit.  ``census``
counts identity images on the same blocks, and ``_mask_block`` collects
the distinct pattern bitmasks of its block, from one compiled search of
all the patterns or from the masks of the length before, for implication
pruning (:func:`prune_basis`).

The image side of a scan depends on a permutation only through its image
after the first pass, and that pass is many-to-one (1,780 stack-sort
images among the 40,320 permutations of length 8).  So each block keeps
one dict from first-pass image to verdict, filled on a miss by the
remaining passes and the image-basis search, or for ``census`` with two
passes or more the identity test, and dropped with the block.  A verdict
is a function of the image alone, so neither the dict nor ``--jobs`` can
change a result.

``verify_preimage`` scans the lengths in order and hands each the
candidate basis's avoiders of the length before.  For π of length n, let
π⁻ be π with its letter n deleted.  If π⁻ avoids the basis, π is searched
only for occurrences whose maximum is n, at its known position (the
``"at_max"`` search); otherwise the whole first-hit search runs.  Lemma:
this is exact when no lowered basis pattern keeps a mark or a decoration
avoiding a non-classical pattern.  Proof: let O be an occurrence of p in
π that does not use n.  Deleting n removes at most one point from each of
O's regions: a shaded box stays empty, and a decoration's contents stay a
subsequence of what they were, so they still avoid a classical pattern.
So O occurs in π⁻.  Hence if π⁻ avoids the basis, every occurrence in π
uses n, which as the largest letter can only play the pattern's maximum.
A mark has no such property, as n may be its only witness, so marks are
lowered to their expansions first; any other basis gets no ``"at_max"``
search and every permutation gets the whole search.  Verdicts are exact,
so the avoider sets, like the dict, cannot change a result.  Both scans
key a permutation of length n - 1 by its letters packed as bytes
(:func:`_max_deleted`): 42 bytes at length 9, against 112 for a tuple.

:func:`prune_basis` scans the lengths in order too, and needs the other
half of the lemma: which occurrences in π⁻ survive the insertion of n.
Lemma: let O be an occurrence in π⁻ of a lowered path of p, and let the
path have no shaded or decorated box in its top row (the row above its
largest letter).  Then O is an occurrence of that path in π.  Proof:
inserting n at its position puts a point in exactly one box of O's grid,
and as n exceeds every value of O, that box is in the top row.  Every
other box keeps its contents, so its shading and decorations hold as
before; O's letters keep their relative order, and a mark only gains
points.  So with ``top`` the bits of the patterns that have a path with
such a box, π contains every pattern of π⁻'s mask outside ``top``; with
the first half, π's mask is those bits, the patterns occurring through
n, and the bits of π⁻'s mask in ``top`` that a full search confirms.
"""

from __future__ import annotations

import itertools
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


def _max_deleted(n: int) -> Callable[[Values], tuple[int, bytes]]:
    """The function that takes a permutation of length ``n`` to the index
    of its letter n and its other letters packed as bytes: the key under
    which the scan of length n - 1 keeps a permutation, as ``bytes(vals)``.
    Made once per length, as a call per permutation costs a visible share
    of the scan."""
    largest = bytes((n,))
    return lambda vals: (vals.index(n), bytes(vals).replace(largest, b""))


def _classify(
    n: int, first: int | None, op_id: str, passes: int,
    candidate: tuple[Pattern, ...], image: tuple[Pattern, ...], prev: set[bytes] | None = None,
) -> Iterator[tuple[Values, bool, bool]]:
    """The scan: each permutation of the block in lexicographic order, with
    whether it avoids the candidate basis and whether its image after
    ``passes`` passes avoids the image basis.  An empty basis is avoided
    without a look at the permutation or its image.  The image verdict is
    looked up per first-pass image (:func:`_image_test`), in one dict per
    block, so it is the same for any ``jobs``.  ``prev``, given only for a
    nonempty basis that has an ``"at_max"`` search, is the set of its
    avoiders of length n - 1, packed: a permutation whose max-deleted part
    (:func:`_max_deleted`) is in it is searched only through its maximum
    (see the module docstring)."""
    cand = _search(candidate, "first")
    at_max = _search(candidate, "at_max") if prev is not None else None
    split = _max_deleted(n)
    img = _search(image, "first")
    good = _image_test(op_id, passes, lambda w: not img(w))
    for vals in _perm_stream(n, first):
        if prev is None:
            in_av = not candidate or not cand(vals)
        else:
            x, rest = split(vals)
            in_av = not (at_max(vals, x) if rest in prev else cand(vals))
        yield vals, in_av, not image or good(vals)


def _kept_block(args) -> list[Values]:
    return [vals for vals, in_av, good in _classify(*args) if in_av and good]


def _verify_block(args) -> tuple[int, int, tuple[Values, str] | None, list[bytes]]:
    # The two counts, the block's least permutation on which the two
    # answers differ, with the side it falls on, and, when ``keep`` is set,
    # the block's avoiders of the candidate basis, packed as bytes.
    *scan, keep = args
    in_av_count = good_count = 0
    first_diff = None
    avoiders = []
    for vals, in_av, good in _classify(*scan):
        in_av_count += in_av
        good_count += good
        if in_av and keep:
            avoiders.append(bytes(vals))
        if in_av != good and first_diff is None:
            first_diff = (vals, REASON_BAD_IMAGE if in_av else REASON_CONTAINS_BASIS)
    return in_av_count, good_count, first_diff, avoiders


def _census_block(args) -> int:
    n, first, op_id, passes = args
    ident = tuple(range(1, n + 1))
    if passes > 1:
        return sum(map(_image_test(op_id, passes, ident.__eq__), _perm_stream(n, first)))
    # With one pass the dict would save only the identity test, which costs
    # no more than a lookup, and would hold up to (n-1)! bubble-sort images.
    return sum(1 for vals in _perm_stream(n, first) if _sort_power(op_id, passes, vals) == ident)


def _scan(worker, n: int, op_id: str, passes: int, jobs: int, *rest) -> list:
    """Validate the arguments every scan shares, then run ``worker`` on one
    block of S_n per first letter (one block when ``jobs`` is 1 or n < 2)
    and return the blocks' results in lexicographic order."""
    if n < 0:
        raise InvalidInputError(f"length must be nonnegative, got {n}")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    if passes < 0:
        raise InvalidInputError(f"pass count must be nonnegative, got {passes}")
    operator_fn(op_id)
    if jobs <= 1 or n < 2:
        return [worker((n, None, op_id, passes, *rest))]
    # Imported here, so that a process that never fans out does not load it.
    import multiprocessing

    # Fork starts workers fastest; spawn works everywhere, because the
    # workers are module-level functions and their arguments pickle.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with multiprocessing.get_context(method).Pool(min(jobs, n)) as pool:
        return pool.map(worker, [(n, first, op_id, passes, *rest) for first in range(1, n + 1)])


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
    blocks = _scan(_kept_block, n, op_id, passes, jobs, (), canonical(basis))
    return [Permutation(v) for block in blocks for v in block]


def census(op_id: str, passes: int, n: int, *, jobs: int = 1) -> int:
    """Number of permutations of length ``n`` sorted by ``passes``
    applications of the operator."""
    return sum(_scan(_census_block, n, op_id, passes, jobs))


def _mask_block(args) -> set[int] | tuple[dict[bytes, int], bool]:
    # The masks of the block, bit i set when a permutation contains
    # patterns[i]: when ``keep`` is set, as a map from each permutation,
    # packed as bytes, to its mask, for the next length, with whether some
    # permutation has the full mask, as the map leaves full masks out;
    # otherwise as the set of distinct masks, which is what implication
    # pruning needs of S_n.  ``prev``, the map of length n - 1, is given
    # only for patterns with a search through the maximum, and builds each
    # mask from the mask of the permutation's max-deleted part, the full
    # mask where the map has none (see :func:`prune_basis`).
    n, first, _, _, patterns, prev, keep = args
    full = _search(patterns, "mask")
    ones = (1 << len(patterns)) - 1
    if prev is None:
        mask = full
    else:
        at = _search(patterns, "mask_at_max")
        top = at.top
        split = _max_deleted(n)

        def mask(vals: Values) -> int:
            x, rest = split(vals)
            old = prev.get(rest, ones)
            found = at(vals, x, old & ~top)
            lost = old & top & ~found
            return found | full(vals, ones ^ lost) & lost if lost else found

    stream = _perm_stream(n, first)
    if not keep:
        return set(map(mask, stream))
    # Most permutations of a long enough length contain every pattern, so
    # the map keeps only the others.
    kept = {}
    full_seen = False
    for vals in stream:
        m = mask(vals)
        if m == ones:
            full_seen = True
        else:
            kept[bytes(vals)] = m
    return kept, full_seen


def prune_basis(basis: Iterable[Pattern], n_max: int) -> tuple[Pattern, ...]:
    """Greedily drop basis patterns implied by the rest, keeping avoidance
    sets identical for every length up to ``n_max``, and return the
    canonical tuple of the patterns kept.  The result is only verified up
    to that bound.  Patterns of every kind are accepted.

    One scan per length (:func:`_scan`) collects the distinct bitmasks of
    basis patterns that some permutation contains.  Where the patterns have
    a search through the maximum, each length but the last keeps every
    permutation's mask for the next, the full mask by default rather than
    stored, and the mask of π of length n is
    built from that of π⁻, π with its letter n deleted: the patterns
    occurring through n, found by that search seeded with the bits already
    known, and the bits of π⁻ outside ``top``, carried over, since an
    occurrence in π⁻ survives the insertion of n unless n lands in a
    shaded or decorated box of the top row (module docstring).  Only the
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
    ones = (1 << len(patterns)) - 1
    masks: set[int] = set()
    prev = None
    for n in range(1, n_max + 1):
        keep = through and n < n_max
        (block,) = _scan(_mask_block, n, "stack", 0, 1, patterns, prev, keep)
        if keep:
            prev, full_seen = block
            masks.update(prev.values())
            if full_seen:
                masks.add(ones)
        else:
            prev = None
            masks.update(block)
    kept = ones
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

    Each length is one scan of S_n that asks both questions of every
    permutation, counts both sides and keeps the first permutation on which
    they differ.  With ``jobs > 1`` the scan is split into one block per
    first letter; the counts are summed and the first disagreement over the
    blocks in order is the least counterexample, so the report does not
    depend on the worker count.  The failing length is scanned to its end,
    so its row carries full counts, and verification stops there.  Before a
    longer length, blocks also return their avoiders of a candidate basis
    that has an ``"at_max"`` search, for the next length (module docstring).

    >>> from .patterns import classical
    >>> verify_preimage([classical("231")], [classical("2341")], "stack", 1, 4).status
    'fail'
    """
    if n_max < 1:
        raise InvalidBoundError(f"verification bound must be >= 1, got {n_max}")
    image = canonical(image_basis)
    candidate = canonical(candidate_basis)
    closed = bool(candidate) and _search(candidate, "at_max") is not None
    rows: list[tuple[int, int, int, bool]] = []
    counterexample: tuple[Permutation, str] | None = None
    prev = None
    for n in range(1, n_max + 1):
        keep = closed and n < n_max
        blocks = _scan(_verify_block, n, op_id, passes, jobs, candidate, image, prev, keep)
        diffs = [b[2] for b in blocks if b[2] is not None]
        rows.append((n, sum(b[0] for b in blocks), sum(b[1] for b in blocks), not diffs))
        if diffs:
            vals, reason = diffs[0]
            counterexample = (Permutation(vals), reason)
            break
        prev = set().union(*(b[3] for b in blocks)) if keep else None
    return VerificationReport(op_id, passes, tuple(rows), counterexample)
