"""Brute-force oracles: avoidance sets, sorting censuses, verification.

Everything here enumerates symmetric groups exhaustively, which keeps the
results independent of the pattern machinery's cleverer paths and makes the
module the referee for the rest of the package.  One scan serves
``av_set``, ``preimage_av_set`` and ``verify_preimage``: it walks S_n in
lexicographic order and asks of each permutation whether it avoids the
candidate basis and whether its image after the sorting passes avoids the
image basis; each basis is one compiled search that stops at its first
hit.  ``census`` counts identity images on the same blocks, and
``containment_masks`` feeds implication pruning one pattern bitmask per
permutation, from one compiled search of all the patterns.  With
``jobs > 1`` a scan is split into one block per first letter and the
blocks are merged in order, so worker count never changes a result.

The image side of a scan depends on a permutation only through its image
after the first pass, and that pass is many-to-one (1,780 stack-sort
images among the 40,320 permutations of length 8).  So each block keeps
one dict from first-pass image to verdict, filled on a miss by the
remaining passes and the image-basis search, or for ``census`` with two
passes or more the identity test, and dropped with the block.  A verdict
is a function of the image alone, so neither the dict nor ``--jobs`` can
change a result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidBoundError, InvalidInputError
from .patterns import Pattern, _search, canonical
from .permutation import Permutation, Values, _sort_power, operator_fn

__all__ = [
    "VerificationReport",
    "REASON_BAD_IMAGE",
    "REASON_CONTAINS_BASIS",
    "av_set",
    "census",
    "containment_masks",
    "preimage_av_set",
    "reference_count",
    "verify_preimage",
]

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


def _classify(
    n: int, first: int | None, op_id: str, passes: int,
    candidate: tuple[Pattern, ...], image: tuple[Pattern, ...],
) -> Iterator[tuple[Values, bool, bool]]:
    """The scan: each permutation of the block in lexicographic order, with
    whether it avoids the candidate basis and whether its image after
    ``passes`` passes avoids the image basis.  An empty basis is avoided
    without a look at the permutation or its image.  The image verdict is
    looked up per first-pass image (:func:`_image_test`), in one dict per
    block, so it is the same for any ``jobs``."""
    cand = _search(candidate, "first")
    img = _search(image, "first")
    good = _image_test(op_id, passes, lambda w: not img(w))
    for vals in _perm_stream(n, first):
        in_av = not candidate or not cand(vals)
        yield vals, in_av, not image or good(vals)


def _kept_block(args) -> list[Values]:
    return [vals for vals, in_av, good in _classify(*args) if in_av and good]


def _verify_block(args) -> tuple[int, int, tuple[Values, str] | None]:
    # The two counts, and the block's least permutation on which the two
    # answers differ, with the side it falls on.
    in_av_count = good_count = 0
    first_diff = None
    for vals, in_av, good in _classify(*args):
        in_av_count += in_av
        good_count += good
        if in_av != good and first_diff is None:
            first_diff = (vals, REASON_BAD_IMAGE if in_av else REASON_CONTAINS_BASIS)
    return in_av_count, good_count, first_diff


def _census_block(args) -> int:
    n, first, op_id, passes = args
    ident = tuple(range(1, n + 1))
    if passes > 1:
        return sum(map(_image_test(op_id, passes, ident.__eq__), _perm_stream(n, first)))
    # With one pass the dict would save only the identity test, which costs
    # no more than a lookup, and would hold up to (n-1)! bubble-sort images.
    return sum(1 for vals in _perm_stream(n, first) if _sort_power(op_id, passes, vals) == ident)


def _run_blocks(worker, argslist: list, jobs: int) -> list:
    if jobs <= 1 or len(argslist) <= 1:
        return [worker(a) for a in argslist]
    # Fork starts workers fastest; spawn works everywhere, because the
    # workers are module-level functions and their arguments pickle.
    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    with get_context(method).Pool(min(jobs, len(argslist))) as pool:
        return pool.map(worker, argslist)


def _scan(worker, n: int, op_id: str, passes: int, jobs: int, *bases) -> list:
    """Validate the arguments every scan shares, then run ``worker`` on one
    block of S_n per first letter (one block when ``jobs`` is 1) and return
    the blocks' results in lexicographic order."""
    if n < 0:
        raise InvalidInputError(f"length must be nonnegative, got {n}")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    if passes < 0:
        raise InvalidInputError(f"pass count must be nonnegative, got {passes}")
    operator_fn(op_id)
    firsts = [None] if jobs <= 1 or n < 2 else range(1, n + 1)
    return _run_blocks(worker, [(n, first, op_id, passes, *bases) for first in firsts], jobs)


def av_set(n: int, basis: Iterable[Pattern], *, jobs: int = 1) -> list[Permutation]:
    """Permutations of length ``n`` avoiding every basis pattern, in
    lexicographic order.  An empty basis yields all of S_n.

    >>> from .patterns import classical
    >>> len(av_set(4, [classical("231")]))
    14
    """
    # The image basis is empty, so no sorting pass is ever applied.
    blocks = _scan(_kept_block, n, "stack", 0, jobs, canonical(basis), ())
    return [Permutation(v) for block in blocks for v in block]


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


def containment_masks(n: int, patterns: Sequence[Pattern]) -> Iterator[tuple[Values, int]]:
    """Each permutation of length ``n`` in lexicographic order, with a mask
    whose bit i is set when it contains ``patterns[i]``.  Used for
    implication pruning.

    >>> from .patterns import classical
    >>> list(containment_masks(2, [classical("12"), classical("21")]))
    [((1, 2), 1), ((2, 1), 2)]
    """
    search = _search(tuple(patterns), "mask")
    for vals in _perm_stream(n, None):
        yield vals, search(vals)


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
    so its row carries full counts, and verification stops there.

    >>> from .patterns import classical
    >>> verify_preimage([classical("231")], [classical("2341")], "stack", 1, 4).status
    'fail'
    """
    if n_max < 1:
        raise InvalidBoundError(f"verification bound must be >= 1, got {n_max}")
    image = canonical(image_basis)
    candidate = canonical(candidate_basis)
    rows: list[tuple[int, int, int, bool]] = []
    counterexample: tuple[Permutation, str] | None = None
    for n in range(1, n_max + 1):
        blocks = _scan(_verify_block, n, op_id, passes, jobs, candidate, image)
        diffs = [diff for _, _, diff in blocks if diff is not None]
        rows.append((n, sum(b[0] for b in blocks), sum(b[1] for b in blocks), not diffs))
        if diffs:
            vals, reason = diffs[0]
            counterexample = (Permutation(vals), reason)
            break
    return VerificationReport(op_id, passes, tuple(rows), counterexample)


def reference_count(class_id: str, n: int) -> int:
    """Closed-form reference counts, exact for all ``n``:

    * ``catalan``: the Catalan number C(2n, n) / (n + 1), the size of
      Av_n(231) and the one-pass stack census.
    * ``west2``: 2 (3n)! / ((n+1)! (2n+1)!), the two-pass stack census.

    >>> [reference_count("west2", n) for n in range(1, 6)]
    [1, 2, 6, 22, 91]
    """
    if n < 0:
        raise InvalidInputError(f"length must be nonnegative, got {n}")
    if class_id == "catalan":
        return math.comb(2 * n, n) // (n + 1)
    if class_id == "west2":
        # the formula's combinatorial meaning starts at n = 1
        if n < 1:
            raise InvalidInputError(f"west2 counts are defined for n >= 1, got {n}")
        num = 2 * math.factorial(3 * n)
        den = math.factorial(n + 1) * math.factorial(2 * n + 1)
        quotient, remainder = divmod(num, den)
        if remainder:
            raise ArithmeticError(f"west2 formula is not integral at n={n}")
        return quotient
    raise InvalidInputError(f"unknown counting formula {class_id!r}")
