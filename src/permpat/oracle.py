"""Brute-force oracles: avoidance sets, sorting censuses, verification.

Everything here enumerates symmetric groups exhaustively, which keeps the
results independent of the pattern machinery's cleverer paths and makes the
module the referee for the rest of the package.  Enumeration is in
lexicographic order throughout, so results are deterministic; with
``jobs > 1`` the work is split into one block per first letter and the
blocks are merged in order, so worker count never changes a result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Iterable, Iterator, Sequence

from .errors import InvalidBoundError, InvalidInputError
from .fixtures import FIXTURE_NAMES, FIXTURE_TARGETS, builtin_basis
from .patterns import Diagram, Matcher, Pattern, pattern_sort_key
from .permutation import Permutation, Values, _sort_power, operator_fn

__all__ = [
    "FIXTURE_NAMES",
    "FIXTURE_TARGETS",
    "VerificationReport",
    "REASON_BAD_IMAGE",
    "REASON_CONTAINS_BASIS",
    "av_set",
    "builtin_basis",
    "census",
    "containing_tuples",
    "preimage_av_set",
    "reference_count",
    "verify_preimage",
]

REASON_BAD_IMAGE = "in-Av-but-bad-image"
REASON_CONTAINS_BASIS = "image-good-but-contains-basis"


def _check_n(n: int) -> None:
    if n < 0:
        raise InvalidInputError(f"length must be nonnegative, got {n}")


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")


def _perm_stream(n: int, first: int | None) -> Iterator[Values]:
    if first is None:
        yield from itertools.permutations(range(1, n + 1))
        return
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in itertools.permutations(rest):
        yield (first,) + tail


def _canonical_patterns(basis: Iterable[Pattern]) -> tuple[Pattern, ...]:
    return tuple(sorted(set(basis), key=pattern_sort_key))


def _avoids_all(matchers: Sequence[Matcher], values: Values) -> bool:
    diag = Diagram(values)
    return not any(m.contains(diag) for m in matchers)


def _av_block(args) -> list[Values]:
    n, first, patterns = args
    matchers = [Matcher(p) for p in patterns]
    return [vals for vals in _perm_stream(n, first) if _avoids_all(matchers, vals)]


def _preimage_block(args) -> list[Values]:
    n, first, op_id, passes, patterns = args
    matchers = [Matcher(p) for p in patterns]
    return [
        vals
        for vals in _perm_stream(n, first)
        if _avoids_all(matchers, _sort_power(op_id, passes, vals))
    ]


def _census_block(args) -> int:
    n, first, op_id, passes = args
    ident = tuple(range(1, n + 1))
    return sum(1 for vals in _perm_stream(n, first) if _sort_power(op_id, passes, vals) == ident)


def _run_blocks(worker, argslist: list, jobs: int) -> list:
    if jobs <= 1 or len(argslist) <= 1:
        return [worker(a) for a in argslist]
    # Fork starts workers fastest; spawn works everywhere, because the
    # workers are module-level functions and their arguments pickle.
    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    with get_context(method).Pool(min(jobs, len(argslist))) as pool:
        return pool.map(worker, argslist)


def _blocks(n: int, jobs: int) -> list[int | None]:
    if jobs <= 1 or n < 2:
        return [None]
    return list(range(1, n + 1))


def _av_tuples(n: int, basis: Iterable[Pattern], jobs: int = 1) -> list[Values]:
    patterns = _canonical_patterns(basis)
    results = _run_blocks(_av_block, [(n, b, patterns) for b in _blocks(n, jobs)], jobs)
    return [vals for block in results for vals in block]


def _preimage_tuples(
    n: int, op_id: str, passes: int, basis: Iterable[Pattern], jobs: int = 1
) -> list[Values]:
    patterns = _canonical_patterns(basis)
    results = _run_blocks(
        _preimage_block, [(n, b, op_id, passes, patterns) for b in _blocks(n, jobs)], jobs
    )
    return [vals for block in results for vals in block]


def av_set(n: int, basis: Iterable[Pattern], *, jobs: int = 1) -> list[Permutation]:
    """Permutations of length ``n`` avoiding every basis pattern, in
    lexicographic order.  An empty basis yields all of S_n.

    >>> from .patterns import classical
    >>> len(av_set(4, [classical("231")]))
    14
    """
    _check_n(n)
    _check_jobs(jobs)
    return [Permutation(v) for v in _av_tuples(n, basis, jobs)]


def preimage_av_set(
    n: int, op_id: str, passes: int, basis: Iterable[Pattern], *, jobs: int = 1
) -> list[Permutation]:
    """Permutations whose image under ``passes`` applications of the
    operator avoids every basis pattern, in lexicographic order."""
    _check_n(n)
    _check_jobs(jobs)
    if passes < 0:
        raise InvalidInputError(f"pass count must be nonnegative, got {passes}")
    operator_fn(op_id)
    return [Permutation(v) for v in _preimage_tuples(n, op_id, passes, basis, jobs)]


def census(op_id: str, passes: int, n: int, *, jobs: int = 1) -> int:
    """Number of permutations of length ``n`` sorted by ``passes``
    applications of the operator."""
    _check_n(n)
    _check_jobs(jobs)
    if passes < 0:
        raise InvalidInputError(f"pass count must be nonnegative, got {passes}")
    operator_fn(op_id)
    blocks = [(n, b, op_id, passes) for b in _blocks(n, jobs)]
    return sum(_run_blocks(_census_block, blocks, jobs))


@dataclass(frozen=True)
class VerificationReport:
    """Result of comparing a candidate basis against a sorting preimage,
    length by length.  ``counts`` rows are (n, candidate avoidance count,
    preimage count, sets equal); on failure ``counterexample`` is the
    lexicographically least permutation in the symmetric difference at the
    least failing length, with the reason it fails."""

    op_id: str
    passes: int
    checked_n: tuple[int, ...]
    counts: tuple[tuple[int, int, int, bool], ...]
    passed: bool
    counterexample: tuple[Permutation, str] | None = None

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


def _first_difference(a: list[Values], b: list[Values]) -> tuple[Permutation, str]:
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] < b[j]:
            return Permutation(a[i]), REASON_BAD_IMAGE
        else:
            return Permutation(b[j]), REASON_CONTAINS_BASIS
    if i < len(a):
        return Permutation(a[i]), REASON_BAD_IMAGE
    return Permutation(b[j]), REASON_CONTAINS_BASIS


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
    image basis.  Stops at the first failing length.

    >>> from .patterns import classical
    >>> verify_preimage([classical("231")], [classical("2341")], "stack", 1, 4).status
    'fail'
    """
    if n_max < 1:
        raise InvalidBoundError(f"verification bound must be >= 1, got {n_max}")
    _check_jobs(jobs)
    operator_fn(op_id)
    image = _canonical_patterns(image_basis)
    candidate = _canonical_patterns(candidate_basis)
    checked: list[int] = []
    rows: list[tuple[int, int, int, bool]] = []
    counterexample: tuple[Permutation, str] | None = None
    for n in range(1, n_max + 1):
        a = _av_tuples(n, candidate, jobs)
        b = _preimage_tuples(n, op_id, passes, image, jobs)
        equal = a == b
        checked.append(n)
        rows.append((n, len(a), len(b), equal))
        if not equal:
            counterexample = _first_difference(a, b)
            break
    return VerificationReport(
        op_id=op_id,
        passes=passes,
        checked_n=tuple(checked),
        counts=tuple(rows),
        passed=counterexample is None,
        counterexample=counterexample,
    )


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


@functools.lru_cache(maxsize=256)
def containing_tuples(n: int, pat: Pattern) -> frozenset[Values]:
    """Value tuples of the permutations of length ``n`` containing ``pat``.
    Cached; used for implication pruning."""
    matcher = Matcher(pat)
    return frozenset(
        vals for vals in itertools.permutations(range(1, n + 1)) if matcher.contains(Diagram(vals))
    )
