"""Shared helpers: exhaustive permutation streams, closed-form counts and
seeded random patterns."""
from __future__ import annotations

import math
import random
from itertools import permutations

from permpat import Box, InvalidInputError, Permutation, barred, classical, decorated, marked, mesh


def all_perms(n):
    """All of S_n in lexicographic order."""
    for vals in permutations(range(1, n + 1)):
        yield Permutation(vals)


def identity(n):
    """The identity permutation 1 2 ... n."""
    return Permutation(tuple(range(1, n + 1)))


def perms_through(n):
    """All permutations of every length from 1 to n."""
    for k in range(1, n + 1):
        yield from all_perms(k)


def inversions(values):
    """The inversions of a value sequence, as ordered value pairs (u, v)
    with u before v and u > v."""
    return {(u, v) for i, u in enumerate(values) for v in values[i + 1:] if u > v}


def noninversions(values):
    """The non-inversions of a value sequence, as ordered value pairs (u, v)
    with u before v and u < v."""
    return {(u, v) for i, u in enumerate(values) for v in values[i + 1:] if u < v}


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


def random_values(rng: random.Random, k: int) -> tuple[int, ...]:
    vals = list(range(1, k + 1))
    rng.shuffle(vals)
    return tuple(vals)


def random_boxes(rng: random.Random, k: int, count: int) -> tuple[Box, ...]:
    cells = [Box(c, r) for c in range(k + 1) for r in range(k + 1)]
    return tuple(sorted(rng.sample(cells, min(count, len(cells)))))


def random_pattern(rng: random.Random, kinds=("classical", "mesh", "marked"),
                   max_len: int = 4):
    """One random well-formed pattern of a random kind from `kinds`."""
    kind = rng.choice(kinds)
    k = rng.randint(1, max_len)
    perm = random_values(rng, k)
    if kind == "classical":
        return classical(perm)
    if kind == "mesh":
        return mesh(perm, random_boxes(rng, k, rng.randint(0, 3)))
    if kind == "marked":
        shade = set(random_boxes(rng, k, rng.randint(0, 2)))
        marks = []
        for _ in range(rng.randint(1, 2)):
            region = [b for b in random_boxes(rng, k, rng.randint(1, 3))
                      if b not in shade]
            if region:
                marks.append((tuple(region), rng.randint(1, 2)))
        if not marks:
            return mesh(perm, tuple(sorted(shade)))
        return marked(perm, shade=tuple(sorted(shade)), marks=marks)
    if kind == "barred":
        return barred(perm, [rng.randint(1, k)])
    if kind == "decorated":
        decs = [(random_boxes(rng, k, rng.randint(1, 2)),
                 classical(random_values(rng, rng.randint(1, 2))))
                for _ in range(rng.randint(1, 2))]
        return decorated(perm, decs)
    raise AssertionError(kind)
