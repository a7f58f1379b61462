"""The occurrence engine against a matcher written from the definitions.

The reference tries every set of host positions, standardizes it and counts
box contents point by point, with no prefix table, no compiled search and no
lowering of one pattern kind to another.
"""
from __future__ import annotations

import functools
import random
from itertools import combinations, permutations

import pytest

from permpat import (
    Box,
    Occurrence,
    Permutation,
    barred,
    builtin_basis,
    classical,
    contains,
    decorated,
    expand_basis,
    marked,
    mesh,
    occurrences,
    stack_preimage_basis,
)
from permpat.fixtures import FIXTURE_NAMES
from permpat.patterns import _search, canonical

from conftest import all_perms, perms_through, random_pattern


def standardize(word):
    ranked = sorted(word)
    return tuple(ranked.index(v) + 1 for v in word)


def reference_alphas(values, pat):
    """1-based column tuples of every occurrence of ``pat`` in ``values``."""
    return list(reference_occurrences(values, pat))


def reference_contains(values, pat):
    """Whether ``values`` contains ``pat``, from its first occurrence."""
    return next(reference_occurrences(values, pat), None) is not None


@functools.lru_cache(maxsize=64)
def positions_by_pattern(values, k):
    """Every set of k host positions, 1-based, in lexicographic order and
    grouped by the pattern its values form; kept for the last few hosts,
    so checking many patterns host by host standardizes each set once."""
    groups = {}
    for cols in combinations(range(1, len(values) + 1), k):
        groups.setdefault(standardize([values[c - 1] for c in cols]), []).append(cols)
    return groups


@functools.lru_cache(maxsize=256)
def boxes_off(values, cols):
    """The value and box of each host point off the chosen positions
    ``cols``, in host order.  Box (i, j) holds the points strictly between
    the chosen columns i and i+1 and the chosen values j and j+1 (with 0
    and n+1 as borders), so a point lies in box (i, j) when i chosen
    columns lie left of it and j chosen values below it."""
    picked = [values[c - 1] for c in cols]
    return tuple((v, (sum(c < x for c in cols), sum(u < v for u in picked)))
                 for x, v in enumerate(values, 1) if x not in cols)


def reference_occurrences(values, pat):
    """The 1-based column tuple of each occurrence of ``pat`` in ``values``,
    in lexicographic order."""
    n, full = len(values), pat.perm.values
    bar = pat.barred_positions[0] if pat.kind == "barred" else None
    letters = standardize(full[: bar - 1] + full[bar:]) if bar else full
    values = tuple(values)
    for cols in positions_by_pattern(values, len(letters)).get(letters, ()):
        boxes = boxes_off(values, cols)

        def inside(region):
            return [v for v, box in boxes if box in region]

        if any(box in pat.shade for _, box in boxes):
            continue
        if any(len(inside(m.region)) < m.min_count for m in pat.marks):
            continue
        if any(reference_alphas(standardize(inside(d.region)), d.avoid) for d in pat.decorations):
            continue
        if bar and any(
            standardize([values[c - 1] for c in sorted(cols + (x,))]) == full
            and sorted(cols + (x,)).index(x) == bar - 1
            for x in range(1, n + 1) if x not in cols
        ):
            continue
        yield cols


EVERY_BOX_OF_1 = [(c, r) for c in range(2) for r in range(2)]

PATTERNS = [
    classical(()),
    mesh((), [(0, 0)]),
    classical("1"),
    mesh("1", EVERY_BOX_OF_1),
    classical("132"),
    mesh("132", [(0, 1), (3, 2)]),
    mesh("21", [(1, 0), (1, 2), (0, 2)]),
    mesh("231", [(0, 3), (3, 0)]),
    marked("12", marks=[((Box(2, 0), Box(2, 1)), 2)]),
    marked("132", shade=[(2, 2)], marks=[((Box(1, 0), Box(1, 1), Box(2, 0)), 1)]),
    marked("21", shade=[(0, 0)], marks=[{(1, 2)}, ({(2, 0), (2, 1)}, 2)]),
    barred("132", [1]),
    barred("132", [3]),
    barred("2413", [2]),
    decorated("21", [(((1, 1),), "12")]),
    decorated("21", [({(0, 0), (2, 2)}, "1"), ({(1, 1)}, "21")]),
    decorated("12", [(((1, 0), (2, 0)), decorated("21", [(((1, 1),), "1")]))]),
    decorated("21", [(((1, 1), (2, 1)), decorated("1", [({(0, 0), (1, 1)}, "1")]))]),
    decorated("21", [({(1, 0), (1, 2)}, "12")]),
    decorated("132", [({(1, 0), (1, 3), (2, 1)}, "21")]),
    decorated("12", [({(0, 2), (1, 1), (2, 0)}, "123")]),
    decorated("12", [({(1, 0), (1, 2)}, decorated("12", [({(1, 1)}, "1")]))]),
    # Box and mark tests read one column slice per rectangle of merged boxes.
    # Same rows in adjacent columns, the letter between them inside the band:
    # two rectangles, or its own point would count.
    mesh("12", [(0, 0), (0, 1), (1, 0), (1, 1)]),
    # The letter between them outside the band: one rectangle.
    mesh("12", [(0, 2), (1, 2), (2, 2)]),
    # A band reaching the bottom but not the top.
    mesh("231", [(1, 0), (1, 1), (2, 0), (2, 1)]),
    # Bands in the middle of the grid; in the second, the letters of values
    # 1 and 2 lie in the slice, on the band's two edges.
    mesh("132", [(0, 2), (1, 2), (2, 2)]),
    mesh("132", [(0, 1), (1, 1), (2, 1), (3, 1)]),
    mesh("1432", [(1, 1), (1, 2), (2, 1), (2, 2)]),
    # A whole column.
    mesh("21", [(1, 0), (1, 1), (1, 2)]),
    # A mark needing two points from two columns' rectangles.
    marked("21", marks=[({(0, 0), (0, 1), (1, 2)}, 2)]),
    # A mark and shading in one column.
    marked("132", shade=[(1, 3)], marks=[{(1, 0), (1, 1)}]),
    # A decoration searched on unstandardized values: the inner band
    # reaching the top must not be bounded by the number of values.
    decorated("1", [({(0, 1), (1, 0)}, decorated("1", [({(0, 0), (0, 1), (1, 0), (1, 1)}, "12")]))]),
]


def engine_alphas(pi, pat):
    return [o.alpha for o in occurrences(pi, pat)]


def test_every_kind_is_covered():
    assert {p.kind for p in PATTERNS} == {"classical", "mesh", "marked", "barred", "decorated"}


@pytest.mark.parametrize("pat", PATTERNS, ids=str)
def test_engine_matches_reference_through_length_6(pat):
    for pi in [Permutation(())] + list(perms_through(6)):
        assert engine_alphas(pi, pat) == reference_alphas(pi.values, pat), pi


def assert_record(pi, occ):
    """An occurrence record against its definition: ``beta`` is the chosen
    values in increasing order and ``omega`` the chosen points in position
    order, both read off ``alpha``."""
    assert type(occ) is Occurrence
    picked = tuple(pi.values[a - 1] for a in occ.alpha)
    assert occ.beta == tuple(sorted(picked)), (pi, occ)
    assert occ.omega == tuple(zip(occ.alpha, picked)), (pi, occ)


@pytest.mark.parametrize("pat", PATTERNS, ids=str)
def test_engine_records_match_the_definition(pat):
    for pi in [Permutation(())] + list(perms_through(6)):
        for occ in occurrences(pi, pat):
            assert_record(pi, occ)


@pytest.mark.parametrize("name", ["west2", "west3", "bubble1243"])
def test_builtin_bases_match_reference_at_length_7(name):
    basis = builtin_basis(name)
    for pi in all_perms(7):
        for pat in basis:
            assert engine_alphas(pi, pat) == reference_alphas(pi.values, pat), (pi, pat)


def hosts_through(n):
    return [Permutation(())] + list(perms_through(n))


def assert_basis_search_matches_reference(basis, hosts):
    """The compiled basis search against per-pattern reference containment:
    the mask has bit i exactly when the host contains ``basis[i]``, and the
    first-hit search's value is nonzero exactly when the mask is."""
    assert_bases_search_match_reference([basis], hosts)


def assert_bases_search_match_reference(bases, hosts):
    """:func:`assert_basis_search_matches_reference` for several bases,
    host by host, so the reference groups each host's positions once and
    decides each distinct pattern once."""
    patterns = canonical(pat for basis in bases for pat in basis)
    slot = {pat: j for j, pat in enumerate(patterns)}
    searches = [([slot[pat] for pat in basis], basis, _search(basis, "mask"), _search(basis, "first"))
                for basis in bases]
    for pi in hosts:
        contained = [reference_contains(pi.values, pat) for pat in patterns]
        for slots, basis, mask_search, first_search in searches:
            want = sum(1 << i for i, j in enumerate(slots) if contained[j])
            assert mask_search(pi.values) == want, (pi, basis)
            assert bool(first_search(pi.values)) == bool(want), (pi, basis)


def test_every_pattern_as_one_basis_matches_reference_through_length_6():
    basis = canonical(PATTERNS)
    assert len(basis) == len(PATTERNS)
    assert_basis_search_matches_reference(basis, hosts_through(6))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_basis_search_matches_reference(name):
    # Hosts run at least to the basis's longest pattern, so every bit can be set.
    basis = builtin_basis(name)
    assert_basis_search_matches_reference(basis, hosts_through(max(6, *(len(p.perm) for p in basis))))


@pytest.mark.parametrize("k", range(5))
def test_expanded_preimage_bases_match_reference_through_length_6(k):
    bases = [expand_basis(stack_preimage_basis(Permutation(image))) for image in permutations(range(1, k + 1))]
    assert_bases_search_match_reference(bases, hosts_through(6))


def test_derived_bases_match_reference_through_length_7():
    # The first-hit and mask searches test some marks through their
    # expansions, and one pattern's expansions may share loops with
    # another pattern's.
    bases = [stack_preimage_basis(Permutation(image))
             for k in range(5) for image in permutations(range(1, k + 1))]
    assert len(bases) == 34
    assert_bases_search_match_reference(bases, hosts_through(7))


# Marks needing 2 or 3 points; the first four have at most 3 expansions.
COUNTED_MARKS = [
    marked("1", marks=[({(0, 0)}, 2)]),
    marked("1", marks=[({(0, 0), (1, 1)}, 2)]),
    marked("21", shade=[(0, 2)], marks=[({(1, 1)}, 2)]),
    marked("231", marks=[({(3, 0)}, 2), {(1, 3)}]),
    marked("132", marks=[({(1, 2), (1, 3)}, 2)]),
    marked("21", marks=[({(0, 0)}, 3)]),
    marked("21", shade=[(0, 0)], marks=[({(1, 1)}, 3)]),
    marked("12", marks=[({(0, 0), (2, 2)}, 3)]),
]


def test_counted_marks_match_reference_through_length_7():
    bases = [(pat,) for pat in COUNTED_MARKS] + [canonical(COUNTED_MARKS)]
    assert_bases_search_match_reference(bases, hosts_through(7))


def _hit_value_bases():
    """Bases for the first-hit value: a top-row decoration avoiding 12, a
    top-row mark of 2 points, a basis with no search through the maximum,
    and seeded random bases of every kind."""
    rng = random.Random(35)
    kinds = ("classical", "mesh", "marked", "barred", "decorated")
    bases = {
        "decoration-top": (decorated("21", [({(1, 2)}, "12")]),),
        "mark-2-top": (marked("12", marks=[({(1, 2), (2, 2)}, 2)]),),
        "no-at-max": canonical([marked("1", marks=[({(0, 1), (1, 1)}, 3)]), mesh("21", [(1, 2)])]),
    }
    for i in range(12):
        bases[f"random-{i}"] = canonical(
            random_pattern(rng, kinds, max_len=3) for _ in range(rng.randint(1, 3)))
    return bases


HIT_VALUE_BASES = {**{name: builtin_basis(name) for name in FIXTURE_NAMES}, **_hit_value_bases()}


def test_hit_value_bases_cover_every_kind_and_both_scans():
    bases = HIT_VALUE_BASES.values()
    assert {pat.kind for basis in bases for pat in basis} == {
        "classical", "mesh", "marked", "barred", "decorated"}
    assert _search(HIT_VALUE_BASES["no-at-max"], "at_max") is None
    assert all(_search(HIT_VALUE_BASES[name], "at_max") is not None for name in FIXTURE_NAMES)


@pytest.mark.parametrize("name", HIT_VALUE_BASES)
def test_hit_value_matches_reference_through_length_6(name):
    # The first-hit search's value, and that of the search through the
    # maximum where the basis has one, is 0 when the host avoids what it
    # looks for and odd otherwise; where bit x + 1 is clear, the host with
    # a new maximum inserted at index x contains the basis.
    basis = HIT_VALUE_BASES[name]
    first, at_max = _search(basis, "first"), _search(basis, "at_max")
    holds = functools.lru_cache(maxsize=None)(lambda vals: any(reference_contains(vals, pat) for pat in basis))
    for n in range(7):
        for vals in permutations(range(1, n + 1)):
            found = [first(vals)]
            assert bool(found[0]) == holds(vals), vals
            if at_max is not None and n:
                found.append(at_max(vals, vals.index(n)))
            for value in found:
                assert value == 0 or value & 1, (vals, value)
                for x in range(n + 1):
                    if value and not value >> x + 1 & 1:
                        assert holds(vals[:x] + (n + 1,) + vals[x:]), (vals, x)


@pytest.mark.parametrize("pat", PATTERNS, ids=str)
def test_contains_answers_a_bool(pat):
    for pi in hosts_through(4):
        assert contains(pi, pat) is bool(reference_alphas(pi.values, pat)), pi
