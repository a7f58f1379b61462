"""Pattern construction rules and the occurrence matcher, all five kinds."""
from __future__ import annotations

import re
from math import comb

import pytest
from conftest import perms_through

from test_reference_matcher import reference_alphas

from permpat import (
    Box,
    InvalidInputError,
    Mark,
    Occurrence,
    Permutation,
    UnsupportedPatternError,
    barred,
    barred_to_mesh,
    builtin_basis,
    classical,
    contains,
    decorated,
    expand_basis,
    marked,
    mesh,
    occurrences,
    pattern_sort_key,
    stack_preimage_basis,
)
from permpat.fixtures import FIXTURE_NAMES
from permpat.patterns import _search, canonical

P = Permutation
PI = P((5, 2, 6, 4, 1, 3))


class TestConstruction:
    def test_classical_from_various_inputs(self):
        assert classical("231") == classical((2, 3, 1)) == classical(P((2, 3, 1)))
        assert classical("231").kind == "classical"

    def test_shade_is_normalized(self):
        a = mesh("132", [(2, 2), (0, 2), (2, 2)])
        b = mesh("132", [Box(0, 2), Box(2, 2)])
        assert a == b
        assert a.shade == (Box(0, 2), Box(2, 2))

    def test_sort_key_orders_by_length_then_values(self):
        pats = [classical("21"), classical("123"), mesh("21", [(0, 0)])]
        ordered = sorted(pats, key=pattern_sort_key)
        assert ordered[0].perm.n == 2 and ordered[-1].perm.n == 3

    @pytest.mark.parametrize("box", [(3, 0), (0, 3), (-1, 0)])
    def test_box_out_of_range_rejected(self, box):
        with pytest.raises(InvalidInputError):
            mesh("21", [box])

    # True == 1 to Python, so only the type tells a bool coordinate apart
    @pytest.mark.parametrize("box", [(1.5, 2), (True, 0)])
    def test_box_coordinates_must_be_integers(self, box):
        with pytest.raises(InvalidInputError):
            mesh("12", [box])

    def test_classical_refuses_decorations(self):
        with pytest.raises(InvalidInputError):
            from permpat import Pattern
            Pattern(kind="classical", perm=P((2, 1)), shade=(Box(0, 0),))

    def test_mark_region_may_not_touch_shade(self):
        with pytest.raises(InvalidInputError):
            marked("21", shade=[(1, 1)], marks=[((Box(1, 1),), 1)])

    def test_mark_needs_nonempty_region(self):
        with pytest.raises(InvalidInputError):
            Mark(region=())

    def test_mark_min_count_at_least_one(self):
        with pytest.raises(InvalidInputError):
            Mark(region=(Box(0, 0),), min_count=0)

    @pytest.mark.parametrize("count", [1.5, "2", True])
    def test_mark_min_count_must_be_an_integer(self, count):
        with pytest.raises(InvalidInputError):
            Mark(region=(Box(0, 0),), min_count=count)

    def test_barred_positions_validated(self):
        assert barred("35241", [2]).barred_positions == (2,)
        with pytest.raises(InvalidInputError):
            barred("21", [])
        with pytest.raises(InvalidInputError):
            barred("21", [3])

    def test_barred_positions_must_be_integers(self):
        with pytest.raises(InvalidInputError):
            barred("123", [1.7])

    def test_decoration_avoid_kind_restricted(self):
        inner = mesh("12", [(0, 0)])
        with pytest.raises(UnsupportedPatternError):
            decorated("21", [(((1, 1),), inner)])
        # classical and decorated are the two allowed inner kinds
        nested = decorated("12", [(((0, 0),), "1")])
        assert decorated("21", [(((1, 1),), nested)]).kind == "decorated"


class TestCanonical:
    def test_distinct_patterns_in_sort_key_order(self):
        pats = [mesh("12", [(1, 1)]), classical("21"), classical("12"),
                classical("21"), marked("12", marks=[{(0, 0)}]), classical("1")]
        out = canonical(pats)
        assert len(out) == len(set(pats)) == 5
        assert list(out) == sorted(set(pats), key=pattern_sort_key)
        # input order does not matter, and the result is a fixed point
        assert canonical(reversed(pats)) == out
        assert canonical(out) == out


class TestClassicalMatching:
    def test_three_occurrences_of_132(self):
        occ = occurrences(PI, classical("132"))
        assert [o.alpha for o in occ] == [(2, 3, 4), (2, 3, 6), (2, 4, 6)]
        # value subsequences 264, 263, 243
        subseqs = ["".join(str(PI.values[a - 1]) for a in o.alpha) for o in occ]
        assert subseqs == ["264", "263", "243"]

    def test_avoids_123(self):
        assert not contains(PI, classical("123"))

    def test_self_containment(self):
        assert contains(P((2, 3, 1)), classical("231"))

    def test_no_2341_in_3241(self):
        assert not contains(P((3, 2, 4, 1)), classical("2341"))

    def test_identity_in_identity_hits_binomial_bound(self):
        occ = occurrences(P.identity(5), classical("12"))
        assert len(occ) == comb(5, 2)

    def test_longer_pattern_than_text_never_occurs(self):
        assert occurrences(P((2, 1)), classical("321")) == []


class TestMeshMatching:
    def test_single_surviving_occurrence(self):
        pat = mesh("132", [(0, 2), (1, 2), (2, 2)])
        occ = occurrences(PI, pat)
        assert [o.alpha for o in occ] == [(2, 4, 6)]

    def test_empty_shade_equals_classical(self):
        assert [o.alpha for o in occurrences(PI, mesh("132", []))] == \
               [o.alpha for o in occurrences(PI, classical("132"))]

    def test_fully_shaded_length_one_needs_singleton(self):
        everything = [(c, r) for c in range(2) for r in range(2)]
        pat = mesh("1", everything)
        assert contains(P((1,)), pat)
        assert not contains(P((1, 2)), pat)


class TestMarkedMatching:
    def test_single_occurrence_at_2_4_6(self):
        pat = marked("132", shade=[(2, 2)],
                     marks=[((Box(1, 0), Box(1, 1), Box(2, 0), Box(2, 1)), 1)])
        occ = occurrences(PI, pat)
        assert [o.alpha for o in occ] == [(2, 4, 6)]

    def test_min_count_two_needs_two_points(self):
        # region right of both points, below the larger one
        pat2 = marked("12", marks=[((Box(2, 0), Box(2, 1)), 2)])
        assert contains(P((2, 3, 1)), classical("12"))
        assert not contains(P((2, 3, 1), ), pat2)  # only the 1 sits in the region
        assert contains(P((2, 4, 1, 3)), pat2)  # 1 and 3 both do
        assert contains(P((3, 4, 1, 2)), pat2)

    def test_no_marks_equals_mesh(self):
        a = marked("321", shade=[(1, 3)], marks=())
        b = mesh("321", [(1, 3)])
        for pi in (PI, P((4, 3, 2, 1)), P((3, 2, 1))):
            assert [o.alpha for o in occurrences(pi, a)] == \
                   [o.alpha for o in occurrences(pi, b)]


class TestDecoratedMatching:
    def test_region_must_avoid_12(self):
        pat = decorated("21", [(((1, 1),), "12")])
        alphas = [o.alpha for o in occurrences(PI, pat)]
        assert (3, 6) in alphas
        assert (1, 5) not in alphas

    def test_empty_region_vacuously_avoids(self):
        pat = decorated("21", [(((1, 1),), "12")])
        assert contains(P((2, 1)), pat)

    def test_avoid_length_one_means_empty_region(self):
        a = decorated("21", [(((1, 1),), "1")])
        b = mesh("21", [(1, 1)])
        for pi in (PI, P((3, 1, 2)), P((2, 1))):
            assert [o.alpha for o in occurrences(pi, a)] == \
                   [o.alpha for o in occurrences(pi, b)]

    def test_nested_decoration(self):
        # region must avoid "21 whose own middle box is empty"
        inner = decorated("21", [(((1, 1),), "1")])
        pat = decorated("12", [(((1, 0), (2, 0)), inner)])
        assert pat.decorations[0].avoid == inner
        assert isinstance(occurrences(P((1, 4, 3, 2, 5)), pat), list)


class TestBarredMatching:
    BAR = barred("35241", [2])
    PI7 = P((5, 2, 6, 4, 1, 7, 3))

    def test_witness_5473(self):
        occ = occurrences(self.PI7, self.BAR)
        alphas = [o.alpha for o in occ]
        assert (1, 4, 6, 7) in alphas
        vals = "".join(str(self.PI7.values[a - 1]) for a in (1, 4, 6, 7))
        assert vals == "5473"
        assert contains(self.PI7, self.BAR)

    def test_blocked_when_every_occurrence_extends(self):
        # 3241 occurs in 35241 itself only extendably
        assert contains(P((3, 5, 2, 4, 1)), classical("3241"))
        assert not contains(P((3, 5, 2, 4, 1)), self.BAR)

    def test_agrees_with_mesh_translation_here(self):
        msh = barred_to_mesh(self.BAR)
        assert [o.alpha for o in occurrences(self.PI7, self.BAR)] == \
               [o.alpha for o in occurrences(self.PI7, msh)]


class TestBarredToMesh:
    def test_translation(self):
        msh = barred_to_mesh(barred("35241", [2]))
        assert msh.kind == "mesh"
        assert msh.perm == P((3, 2, 4, 1))
        assert msh.shade == (Box(1, 4),)

    def test_requires_barred_kind(self):
        with pytest.raises(InvalidInputError):
            barred_to_mesh(classical("21"))

    def test_single_bar_only(self):
        with pytest.raises(UnsupportedPatternError):
            barred_to_mesh(barred("2413", [1, 3]))


class TestOccurrenceGeometry:
    def test_from_columns(self):
        occ = Occurrence.from_columns(PI.values, (1, 2, 4))
        assert occ.alpha == (2, 3, 5)

    @pytest.mark.parametrize("pats", [
        builtin_basis("west2"), builtin_basis("west3"), builtin_basis("bubble1243"),
        [barred("35241", [2])],
    ], ids=["west2", "west3", "bubble1243", "barred35241"])
    def test_engine_records_match_their_columns(self, pats):
        for pi in perms_through(6):
            for pat in pats:
                occs = occurrences(pi, pat)
                assert sorted(occs) == occs
                assert len(set(occs)) == len(occs)
                for occ in occs:
                    picked = tuple(pi.values[a - 1] for a in occ.alpha)
                    assert occ.beta == tuple(sorted(picked))
                    assert occ.omega == tuple(zip(occ.alpha, picked))

    def test_occurrences_sorted_by_alpha(self):
        occ = occurrences(P((3, 2, 1)), classical("21"))
        assert [o.alpha for o in occ] == sorted(o.alpha for o in occ)
        assert len(occ) == 3


def loop_count(search):
    return sum(line.lstrip().startswith("for ") for line in search.source.splitlines())


def slice_count(search):
    return len(re.findall(r"values\[[^]]*:", search.source))


HEADLINE_BASES = {name: builtin_basis(name) for name in FIXTURE_NAMES}
HEADLINE_BASES["23451"] = expand_basis(stack_preimage_basis(P.from_text("23451")))


class TestCompiledSearch:
    # The next two tests need more than 20 nested for loops, CPython's limit
    # in one function, so their searches continue in a helper function.
    def test_21_letters_occur_22_times_in_the_identity_of_length_22(self):
        pat = classical(range(1, 22))
        assert "def h0(" in _search((pat,), "yield").source
        assert len(occurrences(P.identity(22), pat)) == 22
        assert contains(P.identity(22), pat)
        assert not contains(P.identity(20), pat)

    def test_21_letter_mesh_pattern_matches_reference(self):
        letters = (*range(1, 10), 11, 10, *range(12, 22))
        pat = mesh(letters, [(9, 9), (15, 15)])
        swapped = (*range(1, 10), 11, 10, *range(12, 23))
        hosts = [P.identity(22), P(swapped), P((*swapped[:4], 23, *swapped[4:])),
                 P((*swapped[:15], 23, *swapped[15:])), P((2, 1, *range(3, 10), 23, *swapped[9:]))]
        basis = (pat, classical("321"))
        kept = found = 0
        for host in hosts:
            want = reference_alphas(host.values, pat)
            assert [o.alpha for o in occurrences(host, pat)] == want, host
            assert contains(host, pat) == bool(want), host
            mask = sum(1 << i for i, q in enumerate(basis) if reference_alphas(host.values, q))
            assert _search(basis, "mask")(host.values) == mask, host
            kept += len(want)
            found += len(reference_alphas(host.values, classical(letters)))
        # Some occurrences exist, and the shading rejects some others.
        assert 0 < kept < found

    def test_shared_loops_of_the_headline_bases(self):
        # An exact work counter: the loops each basis's search emits, fewer
        # than its letters because patterns share placements.
        west3 = builtin_basis("west3")
        expanded = expand_basis(stack_preimage_basis(P.from_text("23451")))
        assert sum(len(p.perm) for p in west3) == 56
        assert sum(len(p.perm) for p in expanded) == 84
        assert loop_count(_search(west3, "first")) == 22 < 56
        assert loop_count(_search(expanded, "first")) == 11 < 84

    @pytest.mark.parametrize("name", HEADLINE_BASES)
    def test_no_search_reads_a_prefix_table(self, name):
        for action in ("first", "mask"):
            assert "prefix" not in _search(HEADLINE_BASES[name], action).source

    @pytest.mark.parametrize("name, slices", [
        ("bubble1243", 7), ("west2", 1), ("stack_len3_321", 2), ("west3", 29), ("23451", 22),
    ])
    def test_column_slices_of_the_headline_bases(self, name, slices):
        # An exact work counter: one slice per rectangle of merged boxes,
        # and per column of a decoration's region.  bubble1243's 20 shaded
        # and marked boxes take 7.
        for action in ("first", "mask"):
            assert slice_count(_search(HEADLINE_BASES[name], action)) == slices
