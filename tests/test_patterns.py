"""Pattern construction rules and the occurrence matcher, all five kinds."""
from __future__ import annotations

import re
from math import comb

import pytest
from conftest import identity, perms_through

from test_reference_matcher import COUNTED_MARKS, assert_record, reference_alphas

from permpat import (
    Box,
    InvalidInputError,
    Mark,
    Pattern,
    Permutation,
    UnsupportedPatternError,
    barred,
    barred_to_mesh,
    builtin_basis,
    classical,
    contains,
    decorated,
    expand_basis,
    format_pattern,
    marked,
    mesh,
    occurrences,
    parse_pattern,
    pattern_sort_key,
    render_grid,
    stack_preimage_basis,
)
from permpat import patterns
from permpat.fixtures import FIXTURE_NAMES
from permpat.patterns import _MAX_NESTING, _search, _witnesses, canonical

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

    @pytest.mark.parametrize("make, item", [
        (lambda: mesh("21", [1]), "1"),
        (lambda: mesh("21", [(1, 2, 3)]), "(1, 2, 3)"),
        (lambda: Mark([(0, 0, 0)]), "(0, 0, 0)"),
    ], ids=["int", "triple", "mark-triple"])
    def test_a_box_that_is_not_a_pair_is_named(self, make, item):
        with pytest.raises(InvalidInputError, match=re.escape(f"got {item}")):
            make()

    def test_json_kind_must_match_the_parts(self):
        # A pattern takes no kind: its parts decide it.  JSON names one, and
        # a kind that disagrees with the parts is refused.
        with pytest.raises(InvalidInputError):
            parse_pattern('{"kind":"classical","perm":[2,1],"shade":[[0,0]]}', "json")
        assert parse_pattern('{"kind":"mesh","perm":[2,1],"shade":[[0,0]]}', "json") == mesh("21", [(0, 0)])

    def test_parts_decide_the_kind(self):
        assert mesh("21") == classical("21") and mesh("21").kind == "classical"
        assert marked("21", [(0, 0)]) == mesh("21", [(0, 0)])
        assert marked("21", [(0, 0)]).kind == "mesh"
        assert decorated("21", []) == classical("21")
        assert {mesh("21"), classical("21")} == {classical("21")}

    @pytest.mark.parametrize("parts", [
        {"shade": [(0, 0)], "barred_positions": (1,)},
        {"marks": (Mark([(0, 0)]),), "barred_positions": (1,)},
        {"decorations": decorated("21", [({(0, 0)}, "1")]).decorations, "barred_positions": (1,)},
        {"decorations": decorated("21", [({(0, 0)}, "1")]).decorations, "shade": [(1, 1)]},
        {"decorations": decorated("21", [({(0, 0)}, "1")]).decorations, "marks": (Mark([(1, 1)]),)},
    ], ids=["bars-shade", "bars-marks", "bars-decorations", "decorations-shade", "decorations-marks"])
    def test_parts_that_exclude_each_other_are_refused(self, parts):
        with pytest.raises(InvalidInputError):
            Pattern(P((2, 1)), **parts)

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
        occ = occurrences(identity(5), classical("12"))
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


def nest(depth):
    """classical("1") wrapped ``depth`` times in a decoration of box (0, 0)."""
    pat = classical("1")
    for _ in range(depth):
        pat = decorated("1", [({(0, 0)}, pat)])
    return pat


def deep_call(frames, fn):
    return deep_call(frames - 1, fn) if frames else fn()


class TestDecorationNesting:
    """Comparing, hashing and searching recurse through every level of
    decorations, so a pattern nests at most ``_MAX_NESTING`` levels."""

    @staticmethod
    def results(depth):
        # Two patterns built apart, so the search cache compares equal keys
        # that are not the same object.
        a, b = nest(depth), nest(depth)
        return (a == b, hash(a) == hash(b), canonical([a, b]) == (b,), contains(P((2, 4, 1, 3)), a),
                len(occurrences(P((3, 1, 2)), b)), parse_pattern(format_pattern(a, "json"), "json") == b)

    def test_results_do_not_depend_on_what_the_cache_holds(self):
        depths = range(1, _MAX_NESTING + 1)
        rising = [self.results(d) for d in depths]
        falling = [self.results(d) for d in reversed(depths)]
        assert rising == falling[::-1]
        assert all(r[:4] == (True, True, True, True) and r[5] for r in rising)

    def test_the_bound_works_from_200_frames_deep(self):
        a, b = nest(_MAX_NESTING), nest(_MAX_NESTING)
        calls = [
            lambda: a == b,
            lambda: hash(a) == hash(b),
            lambda: canonical([a, b]) == (a,),
            lambda: (_search.cache_clear(), contains(P((2, 1)), a))[1],
            lambda: contains(P((2, 1)), b),
            lambda: parse_pattern(format_pattern(a, "json"), "json") == b,
            lambda: bool(render_grid(a)),
        ]
        assert [deep_call(200, fn) for fn in calls] == [True] * len(calls)

    def test_one_level_past_the_bound_is_refused(self):
        with pytest.raises(UnsupportedPatternError, match="nested too deeply"):
            nest(_MAX_NESTING + 1)


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
                    assert_record(pi, occ)

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
        occs = occurrences(identity(22), pat)
        assert len(occs) == 22
        for occ in occs:
            assert_record(identity(22), occ)
        assert contains(identity(22), pat)
        assert not contains(identity(20), pat)

    def test_21_letter_mesh_pattern_matches_reference(self):
        letters = (*range(1, 10), 11, 10, *range(12, 22))
        pat = mesh(letters, [(9, 9), (15, 15)])
        swapped = (*range(1, 10), 11, 10, *range(12, 23))
        hosts = [identity(22), P(swapped), P((*swapped[:4], 23, *swapped[4:])),
                 P((*swapped[:15], 23, *swapped[15:])), P((2, 1, *range(3, 10), 23, *swapped[9:]))]
        basis = (pat, classical("321"))
        kept = found = 0
        for host in hosts:
            want = reference_alphas(host.values, pat)
            occs = occurrences(host, pat)
            assert [o.alpha for o in occs] == want, host
            for occ in occs:
                assert_record(host, occ)
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
        ("bubble1243", 5), ("west2", 1), ("stack_len3_321", 0), ("west3", 29), ("23451", 22),
    ])
    def test_column_slices_of_the_headline_bases(self, name, slices):
        # An exact work counter: one slice per rectangle of merged boxes,
        # and per column of a decoration's region.  bubble1243's 20 shaded
        # and marked boxes take 7 as marks; with three of its patterns
        # searched as their expansions, 5.  stack_len3_321's one pattern
        # becomes three unshaded ones.
        for action in ("first", "mask"):
            assert slice_count(_search(HEADLINE_BASES[name], action)) == slices

    @pytest.mark.parametrize("name, marked_patterns, lowered", [
        ("bubble1243", 4, 3), ("stack_len3_132", 2, 2), ("stack_len3_213", 2, 2),
        ("stack_len3_231", 2, 2), ("stack_len3_312", 2, 2), ("stack_len3_321", 1, 1),
        ("stack_len3_123", 0, 0), ("west2", 0, 0), ("west3", 0, 0),
    ])
    def test_marks_with_few_expansions_are_lowered(self, name, marked_patterns, lowered):
        # An exact count of the fixture patterns whose first-hit and mask
        # searches test their expansions instead of their marks: those
        # with at most 3.  bubble1243's 1243 has 4, one per box of its
        # mark's band.
        basis = builtin_basis(name)
        assert sum(1 for p in basis if p.marks) == marked_patterns
        assert sum(1 for p in basis if p.marks and _witnesses(p) is not None) == lowered
        for p in basis:
            if p.marks:
                assert (_witnesses(p) is not None) == (len(expand_basis([p])) <= 3)

    def test_counts_above_the_bound_keep_their_marks(self):
        # Three points in one box make its 3! orders: 6 expansions.
        pat = marked("21", shade=[(0, 0)], marks=[({(1, 1)}, 3)])
        assert len(expand_basis([pat])) == 6
        assert _witnesses(pat) is None
        for action in ("first", "mask"):
            source = _search((pat,), action).source
            assert loop_count(_search((pat,), action)) == 2
            assert "len([w for w in values[" in source and ">= 3" in source
        two = marked("21", shade=[(0, 0)], marks=[({(1, 1)}, 2)])
        # Two points in the box between 2 and 1, in either order.
        assert _witnesses(two) == [((4, 2, 3, 1), (Box(0, 0),)), ((4, 3, 2, 1), (Box(0, 0),))]

    @pytest.mark.parametrize("count", [3, 80, 10**9])
    def test_marks_of_three_points_are_refused_unexpanded(self, monkeypatch, count):
        # An exact work counter: a mark that needs c points has at least c!
        # expansions, more than 3 from c = 3 on, so no point is inserted.
        calls = 0
        insert = patterns._insert

        def counting_insert(*args):
            nonlocal calls
            calls += 1
            return insert(*args)

        monkeypatch.setattr(patterns, "_insert", counting_insert)
        pat = marked("1", marks=[({(0, 0)}, count)])
        for action in ("first", "mask"):
            assert f"]) >= {count}" in _search.__wrapped__((pat,), action).source
        assert calls == 0

    @pytest.mark.parametrize("pat", COUNTED_MARKS, ids=str)
    def test_refusal_agrees_with_the_expansion_count(self, pat):
        assert (_witnesses(pat) is not None) == (len(expand_basis([pat])) <= 3)

    def test_yield_keeps_the_mark_test(self):
        # The occurrences of a marked pattern are not those of its
        # expansions, which have one more letter.
        pat = builtin_basis("bubble1243")[1]
        assert str(pat.perm) == "1423" and _witnesses(pat) is not None
        listed = _search((pat,), "yield")
        assert loop_count(listed) == 4
        assert " and ([w for w in values[x3 + 1:x2] if w > v0]):" in listed.source
        assert loop_count(_search((pat,), "first")) == 5
        assert "([w" not in _search((pat,), "first").source

    @pytest.mark.parametrize("name", HEADLINE_BASES)
    def test_no_break_on_the_full_mask(self, name):
        # A full mask returns where it is set, so a loop over every pattern
        # never tests for it.
        basis = HEADLINE_BASES[name]
        full = (1 << len(basis)) - 1
        source = _search(basis, "mask").source
        assert f"if mask == {full}: return mask" in source
        assert f"if mask & {full} == {full}: break" not in source
