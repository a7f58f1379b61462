"""Candidate generation, shading and marking, basis assembly and expansion."""
from __future__ import annotations

import contextlib
import hashlib
import io
from itertools import permutations
from math import factorial

import pytest
from conftest import inversions, perms_through
from test_reference_matcher import reference_alphas

from permpat import (
    Box,
    InvalidBoundError,
    InvalidInputError,
    InvalidInsertionError,
    Pattern,
    Permutation,
    UnsupportedPatternError,
    av_set,
    barred,
    classical,
    contains,
    decorated,
    expand_basis,
    format_pattern,
    insert_point,
    marked,
    mesh,
    prune_basis,
    shade_and_mark,
    stack_preimage_basis,
    un_s,
)
from permpat import patterns, permutation, preimage
from permpat.cli import main
from permpat.formats import _line_text
from permpat.patterns import as_boxes, canonical
from permpat.preimage import MarkedBasis, ShadeMarkResult, candidate_outcomes

P = Permutation


def names(perms):
    return {str(p) for p in perms}


def _regions(outcome):
    """The marked regions of a shade-and-mark outcome, in pattern order."""
    return tuple(m.region for m in outcome.pattern.marks)


class TestUnS:
    @pytest.mark.parametrize("word,expected", [
        ((1, 3, 2), {"321", "312", "132"}),
        ((3, 2, 4, 1), {"4321", "3421", "3241"}),
        ((2, 1), {"21"}),
        ((3, 2, 1), {"321"}),
        ((1,), {"1"}),
        ((2, 1, 3), {"213", "231", "321"}),
        ((3, 1, 2), {"312", "321"}),
        ((2, 3, 1), {"231", "321"}),
        ((2, 3, 4, 1), {"2341", "2431", "3241", "4231", "4321"}),
    ])
    def test_known_candidate_sets(self, word, expected):
        assert names(un_s(word)) == expected

    def test_empty_word(self):
        assert un_s(()) == frozenset({P(())})

    def test_raw_words_are_standardized(self):
        # recursion runs on arbitrary distinct letters; results come back as
        # honest permutations of the same length
        assert names(un_s((1, 5, 3))) == {"321", "312", "132"}

    def test_duplicate_letters_rejected(self):
        with pytest.raises(InvalidInputError):
            un_s((1, 2, 1))

    def test_input_is_always_a_candidate(self):
        for word in [(2, 1, 4, 3), (1, 2, 3, 4), (4, 2, 3, 1)]:
            assert P(word) in un_s(word)

    def test_candidates_keep_every_inversion(self):
        p = P((2, 3, 1))
        for lam in un_s(p.values):
            assert inversions(p.values) <= inversions(lam.values)


class TestUnSCount:
    """The candidates are counted by the split of un_s, without listing them."""

    @pytest.mark.parametrize("n", range(7))
    def test_count_is_the_number_of_candidates(self, n):
        for word in permutations(range(1, n + 1)):
            assert preimage._un_s_count(word) == len(preimage._un_s_raw(word)), word

    def test_raw_words_count_as_their_standardization(self):
        assert preimage._un_s_count((10, 50, 30)) == preimage._un_s_count((1, 3, 2)) == 3

    def test_identity_counts_are_catalan_numbers(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900]
        assert [preimage._un_s_count(tuple(range(1, n + 1))) for n in range(14)] == catalan

    def test_decreasing_image_has_one_candidate(self):
        assert preimage._un_s_count(tuple(range(20, 0, -1))) == 1


class TestShadeAndMark:
    def test_worked_4321_to_3241(self):
        res = shade_and_mark(P((4, 3, 2, 1)), P((3, 2, 4, 1)))
        assert set(res.pattern.shade) == {Box(1, 4), Box(2, 4)}
        assert {frozenset(m) for m in _regions(res)} == \
               {frozenset({Box(2, 3)}), frozenset({Box(3, 4)})}

    def test_rejection_321_to_132(self):
        assert shade_and_mark(P((3, 2, 1)), P((1, 3, 2))) is None

    def test_321_to_231(self):
        res = shade_and_mark(P((3, 2, 1)), P((2, 3, 1)))
        assert set(res.pattern.shade) == {Box(1, 3)}
        assert {frozenset(m) for m in _regions(res)} == {frozenset({Box(2, 3)})}

    def test_231_to_231(self):
        res = shade_and_mark(P((2, 3, 1)), P((2, 3, 1)))
        assert res.pattern.shade == ()
        assert {frozenset(m) for m in _regions(res)} == {frozenset({Box(2, 3)})}

    def test_321_to_321_double_mark(self):
        res = shade_and_mark(P((3, 2, 1)), P((3, 2, 1)))
        assert res.pattern.shade == ()
        assert {frozenset(m) for m in _regions(res)} == \
               {frozenset({Box(1, 3)}), frozenset({Box(2, 2), Box(2, 3)})}

    def test_identity_candidate_gives_bare_pattern(self):
        res = shade_and_mark(P((1, 2, 3)), P((1, 2, 3)))
        assert res.pattern.shade == () and res.pattern.marks == ()
        assert res.pattern == classical("123")

    def test_shading_and_marks_match_their_definition(self):
        # Shaded: the union, over the image's non-inversions (u, v), of the
        # strips of columns pos[v]..pos[u]-1 from row v up.  Each mark: the
        # rectangle of an inversion with nothing above u between its letters,
        # minus the shading; none empty, and only the minimal ones kept.
        for k in range(1, 6):
            for image in permutations(range(1, k + 1)):
                pairs = [(image[a], image[b]) for a in range(k) for b in range(a + 1, k)]
                for lam in un_s(image):
                    pos = {v: i for i, v in enumerate(lam.values, 1)}
                    shaded = {(c, r) for u, v in pairs if u < v
                              for c in range(pos[v], pos[u]) for r in range(v, k + 1)}
                    regions = {frozenset((c, r) for c in range(pos[u], pos[v])
                                         for r in range(u, k + 1)) - shaded
                               for u, v in pairs if u > v
                               and all(lam.values[l - 1] < u for l in range(pos[u] + 1, pos[v] + 1))}
                    res = shade_and_mark(lam, P(image))
                    if not all(regions):
                        assert res is None, (lam, image)
                        continue
                    assert set(res.pattern.shade) == shaded, (lam, image)
                    assert {frozenset(m) for m in _regions(res)} == \
                           {r for r in regions if not any(o < r for o in regions)}, (lam, image)

    def test_image_pairs_built_once_per_image(self, monkeypatch):
        # An exact work counter: the 120 images of length 5 have 1,296
        # candidates, and each image builds its pairs once for all of them.
        calls = 0
        value_pairs = preimage._value_pairs

        def counting_value_pairs(values):
            nonlocal calls
            calls += 1
            return value_pairs(values)

        monkeypatch.setattr(preimage, "_value_pairs", counting_value_pairs)
        outcomes = sum(len(candidate_outcomes(P(image))) for image in permutations(range(1, 6)))
        assert (outcomes, calls) == (1_296, 120)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            shade_and_mark(P((2, 1)), P((1, 3, 2)))

    def test_order_incompatible_candidate_rejected(self):
        # 12 drops the inversion of 21, which no stack pass can create
        with pytest.raises(InvalidInputError):
            shade_and_mark(P((1, 2)), P((2, 1)))

    def test_candidate_outcomes_for_132(self):
        outcomes = candidate_outcomes(P((1, 3, 2)))
        assert [str(lam) for lam, _ in outcomes] == ["132", "312", "321"]
        by_name = {str(lam): res for lam, res in outcomes}
        assert by_name["321"] is None
        assert by_name["132"] is not None and by_name["312"] is not None

    def test_outcomes_equal_checked_shade_and_mark_through_length_6(self):
        # candidate_outcomes skips shade_and_mark's checks, which every
        # candidate from un_s passes.
        for image in perms_through(6):
            checked = [(lam, shade_and_mark(lam, image)) for lam in sorted(un_s(image.values))]
            assert candidate_outcomes(image) == checked, image


class TestShadeMarkResult:
    def test_to_pattern_kind_by_content(self):
        assert shade_and_mark(P((1, 2)), P((1, 2))).pattern.kind == "classical"
        assert shade_and_mark(P((2, 3, 1)), P((2, 3, 1))).pattern.kind == "marked"

    def test_to_pattern_returns_the_pattern(self):
        # perfbench/layers.py reads outcomes through to_pattern.
        pat = marked("21", shade=[(0, 2), (0, 1), (0, 2)], marks=[{(2, 0), (1, 2)}])
        assert ShadeMarkResult(pat).to_pattern() is pat

    def test_marks_are_incomparable_and_off_the_shading_through_length_6(self):
        # _shade_and_mark_impl keeps only the least regions; no check at
        # construction enforces it.
        for image in perms_through(6):
            for lam, outcome in candidate_outcomes(image):
                if outcome is None:
                    continue
                regions = [set(region) for region in _regions(outcome)]
                assert all(a.isdisjoint(outcome.pattern.shade) for a in regions), (lam, image)
                assert not any(i != j and a <= b for i, a in enumerate(regions)
                               for j, b in enumerate(regions)), (lam, image)


class TestShowRejected:
    """``preimage --show-rejected`` reads its rejects off un_s and the basis."""

    @pytest.mark.parametrize("word", ["132", "2341", "654321"])
    def test_each_candidate_shaded_and_marked_once(self, monkeypatch, word):
        calls = 0
        plain = preimage._shade_and_mark_plain

        def counting_plain(*args):
            nonlocal calls
            calls += 1
            return plain(*args)

        monkeypatch.setattr(preimage, "_shade_and_mark_plain", counting_plain)
        for flags in (["--show-rejected"], ["--expand"], ["--expand", "--show-rejected"]):
            calls = 0
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["preimage", word, *flags]) == 0
            assert calls == len(un_s(P.from_text(word))), flags

    def test_rejected_lines_are_the_rejected_outcomes_through_length_5(self):
        for image in perms_through(5):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["preimage", image.to_text(), "--show-rejected"]) == 0
            listed = [line for line in out.getvalue().splitlines() if line.startswith("# rejected:")]
            assert listed == [f"# rejected: {lam.to_text()}"
                              for lam, outcome in candidate_outcomes(image) if outcome is None], image


class TestStackPreimageBasis:
    def test_21_single_marked_pattern(self):
        basis = stack_preimage_basis(P((2, 1)))
        assert list(basis) == [marked("21", marks=[((Box(1, 2),), 1)])]

    def test_231_two_patterns(self):
        basis = stack_preimage_basis(P((2, 3, 1)))
        assert list(basis) == [
            marked("231", marks=[((Box(2, 3),), 1)]),
            marked("321", shade=[(1, 3)], marks=[((Box(2, 3),), 1)]),
        ]

    def test_123_keeps_rejection_free_candidates(self):
        basis = stack_preimage_basis(P((1, 2, 3)))
        assert len(basis) == 5  # every candidate of 123 survives

    def test_rejected_candidates_are_dropped(self):
        basis = stack_preimage_basis(P((1, 3, 2)))
        assert names(p.perm for p in basis) == {"132", "312"}


class TestMarkedBasis:
    def test_canonical_order_and_uniqueness(self):
        a = marked("21", marks=[((Box(1, 2),), 1)])
        b = classical("123")
        basis = MarkedBasis.from_patterns([a, b, a])
        assert list(basis) == sorted({a, b}, key=lambda p: (p.perm.n, p.perm.values))

    def test_bases_are_canonical_tuples(self):
        b, a = classical("123"), marked("21", marks=[((Box(1, 2),), 1)])
        assert MarkedBasis.from_patterns((b, a, b)) == (a, b)
        assert stack_preimage_basis(P((2, 3, 1))) == canonical(stack_preimage_basis(P((2, 3, 1))))

    def test_bases_and_expansions_come_canonical_through_length_6(self):
        # Neither calls canonical: the basis is in candidate order, and the
        # expansions are sorted by the plain form of pattern_sort_key.
        for image in perms_through(6):
            basis = stack_preimage_basis(image)
            assert basis == canonical(basis), image
            expanded = expand_basis(basis)
            assert expanded == canonical(expanded), image


class TestInsertPoint:
    def test_marked_2341_becomes_23451(self):
        pat = marked("2341", marks=[((Box(3, 4),), 1)])
        assert insert_point(pat, Box(3, 4)) == classical("23451")

    def test_marked_3421_becomes_34251(self):
        pat = marked("3421", shade=[(2, 4)], marks=[((Box(3, 4),), 1)])
        out = insert_point(pat, Box(3, 4))
        assert out == mesh("34251", [(2, 4), (2, 5)])

    def test_classical_grows_by_one(self):
        assert insert_point(classical("321"), Box(1, 3)) == classical("3421")

    def test_shaded_target_rejected(self):
        with pytest.raises(InvalidInsertionError):
            insert_point(mesh("21", [(1, 1)]), Box(1, 1))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(InvalidInsertionError):
            insert_point(classical("21"), Box(3, 0))

    @pytest.mark.parametrize("box", [(1.5, 1), (1,), "ab", None, (True, 1)],
                             ids=["float", "single", "string", "none", "bool"])
    def test_malformed_box_is_refused_as_every_box_input_is(self, box):
        with pytest.raises(InvalidInputError) as want:
            as_boxes([box])
        with pytest.raises(InvalidInputError) as got:
            insert_point(classical("21"), box)
        assert type(got.value) is InvalidInputError and str(got.value) == str(want.value)

    def test_shade_splitting_on_the_insertion_lines(self):
        # a shaded box sharing the insertion column splits into two
        out = insert_point(mesh("21", [(1, 0)]), Box(1, 2))
        assert out.perm == P((2, 3, 1)) and set(out.shade) == {Box(1, 0), Box(2, 0)}

    def test_witness_counts_once_towards_every_mark_holding_the_box(self):
        # The count-2 mark keeps its region, split around the new point,
        # with count 1; the count-1 mark holding the box is witnessed.
        assert insert_point(marked("21", marks=[({(1, 2)}, 2)]), Box(1, 2)) == \
               marked("231", marks=[({(1, 2), (1, 3), (2, 2), (2, 3)}, 1)])
        pat = marked("21", marks=[({(1, 2)}, 1), ({(1, 2), (2, 0)}, 2)])
        assert insert_point(pat, Box(1, 2)) == \
               marked("231", marks=[({(1, 2), (1, 3), (2, 2), (2, 3), (3, 0)}, 1)])


class TestExpandMarks:
    def test_double_mark_of_321(self):
        pat = marked("321", marks=[((Box(1, 3),), 1), ((Box(2, 2), Box(2, 3)), 1)])
        assert names(p.perm for p in expand_basis([pat])) == {"45231", "35241", "34251"}
        assert all(p.kind == "classical" for p in expand_basis([pat]))

    def test_single_mark_of_21(self):
        pat = marked("21", marks=[((Box(1, 2),), 1)])
        assert expand_basis([pat]) == (classical("231"),)

    def test_no_marks_returns_itself(self):
        assert expand_basis([classical("21")]) == (classical("21"),)
        assert expand_basis([mesh("21", [(0, 0)])]) == (mesh("21", [(0, 0)]),)

    @pytest.mark.parametrize("pat", [
        marked("12", marks=[({(2, 0), (2, 1)}, 2)]),
        marked("132", shade=[(2, 2)], marks=[({(1, 0), (1, 1), (2, 0)}, 2)]),
        marked("21", marks=[({(0, 0), (1, 1), (2, 2)}, 3)]),
        # Two overlapping marks: a witness in (1, 2) counts towards both.
        marked("21", marks=[({(1, 2)}, 1), ({(1, 2), (2, 0)}, 2)]),
    ], ids=["count-2", "count-2-shaded", "count-3", "counts-1-and-2-overlapping"])
    def test_containment_equals_containment_of_some_expansion(self, pat):
        expanded = expand_basis([pat])
        for pi in perms_through(7):
            want = bool(reference_alphas(pi.values, pat))
            assert contains(pi, pat) == want, pi
            assert any(contains(pi, q) for q in expanded) == want, pi


class TestExpansionWork:
    """Exact counters, never times: expansion builds each finished pattern
    once, and the CLI sorts an expanded basis once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"built": 0, "keyed": 0}
        post_init, sort_key = Pattern.__post_init__, patterns.pattern_sort_key

        def counting_post_init(pat):
            counts["built"] += 1
            post_init(pat)

        def counting_sort_key(pat):
            counts["keyed"] += 1
            return sort_key(pat)

        monkeypatch.setattr(Pattern, "__post_init__", counting_post_init)
        monkeypatch.setattr(patterns, "pattern_sort_key", counting_sort_key)
        return counts

    def test_expand_marks_builds_each_expansion_once(self, counts):
        for k in range(5):
            for image in permutations(range(1, k + 1)):
                for pat in stack_preimage_basis(P(image)):
                    counts["built"] = 0
                    expanded = expand_basis([pat])
                    assert counts["built"] == len(expanded), pat

    def test_the_23451_basis_builds_14_patterns(self, counts):
        basis = stack_preimage_basis(P((2, 3, 4, 5, 1)))
        counts["built"] = 0
        expand_basis(basis)
        assert counts["built"] == 14

    def test_preimage_expand_over_every_length_5_image(self, counts):
        for image in permutations("12345"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["preimage", "".join(image), "--expand"]) == 0
        # Only the 120 parsed images; the 2,645 printed lines are written
        # from plain pairs, sorted without pattern_sort_key.
        assert counts == {"built": 120, "keyed": 0}

    @pytest.mark.parametrize("word", ["132", "2341", "654321"])
    def test_preimage_expand_checks_each_printed_pair_once(self, counts, monkeypatch, word):
        # The marked basis, the candidates and the expansions stay plain:
        # one pattern is parsed and built, and each printed line's pair runs
        # the permutation and box checks once.  The parsed permutation is
        # checked too; its pattern has no shade to check.
        checks = {"perm": 0, "boxes": 0}
        check_perm, box_pairs = permutation._check_permutation, patterns._box_pairs

        def counting_check_perm(values):
            checks["perm"] += 1
            check_perm(values)

        def counting_box_pairs(boxes):
            checks["boxes"] += 1
            return box_pairs(boxes)

        monkeypatch.setattr(permutation, "_check_permutation", counting_check_perm)
        monkeypatch.setattr(patterns, "_check_permutation", counting_check_perm)
        monkeypatch.setattr(patterns, "_box_pairs", counting_box_pairs)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["preimage", word, "--expand"]) == 0
        lines = len(out.getvalue().splitlines())
        assert counts["built"] == 1
        assert checks == {"perm": lines + 1, "boxes": lines}


class TestExpansionKinds:
    """Only classical, mesh and marked patterns grow or expand."""

    @pytest.mark.parametrize("pat", [barred("231", [1]), decorated("21", [({(1, 1)}, "12")])],
                             ids=["barred", "decorated"])
    @pytest.mark.parametrize("call", [
        lambda pat: insert_point(pat, Box(0, 0)),
        lambda pat: expand_basis([pat]),
        lambda pat: expand_basis([classical("21"), pat]),
    ], ids=["insert_point", "expand_basis_of_one", "expand_basis"])
    def test_refused(self, call, pat):
        with pytest.raises(UnsupportedPatternError):
            call(pat)


class TestExpandBasis:
    def test_2341_expands_to_the_five_length_five_patterns(self):
        got = expand_basis(stack_preimage_basis(P((2, 3, 4, 1))))
        shapes = {(str(p.perm), frozenset(p.shade)) for p in got}
        assert shapes == {
            ("23451", frozenset()),
            ("24351", frozenset({Box(2, 4), Box(2, 5)})),
            ("32451", frozenset({Box(1, 3), Box(1, 4), Box(1, 5)})),
            ("42351", frozenset({Box(1, 4), Box(1, 5), Box(2, 4), Box(2, 5)})),
            ("43251", frozenset({Box(1, 4), Box(1, 5), Box(2, 3), Box(2, 4), Box(2, 5)})),
        }

    def test_an_expansion_two_basis_patterns_share_is_listed_once(self):
        # 231 is the one expansion of 21 with a point marked above its gap.
        assert expand_basis([classical("231"), marked("21", marks=[{(1, 2)}])]) == (classical("231"),)

    def test_231_expands_to_west_pair(self):
        got = expand_basis(stack_preimage_basis(P((2, 3, 1))))
        shapes = {(str(p.perm), frozenset(p.shade)) for p in got}
        assert shapes == {
            ("2341", frozenset()),
            ("3241", frozenset({Box(1, 3), Box(1, 4)})),
        }


def test_plain_lines_equal_the_lines_of_the_built_patterns():
    # Every expanded basis of every image of length 1 to 5, printed from
    # its plain pairs and through format_pattern.
    for k in range(1, 6):
        for image in permutations(range(1, k + 1)):
            pairs = patterns._expansions(plain for _, plain in preimage._outcomes(image) if plain is not None)
            plain_lines = [_line_text(values, shade) for values, shade in patterns._mesh_pairs(pairs)]
            assert plain_lines == [format_pattern(p) for p in patterns._mesh_patterns(pairs)], image


def _expand_digest(images) -> tuple[int, str]:
    """How many images there are, and the SHA-256 of the exit code and
    stdout of `preimage W --expand` for each image W, in order."""
    digest = hashlib.sha256()
    count = 0
    for image in images:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["preimage", "".join(image), "--expand"])
        digest.update(f"{code}\n{out.getvalue()}".encode())
        count += 1
    return count, digest.hexdigest()


def test_preimage_expand_output_is_pinned_for_every_image_up_to_length_5():
    # The exit code and stdout of `preimage W --expand` for the 153 images
    # W of length 1 to 5, in order, hashed: any change to un_s, shading and
    # marking, expansion or printing that moves one byte shows here.
    images = (image for k in range(1, 6) for image in permutations("12345"[:k]))
    assert _expand_digest(images) == (153, "e097332c2b372f6e09b4a7bf5feb403842fe6ee79d56520ed85b470777a247d1")


def test_preimage_expand_output_is_pinned_for_every_image_of_length_6():
    # The 720 images of the benchmark's derive workload, 54,102 lines.
    assert _expand_digest(permutations("123456")) == (
        720, "253020cc6640ca3074ce4152f7eefa43d4ad96afd6d2557e5f5e6c2c28ef1bc5")


class TestPruneBasis:
    def test_implied_longer_pattern_removed(self):
        basis = canonical([classical("2341"), classical("23451")])
        assert prune_basis(basis, 6) == (classical("2341"),)

    def test_containment_equivalent_pair_leaves_one(self):
        basis = canonical(
            [classical("231"), marked("21", marks=[((Box(1, 2),), 1)])])
        pruned = prune_basis(basis, 7)
        assert len(pruned) == 1

    def test_irredundant_basis_unchanged(self):
        basis = stack_preimage_basis(P((2, 3, 1)))
        assert list(prune_basis(basis, 6)) == list(basis)

    def test_every_length_counts(self):
        # Only the length-1 permutation shows that 1 is not implied by 12
        # and 21 together; once 1 is kept, it implies both.
        pruned = prune_basis([classical("21"), classical("1"), classical("12")], 3)
        assert list(pruned) == [classical("1")]

    def test_any_iterable_gives_the_canonical_tuple(self):
        given = iter([mesh("3241", [(1, 4)]), classical("2341"), classical("2341")])
        assert prune_basis(given, 6) == (classical("2341"), mesh("3241", [(1, 4)]))

    def test_barred_and_decorated_bases_keep_their_avoiders(self):
        basis = (classical("2341"), classical("23451"), barred("35241", [2]), mesh("3241", [(1, 4)]),
                 decorated("3241", [({(1, 4)}, "1")]), decorated("132", [({(1, 0), (1, 1)}, "21")]))
        pruned = prune_basis(basis, 7)
        assert set(pruned) < set(basis) and {p.kind for p in pruned} == {"classical", "barred", "decorated"}
        for n in range(1, 8):
            assert av_set(n, pruned) == av_set(n, basis), n

    def test_bound_below_longest_pattern_rejected(self):
        basis = canonical([classical("2341")])
        with pytest.raises(InvalidBoundError):
            prune_basis(basis, 3)

    @pytest.mark.parametrize("image", ["123", "132", "213", "231", "312", "321", "2413", "3241", "23451"])
    def test_patterns_no_permutation_up_to_the_bound_contains_are_kept(self, image):
        # A mark needs points beyond the pattern's letters, so the shortest
        # bound the guard allows can be too short for any permutation to
        # contain the pattern; nothing then shows that the rest implies it.
        basis = stack_preimage_basis(P.from_text(image))
        for n_max in range(max(len(p.perm) for p in basis), 7):
            pruned = prune_basis(basis, n_max)
            unseen = [q for q in basis if all(len(av_set(n, [q])) == factorial(n) for n in range(1, n_max + 1))]
            assert set(unseen) <= set(pruned), n_max
            for n in range(1, n_max + 1):
                assert av_set(n, pruned) == av_set(n, basis), (n_max, n)
