"""Exhaustive avoidance sets, censuses, verification reports, fixtures."""
from __future__ import annotations

from collections import Counter
from itertools import permutations
from multiprocessing import get_context

import pytest

from permpat import (
    REASON_BAD_IMAGE,
    REASON_CONTAINS_BASIS,
    InvalidInputError,
    MarkedBasis,
    Permutation,
    VerificationReport,
    av_set,
    builtin_basis,
    census,
    classical,
    contains,
    marked,
    mesh,
    preimage_av_set,
    prune_basis,
    reference_count,
    sort_power,
    verify_preimage,
)
from permpat import oracle
from permpat.fixtures import FIXTURE_NAMES, FIXTURE_TARGETS
from permpat.oracle import containment_masks
from permpat.patterns import _search, canonical
from permpat.permutation import operator_fn

P = Permutation

# Two bubble passes sort exactly the permutations in which no entry has
# three larger entries to its left: those avoiding the six patterns of
# length 4 that end in 1.
BUBBLE2 = ("2341", "2431", "3241", "3421", "4231", "4321")


class TestAvSet:
    def test_av4_of_231_has_14_elements(self):
        out = av_set(4, (classical("231"),))
        assert len(out) == 14
        assert all(isinstance(p, P) for p in out)

    def test_lexicographic_order(self):
        out = av_set(3, (classical("231"),))
        assert [p.values for p in out] == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]

    def test_empty_basis_gives_all_of_s_n(self):
        assert len(av_set(4, ())) == 24

    def test_mixed_kind_basis(self):
        out = av_set(4, builtin_basis("west2"))
        assert len(out) == 22

    def test_length_zero_has_only_the_empty_permutation(self):
        assert av_set(0, (classical("21"),)) == [P(())]

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidInputError):
            av_set(-1, (classical("21"),))


class TestCensus:
    def test_one_pass_stack_follows_catalan(self):
        for n in range(1, 7):
            assert census("stack", 1, n) == reference_count("catalan", n)

    def test_three_pass_stack_at_5(self):
        assert census("stack", 3, 5) == 114

    def test_zero_passes_counts_identity_only(self):
        assert census("stack", 0, 5) == 1

    def test_enough_passes_count_everything(self):
        assert census("stack", 5, 5) == 120
        assert census("bubble", 4, 5) == 120


class TestPreimageAvSet:
    def test_one_pass_stack_preimage_of_21(self):
        out = preimage_av_set(3, "stack", 1, (classical("21"),))
        assert [p.values for p in out] == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]

    def test_zero_passes_is_plain_avoidance(self):
        a = preimage_av_set(4, "stack", 0, (classical("231"),))
        b = av_set(4, (classical("231"),))
        assert a == b


class TestVerifyPreimage:
    def test_passing_report(self):
        rep = verify_preimage((classical("21"),), (classical("231"),), "stack", 1, 5)
        assert rep.passed and rep.status == "pass"
        assert rep.counterexample is None
        assert rep.checked_n == (1, 2, 3, 4, 5)
        assert rep.counts[-1] == (5, 42, 42, True)

    def test_candidate_too_small_names_least_missing(self):
        rep = verify_preimage((classical("231"),), (classical("2341"),), "stack", 1, 5)
        assert not rep.passed and rep.status == "fail"
        perm, reason = rep.counterexample
        assert perm == P((3, 2, 4, 1))
        assert reason == REASON_BAD_IMAGE
        # verification stops at the first failing length
        assert rep.checked_n[-1] == 4

    def test_candidate_too_large_names_least_extra(self):
        rep = verify_preimage((classical("21"),), (classical("231"), classical("312")),
                              "stack", 1, 5)
        assert not rep.passed
        perm, reason = rep.counterexample
        assert perm == P((3, 1, 2))
        assert reason == REASON_CONTAINS_BASIS
        assert rep.checked_n[-1] == 3

    def test_passed_and_checked_n_follow_the_stored_fields(self):
        counts = ((1, 1, 1, True), (2, 2, 1, False))
        failed = VerificationReport("stack", 1, counts, (P((2, 1)), REASON_BAD_IMAGE))
        assert not failed.passed and failed.checked_n == (1, 2)
        passed = VerificationReport("stack", 1, counts[:1])
        assert passed.passed and passed.checked_n == (1,)
        with pytest.raises(AttributeError):
            passed.passed = False

    def test_text_report_shape(self):
        rep = verify_preimage((classical("21"),), (classical("231"),), "stack", 1, 3)
        lines = rep.to_text().splitlines()
        assert lines[0].split() == ["n", "|Av|", "|preimage|", "equal"]
        assert len(lines) == 5 and lines[-1] == "PASS"

    def test_json_report_shape(self):
        rep = verify_preimage((classical("231"),), (classical("2341"),), "stack", 1, 4)
        d = rep.to_json_dict()
        assert d["status"] == "fail"
        assert d["counterexample"] == {"perm": [3, 2, 4, 1], "reason": REASON_BAD_IMAGE}
        assert [row["n"] for row in d["counts"]] == [1, 2, 3, 4]

    @pytest.mark.parametrize("op_id, passes", [("stack", -3), ("stack", -1), ("quick", 1)])
    def test_bad_operator_or_pass_count_rejected(self, op_id, passes):
        with pytest.raises(InvalidInputError):
            verify_preimage((classical("21"),), (classical("231"),), op_id, passes, 4)


class TestReferenceCounts:
    def test_catalan(self):
        assert [reference_count("catalan", n) for n in range(9)] == \
               [1, 1, 2, 5, 14, 42, 132, 429, 1430]

    def test_two_pass_closed_form(self):
        assert [reference_count("west2", n) for n in range(1, 10)] == \
               [1, 2, 6, 22, 91, 408, 1938, 9614, 49335]

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            reference_count("fib", 3)
        with pytest.raises(InvalidInputError):
            reference_count("catalan", -1)
        with pytest.raises(InvalidInputError):
            reference_count("west2", 0)


class TestContainmentMasks:
    def test_exact_containing_set(self):
        got = [vals for vals, mask in containment_masks(3, [classical("21")]) if mask]
        assert got == [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]

    def test_complement_of_avoidance(self):
        basis_pat = mesh("3241", [(1, 4)])
        masks = list(containment_masks(5, [basis_pat]))
        av = [p.values for p in av_set(5, (basis_pat,))]
        assert [vals for vals, mask in masks if not mask] == av
        assert len(masks) == 120

    def test_one_bit_per_pattern(self):
        pats = [classical("12"), classical("21"), classical("231")]
        avoiders = [{p.values for p in av_set(4, (pat,))} for pat in pats]
        for vals, mask in containment_masks(4, pats):
            assert [bool(mask >> i & 1) for i in range(3)] == [vals not in av for av in avoiders]


class TestBuiltinBases:
    def test_all_names_resolve(self):
        assert len(FIXTURE_NAMES) == 9
        for name in FIXTURE_NAMES:
            assert len(builtin_basis(name)) >= 1

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            builtin_basis("west4")

    def test_west2_content(self):
        assert builtin_basis("west2") == (classical("2341"), mesh("3241", [(1, 4)]))

    def test_west3_shape(self):
        w3 = builtin_basis("west3")
        kinds = [p.kind for p in w3]
        assert len(w3) == 10
        assert kinds.count("classical") == 1
        assert kinds.count("mesh") == 5
        assert kinds.count("decorated") == 4
        assert sorted(p.perm.n for p in w3) == [5, 5, 5, 5, 5, 5, 6, 6, 7, 7]

    def test_stack_len3_231_is_the_marked_west_pair(self):
        assert builtin_basis("stack_len3_231") == (
            marked("231", marks=[{(2, 3)}]),
            marked("321", {(1, 3)}, [{(2, 3)}]),
        )

    def test_bubble1243_shape(self):
        b = builtin_basis("bubble1243")
        assert len(b) == 4
        assert {str(p.perm) for p in b} == {"1243", "1423", "2143", "4123"}
        assert all(p.kind == "marked" for p in b)


class TestJobsDeterminism:
    def test_av_set_agrees_across_worker_counts(self):
        one = av_set(5, (classical("231"),), jobs=1)
        four = av_set(5, (classical("231"),), jobs=4)
        assert one == four

    def test_census_agrees_across_worker_counts(self):
        assert census("stack", 2, 6, jobs=4) == census("stack", 2, 6, jobs=1)

    def test_spawn_where_fork_is_missing(self, monkeypatch):
        methods = []

        def recording_context(method):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(oracle, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(oracle, "get_context", recording_context)
        assert census("stack", 2, 6, jobs=2) == census("stack", 2, 6, jobs=1)
        assert methods == ["spawn"]

    # Each case's least counterexample lies outside the block of first
    # letter 1, so the merge over blocks must pick the right one.  In the
    # last case both sides count 5 at n=3, but the sets differ.
    @pytest.mark.parametrize("image, candidate, last_row, least", [
        ("231", ("2341",), (4, 23, 22, False), (P((3, 2, 4, 1)), REASON_BAD_IMAGE)),
        ("21", ("231", "312"), (3, 4, 5, False), (P((3, 1, 2)), REASON_CONTAINS_BASIS)),
        ("21", ("312",), (3, 5, 5, False), (P((2, 3, 1)), REASON_BAD_IMAGE)),
    ])
    def test_verify_agrees_across_worker_counts(self, image, candidate, last_row, least):
        args = ((classical(image),), tuple(classical(c) for c in candidate), "stack", 1, 5)
        one = verify_preimage(*args, jobs=1)
        two = verify_preimage(*args, jobs=2)
        assert one == two
        assert one.counts[-1] == last_row
        assert one.counterexample == least

    # Several passes, where each block looks image verdicts up per
    # first-pass image.  Every FAIL case's least counterexample has a first
    # letter other than 1.
    @pytest.mark.parametrize("op_id, passes, image, candidate, last_row, least", [
        ("stack", 2, "21", builtin_basis("west2"), (6, 408, 408, True), None),
        ("stack", 2, "21", (classical("2341"),), (4, 23, 22, False),
         (P((3, 2, 4, 1)), REASON_BAD_IMAGE)),
        ("stack", 2, "231", (classical("2341"),), (4, 23, 24, False),
         (P((2, 3, 4, 1)), REASON_CONTAINS_BASIS)),
        ("stack", 3, "21", builtin_basis("west3"), (6, 606, 606, True), None),
        ("stack", 3, "21", (classical("23451"),), (5, 119, 114, False),
         (P((2, 4, 3, 5, 1)), REASON_BAD_IMAGE)),
        ("bubble", 1, "21", (classical("231"), classical("321")), (5, 16, 16, True), None),
        ("bubble", 1, "21", (classical("231"),), (3, 5, 4, False),
         (P((3, 2, 1)), REASON_BAD_IMAGE)),
        ("bubble", 2, "21", tuple(classical(p) for p in BUBBLE2), (6, 162, 162, True), None),
        ("bubble", 2, "21", tuple(classical(p) for p in BUBBLE2[1:]), (4, 19, 18, False),
         (P((2, 3, 4, 1)), REASON_BAD_IMAGE)),
    ], ids=["stack2-west2", "stack2-2341", "stack2-231-2341", "stack3-west3", "stack3-23451",
            "bubble1-pass", "bubble1-231", "bubble2-pass", "bubble2-no-2341"])
    def test_verify_with_several_passes_agrees_across_worker_counts(
            self, op_id, passes, image, candidate, last_row, least):
        args = ((classical(image),), candidate, op_id, passes, last_row[0])
        one = verify_preimage(*args, jobs=1)
        two = verify_preimage(*args, jobs=2)
        assert one == two
        assert one.counts[-1] == last_row
        assert one.counterexample == least


def _distinct_first_images(op_id, n):
    step = operator_fn(op_id)
    return len({step(vals) for vals in permutations(range(1, n + 1))})


class TestImageVerdictPerFirstImage:
    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts every host a scan's compiled searches are run on, by the
        searched basis and the host's length."""
        counts = Counter()
        real = oracle._search

        def counting(patterns, action):
            search = real(patterns, action)

            def counted(values):
                counts[patterns, len(values)] += 1
                return search(values)
            return counted

        monkeypatch.setattr(oracle, "_search", counting)
        return counts

    @pytest.mark.parametrize("name, at_8", [("west3", 1780), ("bubble1243", 5040)])
    def test_one_image_search_per_distinct_first_pass_image(self, searches, name, at_8):
        op_id, passes, image = FIXTURE_TARGETS[name]
        assert verify_preimage(image, builtin_basis(name), op_id, passes, 8).passed
        image = canonical(image)
        assert [searches[image, n] for n in range(1, 9)] == \
               [_distinct_first_images(op_id, n) for n in range(1, 9)]
        assert searches[image, 8] == at_8
        # the candidate side still searches every permutation
        assert searches[builtin_basis(name), 8] == 40320

    def test_no_pass_searches_every_permutation(self, searches):
        image = (classical("21"),)
        assert len(preimage_av_set(6, "stack", 0, image)) == 1
        assert searches[image, 6] == 720


class TestAgainstTheDefinition:
    """The scans against a filter of ``sort_power`` and ``contains`` over
    S_n, for every pass count the per-image dict does and does not serve."""

    @pytest.mark.parametrize("op_id", ["stack", "bubble"])
    @pytest.mark.parametrize("passes", [0, 1, 2, 3])
    @pytest.mark.parametrize("image", [
        (classical("21"),),
        (classical("231"),),
        (classical("132"), mesh("3241", [(1, 4)])),
    ], ids=["21", "231", "132+mesh3241"])
    def test_preimage_av_set(self, op_id, passes, image):
        for n in range(1, 7):
            naive = [pi for pi in map(P, permutations(range(1, n + 1)))
                     if not any(contains(sort_power(op_id, passes, pi), q) for q in image)]
            assert preimage_av_set(n, op_id, passes, image) == naive

    @pytest.mark.parametrize("op_id", ["stack", "bubble"])
    @pytest.mark.parametrize("passes", [0, 1, 2, 3])
    def test_census(self, op_id, passes):
        for n in range(1, 7):
            naive = sum(sort_power(op_id, passes, pi).is_identity()
                        for pi in map(P, permutations(range(1, n + 1))))
            assert census(op_id, passes, n) == naive


class TestOneScanPerLength:
    @pytest.fixture
    def streams(self, monkeypatch):
        opened = []
        real = oracle._perm_stream

        def counting(n, first):
            opened.append((n, first))
            return real(n, first)

        monkeypatch.setattr(oracle, "_perm_stream", counting)
        return opened

    def test_verify_opens_one_stream_per_length(self, streams):
        rep = verify_preimage((classical("21"),), (classical("231"),), "stack", 1, 5)
        assert rep.passed
        assert streams == [(n, None) for n in range(1, 6)]

    def test_prune_opens_one_stream_per_length(self, streams):
        basis = MarkedBasis.from_patterns(
            [classical("2341"), classical("23451"), mesh("3241", [(1, 4)])])
        pruned = prune_basis(basis, 6)
        assert list(pruned) == [classical("2341"), mesh("3241", [(1, 4)])]
        assert streams == [(n, None) for n in range(1, 7)]


def test_one_search_is_built_per_basis():
    # West-3 is the candidate basis and 21 the image basis; four West-3
    # patterns carry a decoration that avoids 12.  Each of these three
    # first-hit searches is compiled once, and a repeat compiles nothing.
    _search.cache_clear()
    args = ([classical("21")], builtin_basis("west3"), "stack", 3, 6)
    assert verify_preimage(*args).passed
    assert _search.cache_info().misses == 3
    verify_preimage(*args)
    assert _search.cache_info().misses == 3
