"""Exhaustive avoidance sets, censuses, verification reports, fixtures."""
from __future__ import annotations

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
    marked,
    mesh,
    preimage_av_set,
    prune_basis,
    reference_count,
    verify_preimage,
)
from permpat import oracle
from permpat.fixtures import FIXTURE_NAMES
from permpat.oracle import containment_masks
from permpat.patterns import _search

P = Permutation


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
