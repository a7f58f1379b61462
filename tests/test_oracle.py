"""Exhaustive avoidance sets, censuses, verification reports, fixtures."""
from __future__ import annotations

import functools
import math
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations
from multiprocessing import get_context
from pathlib import Path

import pytest
from conftest import identity, random_pattern, reference_count
from test_reference_matcher import reference_alphas, reference_contains

from permpat import (
    REASON_BAD_IMAGE,
    REASON_CONTAINS_BASIS,
    InvalidInputError,
    Permutation,
    VerificationReport,
    av_set,
    barred,
    builtin_basis,
    census,
    classical,
    contains,
    decorated,
    expand_basis,
    marked,
    mesh,
    preimage_av_set,
    prune_basis,
    sort_power,
    stack_preimage_basis,
    verify_preimage,
)
from permpat import oracle
from permpat.fixtures import FIXTURE_NAMES, FIXTURES
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


def _reference_masks(patterns, n):
    """Each permutation of length ``n``, packed as bytes, with the bitmask
    of the patterns it contains, by the definition-level matcher."""
    return {bytes(vals): sum(1 << i for i, pat in enumerate(patterns) if reference_alphas(vals, pat))
            for vals in permutations(range(1, n + 1))}


def _naive_prune(basis, n_max):
    """``prune_basis`` from the definition: in basis order, drop a pattern
    that some permutation up to ``n_max`` contains when every such
    permutation contains another pattern still kept, by the reference
    matcher and with no mask."""
    hosts = [vals for n in range(1, n_max + 1) for vals in permutations(range(1, n + 1))]
    holders = [{vals for vals in hosts if reference_contains(vals, pat)} for pat in basis]
    kept = list(range(len(basis)))
    for i in range(len(basis)):
        others = set().union(*(holders[j] for j in kept if j != i))
        if holders[i] and holders[i] <= others:
            kept.remove(i)
    return tuple(basis[i] for i in kept)


def _random_prune_bases():
    rng = random.Random(33)
    kinds = ("classical", "mesh", "marked", "barred", "decorated")
    return [canonical(random_pattern(rng, kinds, max_len=rng.choice((3, 4))) for _ in range(rng.randint(2, 5)))
            for _ in range(24)]


class TestMaskBlock:
    """The pruning worker: the containment masks of one block, searched in
    full or built from the masks of the length before."""

    PATS = (classical("12"), classical("21"), classical("231"), mesh("3241", [(1, 4)]),
            marked("21", marks=[({(1, 2)}, 1)]))

    # One basis per way a mask is built.  The top-row decoration, barred
    # 35241 (3241 with its top box (1, 4) shaded) and 1243's expansions
    # can be destroyed by an inserted maximum; the low decoration cannot.
    # The mark of 3 points has 6 expansions, past the bound of the search
    # through the maximum, so its basis is searched in full.
    BRANCHES = {
        "pats": canonical(PATS),
        "decoration-top": canonical([decorated("21", [({(1, 2)}, "12")]), classical("321")]),
        "decoration-low": canonical([decorated("21", [({(1, 1)}, "12")]), classical("1432")]),
        "barred": canonical([barred("35241", [2]), classical("2341"), classical("3241")]),
        "mark-4": canonical([*builtin_basis("bubble1243"), classical("1432")]),
        "mark-6": canonical([marked("21", shade=[(0, 0)], marks=[({(1, 1)}, 3)]), classical("321")]),
    }

    @pytest.mark.parametrize("n", range(7))
    def test_masks_of_s_n_are_those_of_the_definition(self, n):
        want = set(_reference_masks(self.PATS, n).values())
        assert oracle._mask_block((n, None, "stack", 0, self.PATS, None, False)) == want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_union_over_first_letter_blocks_is_the_one_block_set(self, n):
        one = oracle._mask_block((n, None, "stack", 0, self.PATS, None, False))
        blocks = [oracle._mask_block((n, first, "stack", 0, self.PATS, None, False)) for first in range(1, n + 1)]
        assert set().union(*blocks) == one
        prev, _ = self.kept(_reference_masks(self.PATS, n - 1), self.PATS)
        blocks = [oracle._mask_block((n, first, "stack", 0, self.PATS, prev, True)) for first in range(1, n + 1)]
        got = {key: mask for block, _ in blocks for key, mask in block.items()}
        assert (got, any(seen for _, seen in blocks)) == self.kept(_reference_masks(self.PATS, n), self.PATS)

    @staticmethod
    def kept(masks, patterns):
        """A map of masks as ``_mask_block`` keeps it: without its full
        masks, and whether it had one."""
        ones = (1 << len(patterns)) - 1
        return {key: mask for key, mask in masks.items() if mask != ones}, ones in masks.values()

    @classmethod
    def assert_masks_match_reference(cls, basis, n_max):
        # Each length is handed the reference masks of the length before,
        # without their full masks, where the basis has a search through
        # the maximum.
        through = _search(basis, "mask_at_max") is not None
        for n in range(1, n_max + 1):
            want = _reference_masks(basis, n)
            prev = cls.kept(_reference_masks(basis, n - 1), basis)[0] if through and n > 1 else None
            assert oracle._mask_block((n, None, "stack", 0, basis, prev, True)) == cls.kept(want, basis), n
            assert oracle._mask_block((n, None, "stack", 0, basis, prev, False)) == set(want.values()), n

    @pytest.mark.parametrize("name", BRANCHES)
    def test_masks_from_the_length_before_are_those_of_the_definition(self, name):
        basis = self.BRANCHES[name]
        through = _search(basis, "mask_at_max")
        assert (through is None) == (_search(basis, "at_max") is None) == (name == "mark-6")
        if through is not None:
            assert (through.top == 0) == (name == "decoration-low")
        self.assert_masks_match_reference(basis, 6)

    @pytest.mark.parametrize("name", BRANCHES)
    def test_prune_equals_the_naive_prune(self, name):
        basis = self.BRANCHES[name]
        assert prune_basis(basis, 6) == _naive_prune(basis, 6)

    @pytest.mark.parametrize("basis", [pytest.param(b, id=str(i)) for i, b in enumerate(_random_prune_bases())])
    def test_random_basis_masks_and_prune_match_the_definition(self, basis):
        self.assert_masks_match_reference(basis, 6)
        assert prune_basis(basis, 6) == _naive_prune(basis, 6)

    def test_random_prune_bases_cover_every_kind_and_both_scans(self):
        bases = _random_prune_bases()
        assert {pat.kind for basis in bases for pat in basis} == {
            "classical", "mesh", "marked", "barred", "decorated"}
        # Six bases have a mark of more than 4 expansions and are searched
        # in full; 18 of the 24 lose a pattern to pruning.
        through = [_search(basis, "mask_at_max") is not None for basis in bases]
        assert (through.count(True), through.count(False)) == (18, 6)
        assert through == [all(len(expand_basis([pat])) <= 4 for pat in basis if pat.marks) for basis in bases]
        assert sum(len(prune_basis(basis, 6)) < len(basis) for basis in bases) == 18


class TestBuiltinBases:
    def test_all_names_resolve(self):
        assert len(FIXTURE_NAMES) == 9
        for name in FIXTURE_NAMES:
            assert len(builtin_basis(name)) >= 1

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            builtin_basis("west4")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_basis_is_exact_for_its_operator_passes_and_targets(self, name):
        op_id, passes, image, basis = FIXTURES[name]
        assert basis == builtin_basis(name)
        assert verify_preimage(image, basis, op_id, passes, 6).passed

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

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", recording_context)
        assert census("stack", 2, 6, jobs=2) == census("stack", 2, 6, jobs=1)
        assert methods == ["spawn"]

    def test_multiprocessing_loads_only_to_fan_out(self):
        # A fresh interpreter: this one has loaded it for the tests above.
        import permpat

        src = str(Path(permpat.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, permpat, permpat.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

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


@pytest.fixture
def searches(monkeypatch):
    """Counts every host a scan's compiled searches are run on, by the
    searched basis, the search's action and the host's length."""
    counts = Counter()
    real = oracle._search

    def counting(patterns, action):
        search = real(patterns, action)
        if search is None:
            return None

        @functools.wraps(search)
        def counted(values, *args):
            counts[patterns, action, len(values)] += 1
            return search(values, *args)
        return counted

    monkeypatch.setattr(oracle, "_search", counting)
    return counts


class TestImageVerdictPerFirstImage:
    @pytest.mark.parametrize("name, at_8, full_8, max_only_8", [
        ("west3", 1780, 12368, 27952), ("bubble1243", 5040, 14640, 25680)])
    def test_one_image_search_per_distinct_first_pass_image(self, searches, name, at_8, full_8, max_only_8):
        op_id, passes, image, basis = FIXTURES[name]
        report = verify_preimage(image, basis, op_id, passes, 8)
        assert report.passed
        image = canonical(image)
        assert [searches[image, "first", n] for n in range(1, 9)] == \
               [_distinct_first_images(op_id, n) for n in range(1, 9)]
        assert searches[image, "first", 8] == at_8
        # The candidate side searches each permutation once: only through
        # its maximum when its max-deleted part avoids the basis, which
        # holds for n of them per avoider of length n - 1, else whole.
        assert searches[basis, "first", 1] == 1
        for n in range(2, 9):
            avoiders = report.counts[n - 2][1]
            assert searches[basis, "at_max", n] == n * avoiders
            assert searches[basis, "first", n] + searches[basis, "at_max", n] == math.factorial(n)
        assert (searches[basis, "first", 8], searches[basis, "at_max", 8]) == (full_8, max_only_8)

    def test_no_pass_searches_every_permutation(self, searches):
        image = (classical("21"),)
        assert len(preimage_av_set(6, "stack", 0, image)) == 1
        assert searches[image, "first", 6] == 720


class TestPruneThroughTheMaximum:
    def test_full_mask_searches_per_length(self, searches):
        # An exact work counter.  Every permutation of length n >= 2 runs
        # the mask search through its maximum; the full mask search runs on
        # length 1 and then only where a pattern of the max-deleted part,
        # with a box of its top row shaded, is found through neither part.
        basis = expand_basis(stack_preimage_basis(P.from_text("23451")))
        pruned = prune_basis(basis, 8)
        assert pruned == basis
        assert [searches[basis, "mask_at_max", n] for n in range(1, 9)] == \
               [0] + [math.factorial(n) for n in range(2, 9)]
        assert [searches[basis, "mask", n] for n in range(1, 9)] == [1, 0, 0, 0, 0, 0, 65, 1895]

    def test_a_basis_without_the_search_scans_in_full(self, searches):
        basis = TestMaskBlock.BRANCHES["mark-6"]
        prune_basis(basis, 6)
        assert [searches[basis, "mask", n] for n in range(1, 7)] == [math.factorial(n) for n in range(1, 7)]
        assert not any(action == "mask_at_max" for _, action, _ in searches)

    def test_the_last_length_keeps_no_map(self, monkeypatch):
        kept = []
        real = oracle._mask_block

        def recording(args):
            kept.append((args[0], args[5] is not None, args[6]))
            return real(args)

        monkeypatch.setattr(oracle, "_mask_block", recording)
        prune_basis(builtin_basis("west2"), 5)
        assert kept == [(1, False, True), (2, True, True), (3, True, True), (4, True, True), (5, True, False)]


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
            naive = sum(sort_power(op_id, passes, pi) == identity(n)
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
        basis = canonical(
            [classical("2341"), classical("23451"), mesh("3241", [(1, 4)])])
        pruned = prune_basis(basis, 6)
        assert list(pruned) == [classical("2341"), mesh("3241", [(1, 4)])]
        assert streams == [(n, None) for n in range(1, 7)]


def test_one_search_is_built_per_basis():
    # West-3 is the candidate basis and 21 the image basis; four West-3
    # patterns carry a decoration that avoids 12.  Each of these three
    # first-hit searches and the candidate basis's search through the
    # maximum is compiled once, and a repeat compiles nothing.
    _search.cache_clear()
    args = ([classical("21")], builtin_basis("west3"), "stack", 3, 6)
    assert verify_preimage(*args).passed
    assert _search.cache_info().misses == 4
    verify_preimage(*args)
    assert _search.cache_info().misses == 4


def _avoids_by_reference(basis, n):
    """The permutations of length ``n`` that avoid every pattern of
    ``basis``, by the definition-level matcher."""
    return {vals for vals in permutations(range(1, n + 1))
            if not any(reference_contains(vals, pat) for pat in basis)}


# Bases with no search through the maximum, which must be scanned with the
# whole search: a decoration avoiding a decorated pattern, and a mark of 3
# points, with 3! expansions, past the bound of that search's lowering.
# 1234 contains the marked one through its letter 1, with 4 as a witness,
# while 123 avoids it.
NOT_DELETION_CLOSED = [
    decorated("21", [({(1, 1)}, decorated("12", [({(1, 1)}, "1")]))]),
    marked("1", marks=[({(1, 1)}, 3)]),
]


def _random_bases():
    rng = random.Random(20261020)
    kinds = ("classical", "mesh", "marked", "barred", "decorated")
    bases = [canonical(random_pattern(rng, kinds, max_len=3) for _ in range(rng.randint(1, 3)))
             for _ in range(24)]
    # Each fallback pattern alone and beside random patterns of every kind.
    for pat in NOT_DELETION_CLOSED:
        bases.append((pat,))
        bases.append(canonical([pat, *(random_pattern(rng, kinds, max_len=3) for _ in range(2))]))
    return bases


def _deletion_closed(basis):
    """Whether the scan may search through the maximum, by the rule of the
    oracle's docstring: no decoration avoids a non-classical pattern, and
    every mark is lowered to at most 4 expansions."""
    return all(
        all(d.avoid.kind == "classical" for d in pat.decorations)
        and (not pat.marks or len(expand_basis([pat])) <= 4)
        for pat in basis
    )


class TestSearchThroughTheMaximum:
    """The candidate side of the verify scan, which searches a permutation
    only through its maximum when its max-deleted part avoids the basis,
    against the definition-level matcher, permutation by permutation."""

    @staticmethod
    def assert_verdicts_match_reference(basis, n_max):
        # Each length is handed the reference avoiders of the length before,
        # where the basis has a search through the maximum.
        closed = _search(basis, "at_max") is not None
        assert closed == _deletion_closed(basis)
        prev, counts = None, []
        for n in range(1, n_max + 1):
            want = _avoids_by_reference(basis, n)
            got = {vals for vals, in_av, _ in oracle._classify(n, None, "stack", 0, basis, (), prev) if in_av}
            assert got == want, (basis, n)
            prev = want if closed else None
            counts.append(len(want))
        return counts

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_verdicts_match_reference_through_length_7(self, name):
        op_id, passes, image, basis = FIXTURES[name]
        assert _search(basis, "at_max") is not None
        counts = self.assert_verdicts_match_reference(basis, 7)
        one = verify_preimage(image, basis, op_id, passes, 7, jobs=1)
        assert [row[1] for row in one.counts] == counts
        assert verify_preimage(image, basis, op_id, passes, 7, jobs=2) == one

    @pytest.mark.parametrize("basis", _random_bases())
    def test_random_basis_verdicts_match_reference_through_length_6(self, basis):
        counts = self.assert_verdicts_match_reference(basis, 6)
        # With no pass a permutation is its own image, so the image side
        # runs the whole first-hit search of the same basis: every length
        # passes, and its row counts the basis's avoiders.
        one = verify_preimage(basis, basis, "stack", 0, 6, jobs=1)
        assert one.passed
        assert [row[1] for row in one.counts] == counts
        assert verify_preimage(basis, basis, "stack", 0, 6, jobs=2) == one

    def test_random_bases_cover_every_kind_and_both_paths(self):
        bases = _random_bases()
        assert {pat.kind for basis in bases for pat in basis} == {
            "classical", "mesh", "marked", "barred", "decorated"}
        # The four bases built on NOT_DELETION_CLOSED, and five random
        # bases with a mark of more than 4 expansions, take the fallback.
        closed = [_deletion_closed(basis) for basis in bases]
        assert (closed.count(True), closed.count(False)) == (19, 9)
