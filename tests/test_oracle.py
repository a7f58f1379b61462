"""Exhaustive avoidance sets, censuses, verification reports, fixtures."""
from __future__ import annotations

import functools
import math
import multiprocessing
import os
import random
import subprocess
import sys
from array import array
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


def _tree_key(vals):
    """Where each letter m stands among the letters up to m: the indices at
    which the maximum was inserted, length by length, to build ``vals``."""
    return tuple([v for v in vals if v <= m].index(m) for m in range(1, len(vals) + 1))


def _tree_order(n):
    """S_n in the tree order of inserting the maximum, from its definition:
    by the parent's place in the order of length n - 1, then by the index
    of n."""
    return sorted(permutations(range(1, n + 1)), key=_tree_key)


def _reference_masks(patterns, n):
    """The bitmask of the patterns each permutation of length ``n``
    contains, by the definition-level matcher, in tree order."""
    return [sum(1 << i for i, pat in enumerate(patterns) if reference_alphas(vals, pat))
            for vals in _tree_order(n)]


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


class TestTreeOrder:
    """The enumeration of the verify and prune scans, and its blocks."""

    @pytest.mark.parametrize("n", range(8))
    def test_tree_follows_the_definition(self, n):
        order = _tree_order(n)
        assert list(oracle._tree((), n)) == order
        # The subtree under a node of a lower level is a contiguous slice.
        for level in range(n + 1):
            size = math.factorial(n) // math.factorial(level)
            for j, root in enumerate(_tree_order(level)):
                assert list(oracle._tree(root, n)) == order[j * size:(j + 1) * size]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_block_gets_only_its_slice(self, n, jobs):
        prev = list(range(math.factorial(n - 1)))
        blocks = oracle._tree_blocks(n, jobs, prev, "rest")
        if jobs == 1 or n < 3:
            assert blocks == [(n, (), prev, "rest")] and blocks[0][2] is prev
        roots = [root for _, root, _, _ in blocks]
        level = len(roots[0])
        assert roots == _tree_order(level)
        if jobs > 1 and n > 2:
            # The least level with at least 2 * jobs nodes, or n - 1.
            assert level == min(n - 1, next(m for m in range(9) if math.factorial(m) >= 2 * jobs))
        below = [tuple(v for v in vals if v <= level) for vals in _tree_order(n - 1)]
        for _, root, part, rest in blocks:
            assert part == [v for v, top in zip(prev, below) if top == root]
            assert rest == "rest"
        assert all(part is None for _, _, part in oracle._tree_blocks(n, jobs, None))


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
        want = _reference_masks(self.PATS, n)
        assert oracle._mask_block((n, (), None, self.PATS, True)) == want
        assert oracle._mask_block((n, (), None, self.PATS, False)) == set(want)

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_subtree_blocks_give_the_one_block_masks(self, n, jobs):
        for prev in (None, _reference_masks(self.PATS, n - 1)):
            one = oracle._mask_block((n, (), prev, self.PATS, True))
            blocks = oracle._tree_blocks(n, jobs, prev, self.PATS, True)
            assert [mask for block in blocks for mask in oracle._mask_block(block)] == one
            blocks = oracle._tree_blocks(n, jobs, prev, self.PATS, False)
            assert set().union(*map(oracle._mask_block, blocks)) == set(one)

    @staticmethod
    def assert_masks_match_reference(basis, n_max):
        # Each length is handed the reference masks of the length before,
        # in tree order, where the basis has a search through the maximum.
        through = _search(basis, "mask_at_max") is not None
        for n in range(1, n_max + 1):
            want = _reference_masks(basis, n)
            prev = _reference_masks(basis, n - 1) if through else None
            assert oracle._mask_block((n, (), prev, basis, True)) == want, n
            assert oracle._mask_block((n, (), prev, basis, False)) == set(want), n

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
    @pytest.mark.parametrize("name, at_8, work_8", [
        ("west3", 1780, (27952, 2225, 10143)), ("bubble1243", 5040, (25680, 2111, 12529))])
    def test_one_image_search_per_distinct_first_pass_image(self, searches, name, at_8, work_8):
        op_id, passes, image, basis = FIXTURES[name]
        report = verify_preimage(image, basis, op_id, passes, 8)
        assert report.passed
        image = canonical(image)
        assert [searches[image, "first", n] for n in range(1, 9)] == \
               [_distinct_first_images(op_id, n) for n in range(1, 9)]
        assert searches[image, "first", 8] == at_8
        # The candidate side searches the empty root in full, and each
        # permutation at most once: only through its maximum when its
        # parent avoids the basis, which holds for n children of each
        # avoider of length n - 1; not at all when it inherits its parent's
        # occurrence; else whole.  At n = 8: through the maximum, whole,
        # and inherited.
        assert searches[basis, "first", 0] == 1
        avoiders = [1] + [row[1] for row in report.counts]
        for n in range(1, 9):
            assert searches[basis, "at_max", n] == n * avoiders[n - 1]
            assert searches[basis, "first", n] + searches[basis, "at_max", n] <= math.factorial(n)
        max_only, full = searches[basis, "at_max", 8], searches[basis, "first", 8]
        assert (max_only, full, math.factorial(8) - max_only - full) == work_8

    def test_no_pass_searches_every_permutation(self, searches):
        image = (classical("21"),)
        assert len(preimage_av_set(6, "stack", 0, image)) == 1
        assert searches[image, "first", 6] == 720


class TestPruneThroughTheMaximum:
    def test_full_mask_searches_per_length(self, searches):
        # An exact work counter.  Every permutation of length n >= 1 runs
        # the mask search through its maximum; the full mask search runs on
        # the empty root and then only where a pattern of the parent, with
        # a box of its top row shaded, is found through neither part.
        basis = expand_basis(stack_preimage_basis(P.from_text("23451")))
        pruned = prune_basis(basis, 8)
        assert pruned == basis
        assert [searches[basis, "mask_at_max", n] for n in range(9)] == \
               [0] + [math.factorial(n) for n in range(1, 9)]
        assert [searches[basis, "mask", n] for n in range(9)] == [1, 0, 0, 0, 0, 0, 0, 65, 1895]

    def test_a_basis_without_the_search_scans_in_full(self, searches):
        basis = TestMaskBlock.BRANCHES["mark-6"]
        prune_basis(basis, 6)
        assert [searches[basis, "mask", n] for n in range(1, 7)] == [math.factorial(n) for n in range(1, 7)]
        assert not any(action == "mask_at_max" for _, action, _ in searches)

    def test_the_last_length_keeps_no_map(self, monkeypatch):
        kept = []
        real = oracle._mask_block

        def recording(args):
            kept.append((args[0], args[2] is not None, args[4]))
            return real(args)

        monkeypatch.setattr(oracle, "_mask_block", recording)
        prune_basis(builtin_basis("west2"), 5)
        assert kept == [(1, True, True), (2, True, True), (3, True, True), (4, True, True), (5, True, False)]


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

    @pytest.fixture
    def blocks(self, monkeypatch):
        # The (length, root) of every block the tree scans run.
        opened = []
        for name in ("_verify_block", "_mask_block"):
            def recording(args, real=getattr(oracle, name)):
                opened.append(args[:2])
                return real(args)
            monkeypatch.setattr(oracle, name, recording)
        return opened

    def test_verify_opens_one_stream_per_length(self, streams, blocks):
        rep = verify_preimage((classical("21"),), (classical("231"),), "stack", 1, 5)
        assert rep.passed
        assert blocks == [(n, ()) for n in range(1, 6)]
        assert streams == []

    def test_prune_opens_one_stream_per_length(self, streams, blocks):
        basis = canonical(
            [classical("2341"), classical("23451"), mesh("3241", [(1, 4)])])
        pruned = prune_basis(basis, 6)
        assert list(pruned) == [classical("2341"), mesh("3241", [(1, 4)])]
        assert blocks == [(n, ()) for n in range(1, 7)]
        assert streams == []


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
    only through its maximum when its parent avoids the basis, lets it
    inherit its parent's occurrence where the inserted maximum keeps it,
    and else searches it whole, against the definition-level matcher,
    permutation by permutation."""

    @staticmethod
    def assert_verdicts_match_reference(basis, n_max):
        # Each length is handed the values of the length before as the scan
        # computed them, from the empty root on.
        closed = _search(basis, "at_max") is not None
        assert closed == _deletion_closed(basis)
        prev, counts = array("Q", [_search(basis, "first")(())]), []
        for n in range(1, n_max + 1):
            scanned = list(oracle._classify(n, (), prev, "stack", 0, basis, ()))
            assert [vals for vals, _, _ in scanned] == _tree_order(n)
            want = _avoids_by_reference(basis, n)
            assert {vals for vals, value, _ in scanned if not value} == want, (basis, n)
            prev = array("Q", [value for _, value, _ in scanned])
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
        assert verify_preimage(image, basis, op_id, passes, 7, jobs=3) == one

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_minus_one_pattern_names_the_least_counterexample(self, name):
        # Each length's counterexample is the lexicographically least
        # permutation on which the two sides differ, by a filter of
        # ``sort_power`` and ``contains`` over S_n, for any ``jobs``.
        op_id, passes, image, basis = FIXTURES[name]
        for i in range(len(basis)):
            fewer = basis[:i] + basis[i + 1:]
            one = verify_preimage(image, fewer, op_id, passes, 6, jobs=1)
            if one.passed:
                continue
            n = one.checked_n[-1]
            diff = [pi for pi in map(P, permutations(range(1, n + 1)))
                    if any(contains(pi, q) for q in fewer)
                    != any(contains(sort_power(op_id, passes, pi), q) for q in image)]
            assert one.counterexample[0] == diff[0], (name, i)
            assert verify_preimage(image, fewer, op_id, passes, 6, jobs=2) == one

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
