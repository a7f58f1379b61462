"""Randomized properties over permutations, patterns, and the basis
machinery."""
from __future__ import annotations

import math

from conftest import identity, inversions, noninversions
from hypothesis import given, settings, strategies as st

from permpat import (
    Permutation,
    bubble_sort,
    classical,
    contains,
    format_pattern,
    marked,
    mesh,
    occurrences,
    parse_pattern,
    sort_power,
    stack_sort,
    standardize,
    un_s,
)
from permpat.preimage import _shade_and_mark_impl, candidate_outcomes, shade_and_mark

P = Permutation

words = st.lists(st.integers(-99, 99), unique=True, max_size=7).map(tuple)


def perm_of(n: int):
    return st.permutations(list(range(1, n + 1))).map(lambda v: P(tuple(v)))


perms = st.integers(0, 7).flatmap(perm_of)
small_perms = st.integers(1, 6).flatmap(perm_of)


@st.composite
def patterns(draw, max_len: int = 4, kinds=("classical", "mesh", "marked")):
    k = draw(st.integers(1, max_len))
    perm = draw(perm_of(k))
    kind = draw(st.sampled_from(kinds))
    if kind == "classical":
        return classical(perm)
    boxes = st.tuples(st.integers(0, k), st.integers(0, k))
    shade = draw(st.frozensets(boxes, max_size=k + 2))
    if kind == "mesh":
        return mesh(perm, shade)
    free = [b for b in {(c, r) for c in range(k + 1) for r in range(k + 1)} - shade]
    if not free:
        return mesh(perm, shade)
    regions = draw(st.lists(
        st.frozensets(st.sampled_from(free), min_size=1, max_size=3),
        min_size=1, max_size=2))
    return marked(perm, shade, [set(r) for r in regions])


class TestPermutationProperties:
    @given(words)
    def test_standardize_idempotent(self, w):
        once = standardize(w)
        assert standardize(once.values) == once

    @given(perms)
    def test_sorting_preserves_the_value_multiset(self, pi):
        assert sorted(stack_sort(pi).values) == sorted(pi.values)
        assert sorted(bubble_sort(pi).values) == sorted(pi.values)

    @given(perms, st.sampled_from(["stack", "bubble"]),
           st.integers(0, 3), st.integers(0, 3))
    def test_sort_power_additivity(self, pi, op, a, b):
        assert sort_power(op, a + b, pi) == sort_power(op, a, sort_power(op, b, pi))

    @given(small_perms)
    def test_stack_sort_ends_with_the_maximum(self, pi):
        assert stack_sort(pi).values[-1] == pi.n

    @given(small_perms)
    def test_bubble_sort_reduces_inversions(self, pi):
        before = len(inversions(pi.values))
        after = len(inversions(bubble_sort(pi).values))
        assert after < before or before == 0


class TestPatternProperties:
    @given(patterns())
    def test_json_round_trip(self, pat):
        assert parse_pattern(format_pattern(pat, "json"), "json") == pat

    @given(patterns())
    def test_line_round_trip(self, pat):
        assert parse_pattern(format_pattern(pat, "line")) == pat

    @settings(max_examples=40, deadline=None)
    @given(small_perms, st.integers(1, 4).flatmap(perm_of))
    def test_classical_count_bound(self, pi, p):
        count = len(occurrences(pi, classical(p)))
        assert count <= math.comb(pi.n, p.n)

    @given(st.integers(1, 6), st.integers(1, 4))
    def test_identity_in_identity_reaches_the_bound(self, n, k):
        count = len(occurrences(identity(n), classical(identity(k))))
        assert count == math.comb(n, k)

    @settings(max_examples=40, deadline=None)
    @given(small_perms, patterns(max_len=3))
    def test_occurrence_invariants(self, pi, pat):
        for occ in occurrences(pi, pat):
            assert all(a < b for a, b in zip(occ.alpha, occ.alpha[1:]))
            assert all(a < b for a, b in zip(occ.beta, occ.beta[1:]))
            assert occ.omega == tuple(
                (a, pi.values[a - 1]) for a in occ.alpha)
            assert tuple(sorted(v for _, v in occ.omega)) == occ.beta
            chosen = {v for _, v in occ.omega}
            assert standardize(v for v in pi.values if v in chosen) == pat.perm


class TestPreimageProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4).flatmap(perm_of))
    def test_word_is_its_own_candidate(self, p):
        assert p in un_s(p.values)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4).flatmap(perm_of))
    def test_candidates_keep_every_inversion(self, p):
        inv = inversions(p.values)
        for lam in un_s(p.values):
            assert inv <= inversions(lam.values)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4).flatmap(perm_of), st.randoms(use_true_random=False))
    def test_shade_and_mark_order_independence(self, image, rng):
        pos = {v: i for i, v in enumerate(image.values, 1)}
        inv = sorted(inversions(image.values),
                     key=lambda p: (pos[p[0]], pos[p[1]]))
        ninv = noninversions(image.values)
        for lam in sorted(un_s(image.values)):
            shuffled = list(inv)
            rng.shuffle(shuffled)
            assert _shade_and_mark_impl(lam, ninv, shuffled) == \
                shade_and_mark(lam, image)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4).flatmap(perm_of))
    def test_marks_disjoint_from_shades_and_incomparable(self, image):
        for _, outcome in candidate_outcomes(image):
            if outcome is None:
                continue
            shade_set = set(outcome.pattern.shade)
            regions = tuple(m.region for m in outcome.pattern.marks)
            for region in regions:
                assert not shade_set.intersection(region)
            for a in regions:
                for b in regions:
                    assert a is b or not set(a) <= set(b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5).flatmap(perm_of))
    def test_stack_image_occurrences_trace_back_to_candidates(self, pi):
        sigma = stack_sort(pi)
        for p in (P((2, 1)), P((2, 3, 1))):
            if p.n > pi.n:
                continue
            cands = un_s(p.values)
            for occ in occurrences(sigma, classical(p)):
                chosen = set(occ.beta)
                traced = standardize(v for v in pi.values if v in chosen)
                assert traced in cands
