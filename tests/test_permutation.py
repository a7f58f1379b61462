"""Permutation type, text forms, and the single-pass sorting operators."""
from __future__ import annotations

import pytest

from permpat import (
    InvalidInputError,
    Permutation,
    ValuePairSets,
    as_word,
    bubble_sort,
    inversion_tables,
    pattern_of_values,
    sort_power,
    stack_sort,
    standardize,
)
from permpat.permutation import OPERATOR_IDS, operator_fn

P = Permutation


class TestConstruction:
    def test_accepts_any_ordering_of_1_to_n(self):
        assert P((2, 3, 1)).n == 3
        assert P((1,)).n == 1

    @pytest.mark.parametrize("bad", [(1, 2, 2), (2, 3), (0, 1), (1, 2, 4)])
    def test_rejects_non_permutations(self, bad):
        with pytest.raises(InvalidInputError):
            P(bad)

    def test_rejects_non_integer_entries(self):
        # 2.0 == 2 and True == 1, so only the type tells these apart
        for bad in [(2.0, 1.0), (2, True)]:
            with pytest.raises(InvalidInputError):
                P(bad)

    def test_empty_is_vacuously_valid(self):
        # every value of 1..0 appears exactly once, so n = 0 is fine
        assert P(()).n == 0
        assert P(()).is_identity()

    def test_identity(self):
        assert P.identity(4) == P((1, 2, 3, 4))
        assert P.identity(4).is_identity()
        assert not P((2, 1)).is_identity()

    def test_equality_and_ordering(self):
        assert P((1, 2)) == P([1, 2])
        assert P((1, 3, 2)) < P((2, 1, 3))

    def test_iteration_and_len(self):
        assert list(P((3, 1, 2))) == [3, 1, 2]
        assert len(P((3, 1, 2))) == 3


class TestTextForms:
    def test_digit_form(self):
        assert P.from_text("526413") == P((5, 2, 6, 4, 1, 3))
        assert str(P((5, 2, 6, 4, 1, 3))) == "526413"

    def test_comma_form(self):
        ten = tuple([10] + list(range(1, 10)))
        assert P.from_text("10,1,2,3,4,5,6,7,8,9") == P(ten)
        # canonical output switches to commas beyond single digits
        assert P(ten).to_text() == "10,1,2,3,4,5,6,7,8,9"

    def test_comma_form_accepted_for_short_input(self):
        assert P.from_text("2,3,1") == P((2, 3, 1))

    @pytest.mark.parametrize("text", ["", "13x2", "1,2,x", "0", "10 2"])
    def test_bad_text_rejected(self, text):
        with pytest.raises(InvalidInputError):
            P.from_text(text)


class TestPositionsAndValues:
    def test_value_at_and_position_of(self):
        pi = P((5, 2, 6, 4, 1, 3))
        assert pi.value_at(3) == 6
        assert pi.position_of(6) == 3
        with pytest.raises(InvalidInputError):
            pi.value_at(0)
        with pytest.raises(InvalidInputError):
            pi.position_of(7)


class TestStandardize:
    def test_relabels_order_preservingly(self):
        assert standardize((5, 2, 8)) == P((2, 1, 3))
        assert standardize((4,)) == P((1,))

    def test_fixed_point_on_permutations(self):
        pi = P((2, 3, 1))
        assert standardize(pi.values) == pi

    def test_as_word_rejects_duplicates(self):
        with pytest.raises(InvalidInputError):
            as_word((1, 3, 1))


class TestStackSort:
    # hand-traced through the one-pass stack
    @pytest.mark.parametrize("before,after", [
        ("2341", "2314"),
        ("231", "213"),
        ("321", "123"),
        ("132", "123"),
        ("1", "1"),
        ("3142", "1324"),
        ("2413", "2134"),
    ])
    def test_single_pass(self, before, after):
        assert stack_sort(P.from_text(before)) == P.from_text(after)

    def test_descending_input_sorts_in_one_pass(self):
        assert stack_sort(P((5, 4, 3, 2, 1))).is_identity()

    def test_iterated(self):
        pi = P((2, 3, 4, 1))
        assert sort_power("stack", 2, pi) == P((2, 1, 3, 4))
        assert sort_power("stack", 3, pi).is_identity()


class TestBubbleSort:
    # one compare-swap sweep, left to right
    @pytest.mark.parametrize("before,after", [
        ("321", "213"),
        ("521634", "215346"),
        ("21", "12"),
        ("1243", "1234"),
        ("123", "123"),
    ])
    def test_single_pass(self, before, after):
        assert bubble_sort(P.from_text(before)) == P.from_text(after)

    def test_n_minus_one_passes_always_sort(self):
        assert sort_power("bubble", 4, P((5, 4, 3, 2, 1))).is_identity()


class TestSortPower:
    def test_zero_passes_is_identity_map(self):
        pi = P((3, 1, 2))
        assert sort_power("stack", 0, pi) == pi

    def test_negative_passes_rejected(self):
        with pytest.raises(InvalidInputError):
            sort_power("stack", -1, P((2, 1)))

    def test_unknown_operator_rejected(self):
        with pytest.raises(InvalidInputError):
            operator_fn("quick")
        with pytest.raises(InvalidInputError):
            sort_power("quick", 1, P((2, 1)))

    def test_operator_fn_matches_named_functions(self):
        # the lookup works on bare value tuples, one level below Permutation
        assert OPERATOR_IDS == ("bubble", "stack")
        assert operator_fn("stack")((2, 3, 1)) == stack_sort(P((2, 3, 1))).values
        assert operator_fn("bubble")((3, 2, 1)) == bubble_sort(P((3, 2, 1))).values


class TestValuePairs:
    def test_inversion_tables_of_3241(self):
        t = inversion_tables(P((3, 2, 4, 1)))
        assert isinstance(t, ValuePairSets)
        assert t.noninversions == frozenset({(3, 4), (2, 4)})
        assert t.inversions == frozenset({(3, 2), (3, 1), (2, 1), (4, 1)})

    def test_identity_has_no_inversions(self):
        t = inversion_tables(P.identity(4))
        assert t.inversions == frozenset()
        assert len(t.noninversions) == 6


class TestPatternOfValues:
    def test_subsequence_standardization(self):
        pi = P((5, 2, 6, 4, 1, 3))
        assert pattern_of_values(pi, {2, 6, 4}) == P((1, 3, 2))
        assert pattern_of_values(pi, {5}) == P((1,))

    def test_full_value_set_returns_the_permutation(self):
        assert pattern_of_values(P((2, 3, 1)), {1, 2, 3}) == P((2, 3, 1))

    def test_value_outside_range_rejected(self):
        with pytest.raises(InvalidInputError):
            pattern_of_values(P((2, 1)), {1, 3})

    def test_empty_value_set_gives_empty_pattern(self):
        assert pattern_of_values(P((2, 1)), set()).n == 0
