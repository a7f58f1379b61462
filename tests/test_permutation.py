"""Permutation type, text forms, and the single-pass sorting operators."""
from __future__ import annotations

import itertools

import pytest
from conftest import identity

from permpat import (
    InvalidInputError,
    Permutation,
    as_word,
    bubble_sort,
    sort_power,
    stack_sort,
    standardize,
    un_s,
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
        assert P(()) == identity(0)

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

    # int() alone would read these: other Unicode digits, a sign, and an
    # underscore between digits.
    @pytest.mark.parametrize("text", [
        "\u0662\u0661", "\uff12\uff11", "+2,1", "2,+1", "1_0,2,3,4,5,6,7,8,9,1",
    ], ids=["arabic-indic", "fullwidth", "sign", "sign-after-comma", "underscore"])
    def test_only_ascii_digits_are_read(self, text):
        with pytest.raises(InvalidInputError, match="cannot parse permutation text"):
            P.from_text(text)

    @pytest.mark.parametrize("text", ["3, 1, 2", "3 ,1,2", " 3 , 1 ,2 "])
    def test_spaces_around_commas_are_accepted(self, text):
        assert P.from_text(text) == P((3, 1, 2))


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

    # By the rule of Permutation, a bool or a float is not a letter.
    def test_words_refuse_letters_that_are_not_integers(self):
        with pytest.raises(InvalidInputError, match="not all integers"):
            un_s([1.5, 2])
        with pytest.raises(InvalidInputError, match="not all integers"):
            standardize([True, 5])
        with pytest.raises(InvalidInputError, match="not all integers"):
            as_word([[1]])


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
        assert stack_sort(P((5, 4, 3, 2, 1))) == identity(5)

    def test_iterated(self):
        pi = P((2, 3, 4, 1))
        assert sort_power("stack", 2, pi) == P((2, 1, 3, 4))
        assert sort_power("stack", 3, pi) == identity(4)


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
        assert sort_power("bubble", 4, P((5, 4, 3, 2, 1))) == identity(5)


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

    @pytest.mark.parametrize("op_id", OPERATOR_IDS)
    def test_passes_past_n_minus_one_change_nothing(self, op_id):
        # sort_power applies at most n - 1 passes; the images of every
        # permutation of length n <= 7 after n - 1 up to n + 1 passes, and
        # after a huge count, equal those of passes applied one by one, and
        # n - 2 passes do not sort every permutation.
        step = operator_fn(op_id)
        for n in range(1, 8):
            unsorted = 0
            for values in itertools.permutations(range(1, n + 1)):
                pi = P(values)
                images = [values]
                for _ in range(n + 1):
                    images.append(step(images[-1]))
                assert images[max(n - 1, 0)] == identity(n).values
                for k in (n - 1, n, n + 1):
                    assert sort_power(op_id, k, pi).values == images[k]
                assert sort_power(op_id, 10**9, pi) == identity(n)
                unsorted += n >= 2 and images[n - 2] != identity(n).values
            assert unsorted or n == 1
