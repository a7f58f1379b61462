"""Line and JSON pattern formats plus the grid renderer."""
from __future__ import annotations

import json
import re
import sys

import pytest

from permpat import (
    Box,
    InvalidInputError,
    Pattern,
    PatternSyntaxError,
    UnsupportedFormatError,
    barred,
    builtin_basis,
    classical,
    decorated,
    format_pattern,
    marked,
    mesh,
    parse_pattern,
    parse_pattern_list,
    render_grid,
)
from permpat.formats import detect_format
from permpat.patterns import _MAX_NESTING


class TestParseLine:
    def test_classical(self):
        assert parse_pattern("23451") == classical("23451")

    def test_mesh(self):
        pat = parse_pattern("132 | shade: (0,2),(1,2),(2,2)")
        assert pat == mesh("132", {(0, 2), (1, 2), (2, 2)})

    def test_single_shade_box(self):
        assert parse_pattern("3241 | shade: (1,4)") == mesh("3241", {(1, 4)})

    def test_marked(self):
        pat = parse_pattern("231 | mark: {(2,3)} >= 1")
        assert pat == marked("231", marks=[{(2, 3)}])

    def test_sections_in_any_order(self):
        a = parse_pattern("321 | mark: {(2,3)} >= 1 | shade: (1,3)")
        b = parse_pattern("321 | shade: (1,3) | mark: {(2,3)} >= 1")
        assert a == b == marked("321", {(1, 3)}, [{(2, 3)}])

    def test_whitespace_tolerated(self):
        assert parse_pattern("  21 | shade: ( 1 , 0 )  ") == mesh("21", {(1, 0)})

    def test_empty_shade_section_is_classical(self):
        # A pattern's parts decide its kind, and no shaded box leaves none.
        pat = parse_pattern("21 | shade: ")
        assert pat == classical("21") and pat.kind == "classical"

    def test_comma_perm_form(self):
        assert parse_pattern("10,2,3,4,5,6,7,8,9,1 | shade: (0,0)").perm.n == 10


class TestParseLineErrors:
    def test_bad_box_reports_offset(self):
        with pytest.raises(PatternSyntaxError) as exc:
            parse_pattern("132 | shade: (0,2),(1,2),x")
        assert exc.value.position == 25

    # Each position indexes the text as passed: the first character of a
    # bad box, a trailing comma (refused), or the label of a bad section.
    @pytest.mark.parametrize("text, position, char", [
        ("21 | mark: {(1,1),y} >= 1", 18, "y"),
        ("21 | paint: (0,0)", 5, "p"),
        ("  21 | paint: (0,0)", 7, "p"),
        ("21 | shade: (0,0) |  shade: (1,1)", 21, "s"),
        ("21 |shade: (0,0) , (1,1)", 16, " "),
        ("21 | shade: (0,0),", 17, ","),
        ("21 | shade: (0,0), (1,1),  ", 24, ","),
        ("21 | mark: {(1,1),} >= 1", 17, ","),
        ("  1x2 | shade: (0,0)", 2, "1"),
    ])
    def test_position_indexes_the_text_passed(self, text, position, char):
        with pytest.raises(PatternSyntaxError) as exc:
            parse_pattern(text)
        assert exc.value.position == position
        assert text[position] == char

    def test_empty_text(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("   ")

    def test_bad_permutation_prefix(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("1x2 | shade: (0,0)")

    def test_duplicate_shade_section(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("21 | shade: (0,0) | shade: (1,1)")

    def test_unknown_section(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("21 | paint: (0,0)")

    def test_malformed_mark(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("21 | mark: (0,0) >= 1")

    def test_empty_mark_region(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("21 | mark: {} >= 1")

    # box validation happens in the pattern layer, not the parser
    def test_box_out_of_range(self):
        with pytest.raises(InvalidInputError):
            parse_pattern("21 | shade: (5,0)")

    def test_mark_overlapping_shade(self):
        with pytest.raises(InvalidInputError):
            parse_pattern("21 | shade: (1,1) | mark: {(1,1)} >= 1")

    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormatError):
            parse_pattern("21", fmt="yaml")

    # \d would also match these Arabic-Indic digits.
    @pytest.mark.parametrize("text", [
        "21 | shade: (\u0661,\u0662)",
        "21 | mark: {(\u0661,\u0662)} >= \u0661",
        "21 | mark: {(1,2)} >= \u0661",
        "\u0662\u0661 | shade: (0,0)",
    ], ids=["shade", "mark", "mark-count", "perm"])
    def test_only_ascii_digits_are_read(self, text):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(text)


class TestFormatLine:
    def test_canonical_doc_example(self):
        assert format_pattern(mesh("3241", {(1, 4)})) == "3241 | shade: (1,4)"

    def test_bubble_basis_lines(self):
        lines = [format_pattern(p) for p in builtin_basis("bubble1243")]
        assert lines == [
            "1243 | mark: {(0,4),(1,4),(2,4),(3,4)} >= 1",
            "1423 | shade: (0,4),(1,4),(2,4) | mark: {(3,4)} >= 1",
            "2143 | shade: (0,2),(0,3),(0,4),(1,2),(1,3),(1,4) | mark: {(2,4),(3,4)} >= 1",
            "4123 | shade: (0,4),(1,4),(2,4) | mark: {(3,4)} >= 1",
        ]

    def test_decorated_has_no_line_form(self):
        with pytest.raises(UnsupportedFormatError):
            format_pattern(decorated("21", [({(1, 1)}, "1")]))

    def test_barred_has_no_line_form(self):
        with pytest.raises(UnsupportedFormatError):
            format_pattern(barred("35241", [2]))

    @pytest.mark.parametrize("pat, line", [
        (marked("12"), "12"),
        (marked("12", [(0, 0)]), "12 | shade: (0,0)"),
    ], ids=["bare", "shaded"])
    def test_marked_without_marks_is_mesh_or_classical(self, pat, line):
        # Without marks, marked() builds the classical or the mesh pattern.
        assert pat == (mesh("12", [(0, 0)]) if pat.shade else classical("12"))
        assert format_pattern(pat) == line
        assert parse_pattern(line) == pat
        assert parse_pattern(format_pattern(pat, "json"), "json") == pat

    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormatError):
            format_pattern(classical("21"), "yaml")


class TestJson:
    def test_classical_object_shape(self):
        obj = json.loads(format_pattern(classical("21"), "json"))
        assert obj == {"kind": "classical", "perm": [2, 1], "shade": [],
                       "marks": [], "decor": [], "bars": []}

    def test_decorated_round_trip(self):
        for pat in builtin_basis("west3"):
            text = format_pattern(pat, "json")
            assert parse_pattern(text, "json") == pat

    def test_barred_round_trip(self):
        pat = barred("35241", [2])
        assert parse_pattern(format_pattern(pat, "json"), "json") == pat

    def test_min_count_survives(self):
        pat = marked("12", marks=[((Box(2, 0), Box(2, 1)), 2)])
        back = parse_pattern(format_pattern(pat, "json"), "json")
        assert back.marks[0].min_count == 2

    def test_invalid_json(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("{not json", "json")

    def test_non_object(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("[1, 2]", "json")

    def test_missing_keys(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern('{"kind": "classical"}', "json")

    # JSON true and 1.5 would pass through int() as 1; each field refuses them.
    def test_perm_entries_must_be_integers(self):
        with pytest.raises(PatternSyntaxError, match="perm entry"):
            parse_pattern('{"kind": "classical", "perm": [2, true]}', "json")
        with pytest.raises(PatternSyntaxError, match="perm entry"):
            parse_pattern('{"kind": "classical", "perm": [2.0, 1]}', "json")

    def test_box_coordinates_must_be_integers(self):
        with pytest.raises(PatternSyntaxError, match="box coordinate"):
            parse_pattern('{"kind": "mesh", "perm": [1, 2], "shade": [[1.5, 2]]}', "json")
        with pytest.raises(PatternSyntaxError, match="box coordinate"):
            parse_pattern('{"kind": "marked", "perm": [1, 2], '
                          '"marks": [{"boxes": [[0, false]], "min": 1}]}', "json")
        with pytest.raises(PatternSyntaxError, match="box coordinate"):
            parse_pattern('{"kind": "decorated", "perm": [1], '
                          '"decor": [{"boxes": [[0, 1.0]], "avoid": {"kind": "classical", "perm": [1]}}]}',
                          "json")

    def test_mark_min_must_be_an_integer(self):
        for bad in ("true", "2.0"):
            with pytest.raises(PatternSyntaxError, match="mark min"):
                parse_pattern('{"kind": "marked", "perm": [1, 2], '
                              f'"marks": [{{"boxes": [[0, 0]], "min": {bad}}}]}}', "json")

    def test_bars_must_be_integers(self):
        with pytest.raises(PatternSyntaxError, match="barred position"):
            parse_pattern('{"kind": "barred", "perm": [1, 2], "bars": [1.9]}', "json")
        with pytest.raises(PatternSyntaxError, match="barred position"):
            parse_pattern('{"kind": "barred", "perm": [1, 2], "bars": [true]}', "json")

    # Iterated as they are, {} and "" would read as empty arrays.
    @pytest.mark.parametrize("value", ["{}", '""'], ids=["object", "string"])
    @pytest.mark.parametrize("field, text", [pytest.param(field, text, id=field) for field, text in [
        ("perm", '{"kind": "classical", "perm": %s}'),
        ("shade", '{"kind": "mesh", "perm": [1], "shade": %s}'),
        ("marks", '{"kind": "marked", "perm": [1], "marks": %s}'),
        ("decor", '{"kind": "decorated", "perm": [1], "decor": %s}'),
        ("bars", '{"kind": "barred", "perm": [1, 2], "bars": %s}'),
        ("mark boxes", '{"kind": "marked", "perm": [1], "marks": [{"boxes": %s}]}'),
        ("decoration boxes", '{"kind": "decorated", "perm": [1], '
         '"decor": [{"boxes": %s, "avoid": {"kind": "classical", "perm": [1, 2]}}]}'),
    ]])
    def test_parts_must_be_arrays(self, field, text, value):
        with pytest.raises(PatternSyntaxError, match=f"^{field} must be an array, got {re.escape(value)} "):
            parse_pattern(text % value, "json")

    # Unpacked as pairs, an object would read as its two keys, and three
    # numbers as an error about unpacking.
    @pytest.mark.parametrize("box", ['{"c": 0, "r": 0}', "[0, 0, 5]", "[0]", "7"],
                             ids=["object", "triple", "single", "number"])
    @pytest.mark.parametrize("text", [
        '{"kind": "mesh", "perm": [1], "shade": [%s]}',
        '{"kind": "marked", "perm": [1], "marks": [{"boxes": [%s]}]}',
        '{"kind": "decorated", "perm": [1], '
        '"decor": [{"boxes": [%s], "avoid": {"kind": "classical", "perm": [1, 2]}}]}',
    ], ids=["shade", "mark", "decoration"])
    def test_boxes_must_be_pairs(self, text, box):
        message = f"^box must be an array of two integers, got {re.escape(box)} "
        with pytest.raises(PatternSyntaxError, match=message):
            parse_pattern(text % box, "json")

    # A pattern's parts decide its kind, and the kind JSON names must agree.
    @pytest.mark.parametrize("text", [
        '{"kind": "mesh", "perm": [1, 2]}',
        '{"kind": "marked", "perm": [1, 2], "shade": [[0, 0]]}',
        '{"kind": "barred", "perm": [1, 2], "bars": []}',
        '{"kind": "decorated", "perm": [1, 2]}',
        '{"kind": "triangle", "perm": [1, 2]}',
        '{"kind": "decorated", "perm": [1], '
        '"decor": [{"boxes": [[0, 0]], "avoid": {"kind": "mesh", "perm": [1]}}]}',
    ], ids=["mesh", "marked", "barred", "decorated", "unknown", "avoided"])
    def test_kind_must_match_the_parts(self, text):
        with pytest.raises(PatternSyntaxError, match="pattern's parts"):
            parse_pattern(text, "json")

    def test_deep_nesting_is_a_syntax_error(self):
        head = '{"kind": "decorated", "perm": [1], "decor": [{"boxes": [[0, 0]], "avoid": '
        deep = head * 300 + '{"kind": "classical", "perm": [1]}' + "}]}" * 300
        with pytest.raises(PatternSyntaxError, match="nested too deeply"):
            parse_pattern(deep, "json")
        with pytest.raises(PatternSyntaxError, match="nested too deeply"):
            parse_pattern_list("[" * 100000)

    def test_deep_arrays_in_one_pattern_are_a_syntax_error(self):
        with pytest.raises(PatternSyntaxError, match="nested too deeply"):
            parse_pattern('{"kind": "classical", "perm": ' + "[" * 100000, "json")

    def test_arrays_nested_near_the_recursion_limit_are_a_syntax_error(self):
        # Near the limit, json.loads can read an array that json.dumps, when
        # an error message quotes it, cannot write.
        limit = sys.getrecursionlimit()
        for depth in range(limit - 100, limit + 5):
            text = '{"kind": "classical", "perm": [' + "[" * depth + "]" * depth + "]}"
            with pytest.raises(PatternSyntaxError):
                parse_pattern(text, "json")

    def test_decorations_past_the_nesting_bound_are_a_syntax_error(self):
        head = '{"kind": "decorated", "perm": [1], "decor": [{"boxes": [[0, 0]], "avoid": '
        nested = lambda depth: head * depth + '{"kind": "classical", "perm": [1]}' + "}]}" * depth
        assert len(parse_pattern_list(f"[{nested(_MAX_NESTING)}]")) == 1
        with pytest.raises(PatternSyntaxError, match="nested too deeply"):
            parse_pattern_list(f"[{nested(_MAX_NESTING + 1)}]")


class TestDetectFormat:
    def test_json_detection(self):
        assert detect_format('  {"kind": "classical"}') == "json"
        assert detect_format("21 | shade: (0,0)") == "line"
        assert detect_format("321") == "line"


class TestParsePatternList:
    def test_lines_with_comments_and_blanks(self):
        text = """
        # basis under test
        2341

        3241 | shade: (1,4)
        """
        assert parse_pattern_list(text) == [classical("2341"), mesh("3241", {(1, 4)})]

    def test_mixed_line_and_json_rows(self):
        text = "21\n" + format_pattern(barred("35241", [2]), "json")
        pats = parse_pattern_list(text)
        assert [p.kind for p in pats] == ["classical", "barred"]

    def test_json_array(self):
        basis = builtin_basis("west3")
        text = "[" + ",".join(format_pattern(p, "json") for p in basis) + "]"
        assert tuple(parse_pattern_list(text)) == basis

    def test_empty_text_gives_no_patterns(self):
        assert parse_pattern_list("") == []
        assert parse_pattern_list("# only a comment\n") == []

    @pytest.mark.parametrize("text,position", [
        ("  [1,,]", 5),
        ("21\n  21 | paint: (0,0)", 10),
        ("# head\r\n\n\t{\"kind\": \"classical\", \"perm\": [1,]}", 43),
        ("\x0c [{\"kind\": \"classical\", \"perm\": [1]},]", 38),
    ], ids=["json-array", "line", "json-line", "form-feed-before-array"])
    def test_error_positions_index_the_text(self, text, position):
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern_list(text)
        assert info.value.position == position
        assert str(info.value).endswith(f"(at offset {position})")
        assert text[position] in ",p]"

    @pytest.mark.parametrize("text,position,first", [
        ('  [{"kind":"classical","perm":[1]}, {"kind": "classical"}]', 36, "{"),
        ('[{"kind":"classical","perm":[1]},\n 5]', 35, "5"),
    ], ids=["missing-key", "not-an-object"])
    def test_error_in_an_array_element_points_at_the_element(self, text, position, first):
        with pytest.raises(PatternSyntaxError) as info:
            parse_pattern_list(text)
        assert info.value.position == position
        assert text[position] == first

    def test_json_array_must_be_an_array(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern_list('[{"kind": "classical", "perm": [1]}')


class TestRenderGrid:
    def test_classical_grid(self):
        assert render_grid(classical("21")) == (
            ". . .\n"
            " *   \n"
            ". . .\n"
            "   * \n"
            ". . .")

    def test_shaded_box_bottom_middle(self):
        assert render_grid(mesh("21", {(1, 0)})) == (
            ". . .\n"
            " *   \n"
            ". . .\n"
            "   * \n"
            ". # .")

    def test_marked_box_shows_min_count(self):
        assert render_grid(marked("21", marks=[{(1, 1)}])) == (
            ". . .\n"
            " *   \n"
            ". 1 .\n"
            "   * \n"
            ". . .")

    def test_large_min_count_is_a_plus(self):
        out = render_grid(marked("21", marks=[((Box(1, 1),), 10)]))
        assert "+" in out and "10" not in out

    def test_empty_decoration_renders_as_shading(self):
        out = render_grid(decorated("21", [({(1, 1)}, "1")]))
        assert out.splitlines()[2] == ". # ." and "d:" not in out

    def test_decoration_footnote(self):
        out = render_grid(decorated("21", [({(1, 1)}, "12")]))
        assert out.splitlines()[2] == ". d ."
        assert out.splitlines()[-1] == "d: (1,1) avoids 12"

    def test_barred_point_and_footnote(self):
        lines = render_grid(barred("35241", [2])).splitlines()
        assert lines[1] == "   o       "
        assert lines[-1] == "o: barred position 2"

    def test_grid_dimensions(self):
        for pat in builtin_basis("west3") + builtin_basis("bubble1243"):
            k = pat.perm.n
            lines = render_grid(pat).splitlines()[: 2 * k + 1]
            assert len(lines) == 2 * k + 1
            assert all(len(line) == 2 * k + 1 for line in lines)

    def test_unicode_glyphs(self):
        assert render_grid(mesh("21", {(1, 0)}), unicode_glyphs=True) == (
            "· · ·\n"
            " ●   \n"
            "· · ·\n"
            "   ● \n"
            "· █ ·")

    def test_render_size_limit(self):
        perm = tuple(range(1, 22))
        with pytest.raises(InvalidInputError):
            render_grid(classical(perm))
