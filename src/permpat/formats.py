"""External pattern formats: a compact line format, JSON, and a grid
renderer.

Line format (classical, mesh and marked patterns):

    PERM
    PERM | shade: (c,r),(c,r),...
    PERM | shade: ... | mark: {(c,r),...} >= N | mark: ...

Sections may appear in any order on input; output is canonical (shading
first, then marks in canonical order).  Decorated and barred patterns only
round-trip through JSON, whose object shape is::

    {"kind": ..., "perm": [..], "shade": [[c,r],..],
     "marks": [{"boxes": [[c,r],..], "min": N}, ..],
     "decor": [{"boxes": [[c,r],..], "avoid": {..}}, ..], "bars": [..]}

with every array sorted canonically and no floating point anywhere.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Sequence

from .errors import (
    InvalidInputError,
    PatternSyntaxError,
    UnsupportedFormatError,
)
from .patterns import _MAX_NESTING, _POINT, Box, Decoration, Mark, Pattern
from .permutation import Permutation, Values, _values_text

FORMATS = ("line", "json")
_JSON_ONLY = ("barred", "decorated")  # kinds with no line form, so printed as JSON

# [0-9], not \d, which would also match every other Unicode digit.
_BOX_RE = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")
_MARK_RE = re.compile(r"mark:\s*\{(.*)\}\s*>=\s*([0-9]+)")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise UnsupportedFormatError(f"unknown format {fmt!r}; expected one of {', '.join(FORMATS)}")


def _text_form(pat: Pattern) -> str:
    return "json" if pat.kind in _JSON_ONLY else "line"


def _parse_boxes(text: str, offset: int) -> tuple[Box, ...]:
    # ``text`` starts at index ``offset`` of the line, which error
    # positions index.
    s = text.rstrip()
    pos = len(text) - len(text.lstrip())
    boxes = []
    while pos < len(s):
        m = _BOX_RE.match(s, pos)
        if not m:
            raise PatternSyntaxError("expected a box '(col,row)'", offset + pos)
        boxes.append(Box(int(m.group(1)), int(m.group(2))))
        pos = m.end()
        if pos < len(s):
            if s[pos] != ",":
                raise PatternSyntaxError("expected ',' between boxes", offset + pos)
            pos += 1
            while pos < len(s) and s[pos].isspace():
                pos += 1
            if pos == len(s):
                raise PatternSyntaxError("trailing ',' after the last box", offset + m.end())
    return tuple(boxes)


def _parse_line(text: str) -> Pattern:
    sections = text.split("|")
    perm_text = sections[0]
    try:
        perm = Permutation.from_text(perm_text)
    except InvalidInputError as exc:
        raise PatternSyntaxError(str(exc), len(perm_text) - len(perm_text.lstrip())) from None
    shade: tuple[Box, ...] = ()
    shade_seen = False
    marks: list[Mark] = []
    offset = len(perm_text) + 1
    for section in sections[1:]:
        body = section.strip()
        # The index in ``text`` of the section's label.
        label = offset + len(section) - len(section.lstrip())
        if body.startswith("shade:"):
            if shade_seen:
                raise PatternSyntaxError("duplicate shade section", label)
            shade_seen = True
            shade = _parse_boxes(body[len("shade:") :], label + len("shade:"))
        elif body.startswith("mark:"):
            m = _MARK_RE.fullmatch(body)
            if not m:
                raise PatternSyntaxError("expected 'mark: {(c,r),...} >= N'", label)
            boxes = _parse_boxes(m.group(1), label + m.start(1))
            if not boxes:
                raise PatternSyntaxError("mark region is empty", label)
            marks.append(Mark(boxes, int(m.group(2))))
        else:
            raise PatternSyntaxError(f"unknown section {body.split(':')[0]!r}", label)
        offset += len(section) + 1
    return Pattern(perm, shade, tuple(marks))


def _pattern_to_obj(pat: Pattern) -> dict:
    # json.dumps writes tuples, Box included, as arrays.
    return {
        "kind": pat.kind,
        "perm": pat.perm.values,
        "shade": pat.shade,
        "marks": [{"boxes": m.region, "min": m.min_count} for m in pat.marks],
        "decor": [{"boxes": d.region, "avoid": _pattern_to_obj(d.avoid)} for d in pat.decorations],
        "bars": pat.barred_positions,
    }


def _int(value, what: str) -> int:
    # The pattern constructors refuse a non-int too (a bool included), but
    # this message names the JSON field.
    if type(value) is not int:
        raise PatternSyntaxError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _array(value, what: str) -> list:
    # Iterating a JSON object or string would read it as a list of keys or
    # of characters, so {} and "" would pass as empty parts.
    if not isinstance(value, list):
        raise PatternSyntaxError(f"{what} must be an array, got {json.dumps(value)}")
    return value


def _box_from_obj(item) -> Box:
    if not isinstance(item, list) or len(item) != 2:
        raise PatternSyntaxError(f"box must be an array of two integers, got {json.dumps(item)}")
    c, r = item
    return Box(_int(c, "box coordinate"), _int(r, "box coordinate"))


def _boxes_from_obj(items, what: str) -> tuple[Box, ...]:
    return tuple(map(_box_from_obj, _array(items, what)))


def _pattern_from_obj(obj, depth: int = 0) -> Pattern:
    """The pattern of a JSON object ``depth`` decorations deep, refused as
    a syntax error past the nesting bound that :class:`Decoration` keeps."""
    if not isinstance(obj, dict):
        raise PatternSyntaxError("pattern JSON must be an object")
    if depth > _MAX_NESTING:
        raise PatternSyntaxError("nested too deeply")
    try:
        kind = obj["kind"]
        perm = Permutation(tuple(_int(v, "perm entry") for v in _array(obj["perm"], "perm")))
        shade = _boxes_from_obj(obj.get("shade", []), "shade")
        marks = tuple(
            Mark(_boxes_from_obj(m["boxes"], "mark boxes"), _int(m.get("min", 1), "mark min"))
            for m in _array(obj.get("marks", []), "marks")
        )
        decor = tuple(
            Decoration(_boxes_from_obj(d["boxes"], "decoration boxes"),
                       _pattern_from_obj(d["avoid"], depth + 1))
            for d in _array(obj.get("decor", []), "decor")
        )
        bars = tuple(_int(b, "barred position") for b in _array(obj.get("bars", []), "bars"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise PatternSyntaxError(f"malformed pattern JSON: {exc}") from None
    pat = Pattern(perm, shade, marks, decor, bars)
    if kind != pat.kind:
        raise PatternSyntaxError(f"pattern JSON of kind {json.dumps(kind)} has a {pat.kind} pattern's parts")
    return pat


def _from_json(text: str, lead: int, build):
    """``build`` of the value of the JSON ``text``, which starts at index
    ``lead`` of the text that error positions index.  Python's recursion
    limit stops json.loads on deeply nested arrays, and json.dumps when an
    error message quotes one."""
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as exc:
        raise PatternSyntaxError(f"invalid JSON: {exc.msg}", lead + exc.pos) from None
    except RecursionError:
        raise PatternSyntaxError("nested too deeply", lead) from None


def parse_pattern(text: str, fmt: str = "line") -> Pattern:
    """Parse a pattern from its line or JSON form.

    >>> parse_pattern("3241 | shade: (1,4)").kind
    'mesh'
    """
    _check_format(fmt)
    if not text.strip():
        raise PatternSyntaxError("empty pattern text")
    if fmt == "json":
        return _from_json(text, 0, _pattern_from_obj)
    return _parse_line(text)


def detect_format(text: str) -> str:
    """'json' if the text looks like a JSON object, else 'line'."""
    return "json" if text.lstrip().startswith("{") else "line"


_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _element_start(array: str, index: int) -> int:
    """The index in ``array``, the text of a valid JSON array, of the first
    character of its element ``index``."""
    decoder = json.JSONDecoder()
    pos = _JSON_SPACE.match(array, 1).end()
    for _ in range(index):
        _, end = decoder.raw_decode(array, pos)
        # Past the comma after the element, and the whitespace after that.
        pos = _JSON_SPACE.match(array, _JSON_SPACE.match(array, end).end() + 1).end()
    return pos


def parse_pattern_list(text: str) -> list[Pattern]:
    """Parse several patterns: either a JSON array of pattern objects, or
    one pattern per line (line or JSON form, auto-detected), skipping blank
    lines and ``#`` comments.  Error positions index ``text``."""
    body = text.strip()
    if not body:
        return []
    if body.startswith("["):
        # str.strip also drops whitespace that JSON refuses, such as a form
        # feed, so the stripped body is parsed and its offset added.
        lead = len(text) - len(text.lstrip())

        def patterns(items: list) -> list[Pattern]:
            out = []
            for index, item in enumerate(items):
                try:
                    out.append(_pattern_from_obj(item))
                except PatternSyntaxError as exc:
                    raise PatternSyntaxError(exc.args[0], lead + _element_start(body, index)) from None
            return out

        return _from_json(body, lead, patterns)
    out = []
    start = 0  # the index in ``text`` of the line's first character
    for line in text.splitlines(keepends=True):
        s = line.strip()
        if s and not s.startswith("#"):
            try:
                out.append(parse_pattern(s, detect_format(s)))
            except PatternSyntaxError as exc:
                lead = len(line) - len(line.lstrip())
                raise PatternSyntaxError(exc.args[0], start + lead + exc.position) from None
        start += len(line)
    return out


def _boxes_text(boxes) -> str:
    return ",".join(map("(%d,%d)".__mod__, boxes))


def _line_text(values: Values, shade: Sequence[tuple[int, int]], marks: Iterable = ()) -> str:
    """The line form of the pattern of ``values``, the sorted boxes
    ``shade`` and the ``(region, min_count)`` pairs ``marks``, in order."""
    parts = [_values_text(values)]
    if shade:
        parts.append("shade: " + _boxes_text(shade))
    for region, count in marks:
        parts.append(f"mark: {{{_boxes_text(region)}}} >= {count}")
    return " | ".join(parts)


def format_pattern(pat: Pattern, fmt: str = "line") -> str:
    """Canonical text for a pattern; parsing it back yields an equal
    pattern.  Decorated and barred patterns require JSON.

    >>> format_pattern(Pattern(Permutation.from_text("3241"), [(1, 4)]))
    '3241 | shade: (1,4)'
    """
    if fmt != "line":
        _check_format(fmt)
        return json.dumps(_pattern_to_obj(pat), separators=(",", ":"))
    if pat.kind in _JSON_ONLY:
        raise UnsupportedFormatError(f"{pat.kind} patterns have no line form; use the json format")
    return _line_text(pat.perm.values, pat.shade, [(m.region, m.min_count) for m in pat.marks])


def render_grid(pat: Pattern, unicode_glyphs: bool = False) -> str:
    """Draw a pattern as a (2k+1) x (2k+1) character grid, bottom-left box
    at the bottom left.  Points are ``*`` (``o`` at barred positions),
    shaded boxes ``#``, marked boxes show their region's minimum count, and
    decorated boxes show ``#`` for empty regions (avoiding 1) or ``d`` with
    a footnote naming the avoided pattern.  Every grid line is exactly
    2k+1 characters wide; footnote lines follow the grid.
    """
    k = len(pat.perm)
    if k > 20:
        raise InvalidInputError(f"pattern of length {k} is too large to render (limit 20)")
    size = 2 * k + 1
    grid = [[" "] * size for _ in range(size)]

    def box_cell(b: Box) -> tuple[int, int]:
        return 2 * (k - b.row), 2 * b.col

    def point_cell(position: int, value: int) -> tuple[int, int]:
        return 2 * (k - value) + 1, 2 * position - 1

    for col in range(k + 1):
        for row in range(k + 1):
            r, c = box_cell(Box(col, row))
            grid[r][c] = "."
    for b in pat.shade:
        r, c = box_cell(b)
        grid[r][c] = "#"
    for m in pat.marks:
        glyph = str(m.min_count) if m.min_count <= 9 else "+"
        for b in m.region:
            r, c = box_cell(b)
            grid[r][c] = glyph
    footnotes = []
    for d in pat.decorations:
        empty = d.avoid == _POINT
        glyph = "#" if empty else "d"
        for b in d.region:
            r, c = box_cell(b)
            grid[r][c] = glyph
        if not empty:
            avoid = format_pattern(d.avoid, _text_form(d.avoid))
            footnotes.append(f"d: {_boxes_text(d.region)} avoids {avoid}")
    bars = set(pat.barred_positions)
    for position, value in enumerate(pat.perm.values, 1):
        r, c = point_cell(position, value)
        grid[r][c] = "o" if position in bars else "*"
    if bars:
        footnotes.append("o: barred position " + ",".join(str(b) for b in sorted(bars)))

    if unicode_glyphs:
        swap = {".": "·", "*": "●", "#": "█", "o": "○"}
        grid = [[swap.get(ch, ch) for ch in row] for row in grid]
    lines = ["".join(row) for row in grid]
    return "\n".join(lines + footnotes)
