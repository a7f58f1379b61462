"""A standing mutation check for the search compiler, its lowering of
barred patterns, decorations and marks and its occurrence records, box
normalization, the pattern kind its parts decide, the nesting bound of
decorations, the oracle's scan, the pass count of a sorting power,
shading and marking, mark expansion, its cap and point insertion (in
``patterns``), basis pruning (in ``oracle``) and the command line's
pruning trailer and rejected listing, the fixture table, the pattern
parsers, the whitespace they take between boxes and their checks that
JSON parts are arrays, that a JSON box is a pair of integers and that
text forms use ASCII digits only, the choice of the form a pattern is
printed in, the integer check of words, and the command line's work check
and its exit code when the reader of stderr has gone.

Each fault in ``MUTANTS`` is a one-line textual change to a file under
``src/``.  For each one in turn the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the fault there, runs

    tests/test_patterns.py tests/test_formats.py tests/test_permutation.py
    tests/test_cli.py tests/test_preimage.py tests/test_oracle.py
    tests/test_reference_matcher.py

against the copy, and prints whether a test failed (killed) or none did
(survived).  It exits 1 if a fault survives that ``EQUIVALENT`` does not
list with the reason it cannot change a result, and 2 if a fault's text no
longer occurs exactly once in its file, so the list is stale.

Run from the root of a checkout; it needs only the standard library and
pytest, and takes about ten minutes on one core:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Quick files first, as -x stops a run at its first failure.
TESTS = [
    "tests/test_patterns.py",
    "tests/test_formats.py",
    "tests/test_permutation.py",
    "tests/test_cli.py",
    "tests/test_preimage.py",
    "tests/test_oracle.py",
    "tests/test_reference_matcher.py",
]
PATTERNS = "src/permpat/patterns.py"
ORACLE = "src/permpat/oracle.py"
PREIMAGE = "src/permpat/preimage.py"
FIXTURES = "src/permpat/fixtures.py"
FORMATS = "src/permpat/formats.py"
PERMUTATION = "src/permpat/permutation.py"
CLI = "src/permpat/cli.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = [
    # _rectangles: runs of rows in a column, and runs merged across columns.
    Mutant("run merges rows with a gap", PATTERNS,
           "runs[-1][1] == (box.col, box.row - 1)", "runs[-1][1].col == box.col"),
    Mutant("merge regardless of the letter", PATTERNS,
           " and not rows[0] < letters[first.col - 1] <= rows[1]", ""),
    Mutant("merge condition < for <=", PATTERNS,
           "not rows[0] < letters[first.col - 1] <= rows[1]",
           "not rows[0] < letters[first.col - 1] < rows[1]"),
    Mutant("merge across a column gap", PATTERNS,
           "rect[1].col == first.col - 1", "rect[1].col <= first.col - 1"),
    # The slices and their three filters.
    Mutant("slice starts on the letter's column", PATTERNS,
           'left = f"{col[c - 1]} + 1" if c else "0"', 'left = f"{col[c - 1]}" if c else "0"'),
    Mutant("whole column for a band at an edge", PATTERNS,
           'if low == "0" and high == "n":', 'if low == "0" or high == "n":'),
    Mutant("top filter >= for >", PATTERNS, 'inside = f"w > {low}"', 'inside = f"w >= {low}"'),
    Mutant("bottom filter < for <=", PATTERNS, 'inside = f"w <= {high}"', 'inside = f"w < {high}"'),
    Mutant("middle filter <= for <", PATTERNS,
           'inside = f"{low} < w <= {high}"', 'inside = f"{low} <= w <= {high}"'),
    # Decorations search their region's values unstandardized.
    Mutant("decoration band at the top keeps <= n", PATTERNS,
           'f"{low} < w" if high == "n" else f"{low} < w <= {high}"', 'f"{low} < w <= {high}"'),
    # Marks: the or of lists, and the sum of their lengths.
    Mutant("mark needs every rectangle", PATTERNS,
           "tests.append(f\"({' or '.join(found)})\")", "tests.append(f\"({' and '.join(found)})\")"),
    Mutant("min_count 2 read as 1", PATTERNS, "if m.min_count == 1:", "if m.min_count <= 2:"),
    Mutant("min_count sum > for >=", PATTERNS,
           "for f in found)} >= {int(m.min_count)}", "for f in found)} > {int(m.min_count)}"),
    # _lower: a barred pattern becomes its mesh pattern, and only a
    # decoration avoiding the pattern 1 becomes shading.
    Mutant("barred lowering skipped", PATTERNS, "pat = barred_to_mesh(pat)", "pass"),
    Mutant("every length-1 decoration lowered", PATTERNS,
           "if d.avoid == _POINT:", "if len(d.avoid.perm) == 1:"),
    # corners: box (c, r) ends at the column of letter c + 1.
    Mutant("box one column too wide", PATTERNS,
           'right = col[c] if c < k else "n"', 'right = col[c + 1] if c + 1 < k else "n"'),
    # _placements: column ranges and value tests.
    Mutant("left neighbour's gap off by one", PATTERNS,
           'start = f"x{depth[tl]} + {t - tl}"', 'start = f"x{depth[tl]} + {t - tl + 1}"'),
    Mutant("room on the right off by one", PATTERNS,
           'stop = f"n - {k - 1 - t}" if k - 1 - t else "n"', 'stop = f"n - {k - t}" if k - 1 - t else "n"'),
    Mutant("value test against the least letter below", PATTERNS,
           "chain = [max(below, key=letters.__getitem__)] if below else []",
           "chain = [min(below, key=letters.__getitem__)] if below else []"),
    Mutant("no value test against the letter above", PATTERNS,
           "chain.append(min(above, key=letters.__getitem__))", "pass"),
    # The occurrence record the "yield" leaf writes out.
    Mutant("beta in position order", PATTERNS,
           'beta = "".join(f"{val[r]}, " for r in range(1, k + 1))',
           'beta = "".join(f"{val[letters[t]]}, " for t in range(k))'),
    Mutant("omega with 0-based columns", PATTERNS,
           'f"({col[t]} + 1, {val[letters[t]]}), "', 'f"({col[t]}, {val[letters[t]]}), "'),
    Mutant("alpha without + 1", PATTERNS,
           'alpha = "".join(f"{col[t]} + 1, "', 'alpha = "".join(f"{col[t]}, "'),
    # The mask search breaks out of a loop once its patterns are found; a
    # full mask has returned already, so a break on it is dead code.
    Mutant("break on the full mask emitted", PATTERNS,
           'if action == "mask" and bits != full:', 'if action == "mask":'),
    # as_boxes: a box is a pair.
    Mutant("box arity check dropped", PATTERNS,
           "c, r = box\n        except", "c, r = box[:2]\n        except"),
    # Pattern: the parts decide the kind, and refuse parts that exclude
    # each other.
    Mutant("a shaded pattern called classical", PATTERNS,
           'else "mesh" if shade else "classical"', 'else "classical"'),
    Mutant("marks outranked by shading", PATTERNS,
           '"marked" if marks\n                else "mesh" if shade',
           '"mesh" if shade\n                else "marked" if marks'),
    Mutant("bars beside shading accepted", PATTERNS,
           "if bars and (shade or marks or decorations):", "if bars and (marks or decorations):"),
    Mutant("decorations beside marks accepted", PATTERNS,
           "if decorations and (shade or marks):", "if decorations and shade:"),
    Mutant("barred pattern without bars accepted", PATTERNS, "if not pat.barred_positions:", "if False:"),
    # The JSON parser refuses a kind its parts do not make and a part that
    # is not an array, and nesting deeper than the recursion limit is a
    # syntax error.
    Mutant("JSON kind check dropped", FORMATS, "if kind != pat.kind:", "if False:"),
    Mutant("JSON part not checked as an array", FORMATS, "if not isinstance(value, list):", "if False:"),
    Mutant("deep nesting not caught", FORMATS, "except RecursionError:", "except ZeroDivisionError:"),
    # A JSON box is an array of exactly two integers.
    Mutant("two-integer box check dropped", FORMATS,
           "if not isinstance(item, list) or len(item) != 2:", "if not isinstance(item, list):"),
    # Text forms read ASCII digits only.
    Mutant("permutation text reads any Unicode digit", PERMUTATION,
           r'r"[0-9,\s]+"', r'r"[\d,\s]+"'),
    Mutant("box text reads any Unicode digit", FORMATS,
           r'r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)"', r'r"\(\s*(\d+)\s*,\s*(\d+)\s*\)"'),
    Mutant("mark count reads any Unicode digit", FORMATS, r'>=\s*([0-9]+)"', r'>=\s*(\d+)"'),
    # A pattern is printed in its line form where its kind has one.
    Mutant("text form picked the wrong way round", FORMATS,
           'return "json" if pat.kind in _JSON_ONLY else "line"',
           'return "line" if pat.kind in _JSON_ONLY else "json"'),
    Mutant("decorated patterns given a line form", FORMATS,
           '_JSON_ONLY = ("barred", "decorated")', '_JSON_ONLY = ("barred",)'),
    # as_word: a word's letters are integers, by the rule of Permutation.
    Mutant("word letters not checked as integers", PERMUTATION,
           "if not set(map(type, word)) <= {int}:", "if False:"),
    # _sort_power: n - 1 passes sort a permutation of length n.
    Mutant("pass count capped at n - 2", PERMUTATION,
           "min(k, len(values) - 1)", "min(k, len(values) - 2)"),
    # main: a usage error exits 2 even when the reader of stderr has gone.
    Mutant("usage error's message unguarded", CLI,
           '_write(sys.stderr, f"error: {exc}")', 'print(f"error: {exc}", file=sys.stderr)'),
    # _check_work: a huge bound's order of magnitude.
    Mutant("order of magnitude of (bound - 1)!", CLI, "math.lgamma(bound + 1)", "math.lgamma(bound)"),
    # _scan: a negative pass count is refused.
    Mutant("pass-count check loosened", ORACLE, "if passes < 0:", "if passes < -1:"),
    # _image_test: one verdict per first-pass image.
    Mutant("one pass read as none", ORACLE, "if passes == 0:", "if passes <= 1:"),
    Mutant("one pass too many", ORACLE,
           "test(_sort_power(op_id, passes - 1, once))", "test(_sort_power(op_id, passes, once))"),
    Mutant("verdict looked up by the permutation", ORACLE,
           "verdict = verdicts.get(once)", "verdict = verdicts.get(vals)"),
    Mutant("false verdicts never kept", ORACLE, "if verdict is None:", "if not verdict:"),
    # _verify_block: counts, the first difference and its side.
    Mutant("last difference kept", ORACLE,
           "if in_av != good and first_diff is None:", "if in_av != good:"),
    Mutant("sides of a difference swapped", ORACLE,
           "REASON_BAD_IMAGE if in_av else REASON_CONTAINS_BASIS",
           "REASON_CONTAINS_BASIS if in_av else REASON_BAD_IMAGE"),
    Mutant("image count from the candidate side", ORACLE, "good_count += good", "good_count += in_av"),
    # _shade_and_mark_impl: column c is shaded from floor[c] up, and only
    # the least mark regions are kept.
    Mutant("shade floor starts at n", PREIMAGE, "floor = [n + 1] * (n + 1)", "floor = [n] * (n + 1)"),
    Mutant("antichain filter dropped", PREIMAGE,
           "if not any(existing <= region for existing in marks):\n"
           "                marks = [m for m in marks if not region <= m]\n",
           "if True:\n"),
    # _insert and _expansions: one witness per branch, counted once per mark.
    Mutant("witness deletes the mark whatever its count", PATTERNS,
           "count -= box in region", "count = 0 if box in region else count"),
    Mutant("box's column not split", PATTERNS,
           "for c2 in ((c, c + 1) if c == col", "for c2 in ((c,) if c == col"),
    Mutant("finished expansion keeps its parent's shade", PATTERNS,
           "split(shade), tuple(grown)", "shade, tuple(grown)"),
    Mutant("expansion branches on the first box only", PATTERNS,
           "for b in region)", "for b in sorted(region)[:1])"),
    # _lower and the cap of _expansions: first-hit and mask searches test a
    # mark with few expansions through them, and a mark of c points has c!
    # or more.
    Mutant("marks lowered when listing occurrences", PATTERNS,
           'if action != "yield" and pat.marks else None', "if pat.marks else None"),
    Mutant("one expansion dropped", PATTERNS,
           "for values, shade in expansions)", "for values, shade in expansions)[1:]"),
    Mutant("expansion cap one lower", PATTERNS,
           "if cap is not None and len(found) > cap:", "if cap is not None and len(found) >= cap:"),
    Mutant("expansion cap ignored", PATTERNS, "if cap is not None and len(found) > cap:", "if False:"),
    Mutant("marks of 2 points refused unexpanded", PATTERNS,
           "math.factorial(min(m.min_count, cap + 1)) > cap", "m.min_count >= 2"),
    Mutant("decorations left after lowering dropped", PATTERNS,
           "pat.marks, tuple(decors))]", "pat.marks, ())]"),
    # _search: each path's leaf sets its own pattern's bit, and its hit runs
    # only when its condition holds.
    Mutant("every leaf sets bit 0", PATTERNS, "[(i, *path) for i, pat", "[(0, *path) for i, pat"),
    Mutant("a leaf's condition ignored", PATTERNS, 'out.append(f"{ind}if {cond}:")',
           'out.append(f"{ind}if True or {cond}:")'),
    Mutant("branch bits summed, not joined", PATTERNS,
           "functools.reduce(operator.or_, (child.bits for child in branches.values()))",
           "sum(child.bits for child in branches.values())"),
    # A search nested past 20 loops passes the hits of its helper on.
    Mutant("a helper's hit not passed on", PATTERNS, '["if {}: return True"]', '["{}"]'),
    Mutant("a helper's mask dropped", PATTERNS, '["mask = {}", report]', '["{}", report]'),
    # The root's bits only decide whether a loop at the top is skipped once
    # its patterns are found.
    Mutant("root carries no bits", PATTERNS, "root = _Node(full)", "root = _Node()"),
    # prune_basis: a pattern goes only if some permutation contains it and
    # patterns still kept imply it.
    Mutant("pruning ignores the kept bits", ORACLE, "mask & kept & ~q", "mask & ~q"),
    Mutant("pruning keeps only the last length's masks", ORACLE,
           "block for n in range(1, n_max + 1)", "block for n in (n_max,)"),
    Mutant("pruning skips canonical", ORACLE, "patterns = canonical(basis)", "patterns = tuple(basis)"),
    Mutant("pruning drops a pattern no permutation contains", ORACLE,
           "if any(mask & q for mask in masks) and all(", "if all("),
    # insert_point reads its box as every box input is read.
    Mutant("insert_point skips as_boxes", PATTERNS, "(box,) = as_boxes([box])", "box = Box(*box)"),
    # The pruning trailer names the bound the CLI pruned with.
    Mutant("trailer names another bound", CLI,
           'f"# pruned: verified up to n={args.prune}"', 'f"# pruned: verified up to n={args.prune + 1}"'),
    # --show-rejected lists the candidates that gave no basis pattern.
    Mutant("rejected listing inverted", CLI, "if lam not in kept]", "if lam in kept]"),
    # Decoration: a pattern nests at most _MAX_NESTING levels.
    Mutant("nesting bound off by one", PATTERNS,
           "if _nesting(self.avoid) >= _MAX_NESTING:", "if _nesting(self.avoid) > _MAX_NESTING:"),
    # The fixture table: each basis is exact for its operator and passes.
    Mutant("a fixture's pass count off by one", FIXTURES,
           '"west2": ("stack", 2,', '"west2": ("stack", 3,'),
    # The line parser: positions index the text passed, no trailing comma,
    # and any whitespace after the comma between boxes.
    Mutant("box offset counted from the section start", FORMATS,
           'label + len("shade:"))', "offset)"),
    Mutant("trailing comma accepted", FORMATS, "if pos == len(s):", "if pos > len(s):"),
    Mutant("box separator skips spaces only", FORMATS,
           "while pos < len(s) and s[pos].isspace():", 'while pos < len(s) and s[pos] == " ":'),
    # parse_pattern_list: a line's error position counts from the text's start.
    Mutant("line offset dropped from a list position", FORMATS,
           "start + lead + exc.position", "lead + exc.position"),
    # parse_pattern_list: an array element's error points at the element.
    Mutant("element offset dropped from an array position", FORMATS,
           "exc.args[0], lead + _element_start(body, index)", "exc.args[0], lead"),
]

# Faults that cannot change any result, by name, with the reason.
EQUIVALENT: dict[str, str] = {
    "root carries no bits": "it only adds a skip test before each loop at the top, which passes "
    "unless every pattern below that loop is found already, when the loop would set no new bit",
}


def run_mutant(mutant: Mutant) -> bool:
    """Whether some test fails with ``mutant`` applied to a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="permpat-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
            cwd=work, env=env, capture_output=True, text=True,
        )
        # pytest exits 1 when a test fails; anything else is not a verdict.
        if done.returncode not in (0, 1):
            raise RuntimeError(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
        return done.returncode == 1


def main() -> int:
    stale = [m.name for m in MUTANTS if (ROOT / m.path).read_text().count(m.old) != 1]
    if stale:
        print("stale faults, text not found exactly once:", ", ".join(stale))
        return 2
    survivors = []
    for mutant in MUTANTS:
        killed = run_mutant(mutant)
        note = "" if killed or mutant.name not in EQUIVALENT else f" (equivalent: {EQUIVALENT[mutant.name]})"
        print(f"{'killed' if killed else 'SURVIVED':8}  {mutant.path}: {mutant.name}{note}", flush=True)
        if not killed and mutant.name not in EQUIVALENT:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} faults killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
