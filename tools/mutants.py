"""A standing mutation check for the search compiler and the oracle's scan.

Each fault in ``MUTANTS`` is a one-line textual change to a file under
``src/``.  For each one in turn the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the fault there, runs

    tests/test_reference_matcher.py tests/test_patterns.py tests/test_oracle.py

against the copy, and prints whether a test failed (killed) or none did
(survived).  It exits 1 if a fault survives that ``EQUIVALENT`` does not
list with the reason it cannot change a result, and 2 if a fault's text no
longer occurs exactly once in its file, so the list is stale.

Run from the root of a checkout; it needs only the standard library and
pytest, and takes a few minutes on one core:

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
TESTS = ["tests/test_reference_matcher.py", "tests/test_patterns.py", "tests/test_oracle.py"]
PATTERNS = "src/permpat/patterns.py"
ORACLE = "src/permpat/oracle.py"


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
    # Marks: the or of lists, and the sum of their lengths.
    Mutant("mark needs every rectangle", PATTERNS,
           "tests.append(f\"({' or '.join(found)})\")", "tests.append(f\"({' and '.join(found)})\")"),
    Mutant("min_count 2 read as 1", PATTERNS, "if m.min_count == 1:", "if m.min_count <= 2:"),
    Mutant("min_count sum > for >=", PATTERNS,
           "for f in found)} >= {int(m.min_count)}", "for f in found)} > {int(m.min_count)}"),
    # _placements: column ranges and value tests.
    Mutant("left neighbour's gap off by one", PATTERNS,
           'start = f"x{depth[tl]} + {t - tl}"', 'start = f"x{depth[tl]} + {t - tl + 1}"'),
    Mutant("room on the right off by one", PATTERNS,
           'stop = f"n - {k - 1 - t}" if k - 1 - t else "n"', 'stop = f"n - {k - t}" if k - 1 - t else "n"'),
    Mutant("value test against the least letter below", PATTERNS,
           "chain = [max(below, key=letters.__getitem__)] if below else []",
           "chain = [min(below, key=letters.__getitem__)] if below else []"),
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
]

# Faults that cannot change any result, by name, with the reason.
EQUIVALENT: dict[str, str] = {}


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
