"""Command-line interface.

Verbs: sort, match, preimage, verify, census, builtin, render.  Exit codes:
0 for success (including a passing verification), 1 for a failing
verification, 2 for usage and parse errors.  Output is buffered and written
once, so worker count never interleaves it; a reader that closes the pipe
early does not change the exit code.

``verify``, ``census`` and ``preimage --prune`` scan every permutation up to
their bound, so they first estimate their work and refuse, with exit code
2, a bound above :data:`WORK_LIMIT` unless ``--force`` is given, as
``preimage`` does past :data:`UN_S_LIMIT` candidates and ``preimage
--expand`` past :data:`EXPAND_LIMIT` patterns.  The library functions
themselves take any bound.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from pathlib import Path

from .errors import InvalidBoundError, InvalidInputError
from .fixtures import FIXTURE_NAMES, FIXTURES, builtin_basis
from .formats import (
    _line_text,
    _text_form,
    detect_format,
    format_pattern,
    parse_pattern,
    parse_pattern_list,
    render_grid,
)
from .oracle import census, prune_basis, verify_preimage
from .patterns import _expansions, _mesh_pairs, _mesh_patterns, occurrences
from .permutation import OPERATOR_IDS, Permutation, sort_power
from .preimage import _marked_basis, _outcomes, _un_s_count


# Built once per process: parse_args keeps no state between calls, and
# building the parser costs more than many commands do.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Permutation patterns, single-pass sorting, and sorting-preimage bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", help="apply sorting passes to a permutation")
    p.add_argument("--op", choices=OPERATOR_IDS, required=True)
    p.add_argument("--passes", type=int, default=1, metavar="K")
    p.add_argument("perm")

    p = sub.add_parser("match", help="find occurrences of a pattern")
    p.add_argument("perm")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pattern", metavar="FILE", help="file holding the pattern")
    src.add_argument("--inline", metavar="SPEC", help="pattern given directly")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the occurrence count (default)")
    mode.add_argument("--list", action="store_true", help="print the position list of each occurrence")

    p = sub.add_parser("preimage", help="stack-sort preimage basis of a pattern's avoidance class")
    p.add_argument("pattern")
    p.add_argument("--expand", action="store_true", help="expand marks into mesh patterns")
    p.add_argument("--prune", type=int, metavar="N", help="drop implied patterns, checked up to length N")
    p.add_argument("--show-rejected", action="store_true", help="also list rejected candidates")
    p.add_argument("--force", action="store_true", help="list, expand and prune even above their limits")

    p = sub.add_parser("verify", help="compare a candidate basis against a sorting preimage")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", metavar="NAME", choices=FIXTURE_NAMES)
    src.add_argument("--pattern", metavar="P", help="image pattern to avoid after sorting")
    p.add_argument("--basis", metavar="FILE", help="candidate basis file (with --pattern)")
    p.add_argument("--op", choices=OPERATOR_IDS)
    p.add_argument("--passes", type=int, metavar="K")
    p.add_argument("--upto", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    p.add_argument("--force", action="store_true", help="run even above the work limit")

    p = sub.add_parser("census", help="count sorted permutations per length")
    p.add_argument("--op", choices=OPERATOR_IDS, required=True)
    p.add_argument("--passes", type=int, required=True, metavar="K")
    p.add_argument("--upto", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    p.add_argument("--force", action="store_true", help="run even above the work limit")

    p = sub.add_parser("builtin", help="print a built-in basis")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", help="draw a pattern as a grid")
    p.add_argument("pattern", nargs="?")
    p.add_argument("--file", metavar="FILE")
    p.add_argument("--unicode", action="store_true", help="use filled glyphs")

    return parser


# The most pattern searches (one per permutation of each length up to the
# bound, per pattern searched) a scan runs without --force.  The documented
# headline checks stay well below it: the largest, ``verify --builtin west2
# --upto 9``, is 1.2 million and takes about 2 s on one core.  ``--upto 10``
# there is 12.1 million and is refused; ``--upto 12`` would run for hours.
WORK_LIMIT = 10_000_000

# The most un_s candidates ``preimage`` shades and marks without --force,
# counted before any is listed.  The identity image has the most of its
# length, the Catalan numbers: 16,796 at length 10 take about 1.7 s on one
# core; 58,786 at length 11 took 10.3 s and are refused.
UN_S_LIMIT = 20_000

# The most distinct patterns ``preimage --expand`` lists without --force:
# 87654321 has 135,135; 987654321 has 2,027,025 and stops a tenth of the way.
EXPAND_LIMIT = 200_000


def _check_work(args, flag: str, bound: int, patterns: int) -> None:
    """Refuse a scan of every permutation of length up to ``bound`` against
    ``patterns`` patterns (a census tests each for the identity, so counts
    one) whose estimated work exceeds :data:`WORK_LIMIT`, unless ``--force``
    was passed.  21! alone is far above the limit, so a larger bound is
    refused with the order of magnitude of bound!, read off ``lgamma``."""
    patterns = max(patterns, 1)
    if bound <= 20:
        work = sum(math.factorial(n) for n in range(1, bound + 1)) * patterns
        about = f"{work:,}"
    else:
        work = math.inf
        about = f"10^{round((math.lgamma(bound + 1) + math.log(patterns)) / math.log(10))}"
    if work > WORK_LIMIT and not args.force:
        raise InvalidBoundError(
            f"{flag} {bound} needs about {about} searches (n! for each n <= {bound}, "
            f"times {patterns}), above the limit of {WORK_LIMIT:,}; pass --force to run it anyway"
        )


def _parse_inline(spec: str):
    return parse_pattern(spec, detect_format(spec))


def _patterns_from_file(path: str):
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write one.
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_pattern_list(text)


def _one_pattern(spec: str | None, path: str):
    """The pattern given inline as ``spec``, else the one pattern in the
    file ``path``."""
    if spec is not None:
        return _parse_inline(spec)
    found = _patterns_from_file(path)
    if len(found) != 1:
        raise InvalidInputError(f"expected exactly one pattern in {path}, found {len(found)}")
    return found[0]


def _cmd_sort(args) -> tuple[list[str], int]:
    pi = Permutation.from_text(args.perm)
    return [sort_power(args.op, args.passes, pi).to_text()], 0


def _cmd_match(args) -> tuple[list[str], int]:
    pi = Permutation.from_text(args.perm)
    occs = occurrences(pi, _one_pattern(args.inline, args.pattern))
    if args.list:
        return ["(" + ",".join(str(a) for a in occ.alpha) + ")" for occ in occs], 0
    return [str(len(occs))], 0


def _cmd_preimage(args) -> tuple[list[str], int]:
    pat = _parse_inline(args.pattern)
    if pat.kind != "classical":
        raise InvalidInputError(f"preimage needs a classical pattern, got {pat.kind}")
    count = _un_s_count(pat.perm.values)
    if count > UN_S_LIMIT and not args.force:
        raise InvalidBoundError(f"{pat.perm} has {count:,} un_s candidates, above the limit of "
                                f"{UN_S_LIMIT:,}; pass --force to run it anyway")
    outcomes = _outcomes(pat.perm.values)
    lines = [f"# rejected: {Permutation(lam).to_text()}"
             for lam, plain in outcomes if plain is None] if args.show_rejected else []
    if args.expand:
        pairs = _expansions([plain for _, plain in outcomes if plain is not None],
                            None if args.force else EXPAND_LIMIT)
        if pairs is None:
            raise InvalidBoundError(f"--expand lists more than the limit of {EXPAND_LIMIT:,} "
                                    "patterns; pass --force to run it anyway")
        if args.prune is None:
            # Printed straight from the pairs, which every pattern check still reads.
            lines.extend(itertools.starmap(_line_text, _mesh_pairs(pairs)))
            return lines, 0
        patterns = _mesh_patterns(pairs)
    else:
        patterns = _marked_basis(outcomes)
    if args.prune is not None:
        _check_work(args, "--prune", args.prune, len(patterns))
        patterns = prune_basis(patterns, args.prune)
    lines.extend(format_pattern(p, _text_form(p)) for p in patterns)
    if args.prune is not None:
        lines.append(f"# pruned: verified up to n={args.prune}")
    return lines, 0


def _cmd_verify(args) -> tuple[list[str], int]:
    if args.builtin is not None:
        # Each fixture basis is exact only for its own operator and pass count.
        for flag, value in (("--basis", args.basis), ("--op", args.op), ("--passes", args.passes)):
            if value is not None:
                raise InvalidInputError(f"{flag} only combines with --pattern")
        op, passes, image, candidate = FIXTURES[args.builtin]
    else:
        if args.basis is None:
            raise InvalidInputError("--pattern requires --basis FILE")
        image = (_parse_inline(args.pattern),)
        candidate = _patterns_from_file(args.basis)
        op = args.op or "stack"
        passes = args.passes if args.passes is not None else 1
    _check_work(args, "--upto", args.upto, len(candidate) + len(image))
    report = verify_preimage(image, candidate, op, passes, args.upto, jobs=args.jobs)
    return report.to_text().splitlines(), 0 if report.passed else 1


def _cmd_census(args) -> tuple[list[str], int]:
    if args.upto < 1:
        raise InvalidBoundError(f"census bound must be >= 1, got {args.upto}")
    _check_work(args, "--upto", args.upto, 0)
    lines = []
    for n in range(1, args.upto + 1):
        lines.append(f"{n} {census(args.op, args.passes, n, jobs=args.jobs)}")
    return lines, 0


def _cmd_builtin(args) -> tuple[list[str], int]:
    basis = builtin_basis(args.name)
    if args.json:
        return ["[" + ",".join(format_pattern(p, "json") for p in basis) + "]"], 0
    return [format_pattern(p, _text_form(p)) for p in basis], 0


def _cmd_render(args) -> tuple[list[str], int]:
    if (args.pattern is None) == (args.file is None):
        raise InvalidInputError("render needs a pattern argument or --file, not both")
    pat = _one_pattern(args.pattern, args.file)
    return render_grid(pat, unicode_glyphs=args.unicode).splitlines(), 0


_COMMANDS = {
    "sort": _cmd_sort,
    "match": _cmd_match,
    "preimage": _cmd_preimage,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "builtin": _cmd_builtin,
    "render": _cmd_render,
}


def _write(stream, text: str) -> None:
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader left early; the command's exit code still stands.
        # With the stream on the null device, the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, code = _COMMANDS[args.command](args)
    except (InvalidInputError, OSError) as exc:
        _write(sys.stderr, f"error: {exc}")
        return 2
    if lines:
        _write(sys.stdout, "\n".join(lines))
    return code


def run() -> None:
    sys.exit(main(sys.argv[1:]))
