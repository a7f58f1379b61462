"""Permutation patterns, single-pass sorting operators, and sorting-preimage bases.

The package answers three kinds of question:

* what does one pass of stack- or bubble-sorting do to a permutation;
* does a permutation contain a pattern (classical, mesh, marked, barred or
  decorated), and where;
* which marked mesh patterns characterize the permutations that a sorting
  pass maps into a pattern-avoidance class, and is a proposed basis correct.
"""

from .errors import (
    InvalidBoundError,
    InvalidInputError,
    InvalidInsertionError,
    PatternSyntaxError,
    UnsupportedFormatError,
    UnsupportedPatternError,
)
from .fixtures import FIXTURE_NAMES, builtin_basis
from .formats import format_pattern, parse_pattern, parse_pattern_list, render_grid
from .oracle import (
    REASON_BAD_IMAGE,
    REASON_CONTAINS_BASIS,
    VerificationReport,
    av_set,
    census,
    preimage_av_set,
    verify_preimage,
)
from .patterns import (
    Box,
    Decoration,
    Mark,
    Occurrence,
    Pattern,
    barred,
    barred_to_mesh,
    classical,
    contains,
    decorated,
    marked,
    mesh,
    occurrences,
    pattern_sort_key,
)
from .permutation import (
    OPERATOR_IDS,
    Permutation,
    as_word,
    bubble_sort,
    sort_power,
    stack_sort,
    standardize,
)
# MarkedBasis is importable for the benchmark under perfbench/ only, and
# so is left out of __all__.
from .preimage import (
    MarkedBasis,
    ShadeMarkResult,
    candidate_outcomes,
    expand_basis,
    insert_point,
    prune_basis,
    shade_and_mark,
    stack_preimage_basis,
    un_s,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Decoration",
    "FIXTURE_NAMES",
    "InvalidBoundError",
    "InvalidInputError",
    "InvalidInsertionError",
    "Mark",
    "OPERATOR_IDS",
    "Occurrence",
    "Pattern",
    "PatternSyntaxError",
    "Permutation",
    "REASON_BAD_IMAGE",
    "REASON_CONTAINS_BASIS",
    "ShadeMarkResult",
    "UnsupportedFormatError",
    "UnsupportedPatternError",
    "VerificationReport",
    "as_word",
    "av_set",
    "barred",
    "barred_to_mesh",
    "bubble_sort",
    "builtin_basis",
    "candidate_outcomes",
    "census",
    "classical",
    "contains",
    "decorated",
    "expand_basis",
    "format_pattern",
    "insert_point",
    "marked",
    "mesh",
    "occurrences",
    "parse_pattern",
    "parse_pattern_list",
    "pattern_sort_key",
    "preimage_av_set",
    "prune_basis",
    "render_grid",
    "shade_and_mark",
    "sort_power",
    "stack_preimage_basis",
    "stack_sort",
    "standardize",
    "un_s",
    "verify_preimage",
]
