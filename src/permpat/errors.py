"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
distinction can catch the builtin.
"""


class InvalidInputError(ValueError):
    """A domain value is malformed: bad permutation, duplicate letters,
    out-of-range box, unknown operator or fixture name."""


class UnsupportedPatternError(InvalidInputError):
    """The pattern is structurally valid but outside what the requested
    operation implements (e.g. occurrence search with several bars)."""


class InvalidInsertionError(InvalidInputError):
    """A point insertion targets a box that cannot receive one."""


class InvalidBoundError(InvalidInputError):
    """A verification or pruning bound is too small to be meaningful."""


class UnsupportedFormatError(InvalidInputError):
    """A pattern cannot be expressed in the requested external format."""


class PatternSyntaxError(InvalidInputError):
    """A textual pattern could not be parsed.  ``position`` is the character
    offset at which parsing failed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} (at offset {self.position})"
