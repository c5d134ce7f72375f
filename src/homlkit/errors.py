"""Exception hierarchy shared across the toolkit."""

import functools
import sys


class HomlError(Exception):
    """Base class for all toolkit errors."""


class SourceError(HomlError):
    """An error anchored to a position in a theory source file.

    Rendered as ``file:line:col: message``.
    """

    def __init__(self, message, line=0, col=0, filename="<input>"):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {message}")


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


class TypeCheckError(SourceError):
    pass


class ScopeCapError(HomlError):
    """A type's denotation at the requested scope exceeds the configured cap."""

    def __init__(self, type_, size, cap):
        self.type = type_
        self.size = size
        self.cap = cap
        super().__init__(
            f"denotation of type {type_} has size {size}, exceeding cap {cap}"
        )


class GroundingError(HomlError):
    """The theory cannot be grounded at the requested scope."""


class BudgetExceededError(HomlError):
    """The solver's conflict budget was exhausted; the result is indeterminate."""

    def __init__(self, budget, conflicts):
        self.budget = budget
        self.conflicts = conflicts
        super().__init__(f"conflict budget {budget} exhausted after {conflicts} conflicts")


class BundleError(HomlError):
    """A bundled theory failed to load or failed its self-check."""


class NestingDepthError(HomlError):
    """A term is nested too deeply for the recursion that parses, type-checks
    or compiles it."""


def depth_guarded(fn):
    """fn, raising `NestingDepthError` where it would raise RecursionError."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise NestingDepthError("input nested too deeply: Python's recursion limit "
                                    f"({sys.getrecursionlimit()}) was reached") from None
    return guarded
