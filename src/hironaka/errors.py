"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: PreconditionError -> 2,
ProblemParseError -> 3, InternalError -> 4.
"""


class ToolkitError(Exception):
    pass


class PreconditionError(ToolkitError):
    """An operation was called outside its documented contract."""


class DirectrixNotSpanned(PreconditionError):
    """The y-part of the frame does not span the directrix; delta is then
    forced to 1."""


class ProblemParseError(ToolkitError):
    """Malformed problem file or polynomial text."""


class InternalError(ToolkitError):
    """A consistency assertion failed; indicates a bug, not bad input."""
