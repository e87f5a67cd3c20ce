"""Exception hierarchy.

Split along the CLI's exit-code contract: input problems (bad files, bad
instances, unusable parameters) versus internal invariant violations that
indicate a bug in the solver itself.
"""


class SteinerError(Exception):
    """Base class for all package errors."""


class UsageError(SteinerError):
    """Malformed command line. CLI exit code 1."""


class InputError(SteinerError):
    """Problems with user-supplied data or parameters. CLI exit code 2."""


class InvalidInstanceError(InputError):
    """Instance fails validation (bad ids, self loop, negative weight, ...)."""


class StpSyntaxError(InvalidInstanceError):
    """Malformed STP text."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedTerminalsError(InvalidInstanceError):
    """Terminals do not all live in one connected component."""


class DisconnectedInputError(SteinerError):
    """A spanning tree was requested over a disconnected edge set."""


class UnknownNodeError(SteinerError):
    """A node id outside the structure it was used against."""


class KRestrictionError(InputError):
    """Component size bound k below 2."""


class LimitExceededError(InputError):
    """An exact oracle was asked to exceed its configured instance limit, or
    enumeration to exceed its candidate budget."""


class InternalInvariantError(SteinerError):
    """A runtime self-check failed; indicates a solver bug. CLI exit code 3."""
