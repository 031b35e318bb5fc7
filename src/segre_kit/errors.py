"""Exception hierarchy shared by all modules.

Each class maps to one failure mode of the public contracts; the CLI
translates them to exit codes (a failed self-check -> 1, input/parse -> 2,
unsupported structure -> 3, undecided numerics -> 4).
"""

import json


def _as_json(value) -> str:
    """A refused value as a spec file spells it (``true``, ``null``,
    ``"x1"``); a value no JSON text holds is named by its type."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError, RecursionError):
        return f"<{type(value).__name__}>"


class SegreKitError(Exception):
    """Base class for all library errors."""


class InputError(SegreKitError):
    """Malformed or out-of-contract input (dimension mismatch, bad index...)."""


class ParseError(InputError):
    """Polynomial or spec text that does not parse; carries position info."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class UnsupportedInputError(SegreKitError):
    """The exact engine cannot handle this structure class; see ``segre-kit mass``."""

    def __init__(self, message, structure=None):
        super().__init__(message)
        self.structure = structure


class UnsupportedTermError(SegreKitError):
    """A fiber pushforward met a term outside the supported shapes."""

    def __init__(self, message, term=None):
        super().__init__(message)
        self.term = term


class UndecidedError(SegreKitError):
    """No exact rule applies and no numeric oracle was supplied or it failed."""

    def __init__(self, message, term=None, diagnostics=None):
        super().__init__(message)
        self.term = term
        self.diagnostics = diagnostics


class NumericalFailureError(SegreKitError):
    """A numerical routine hit a non-finite value or could not certify its result."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class CheckFailedError(SegreKitError, RuntimeError):
    """An exact result failed the engine's own check of it."""


class ContourTooCloseError(NumericalFailureError):
    """A root lies exactly on the circle whose disk is being counted."""
