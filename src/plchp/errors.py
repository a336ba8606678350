"""Exception types shared across the package."""

from __future__ import annotations


class PlchpError(Exception):
    """Base class for all domain errors raised by this package."""


class DialectError(PlchpError):
    """A formula connective was used outside its surface language."""


class ParseError(PlchpError):
    """Syntax error in a source text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class EvalError(PlchpError):
    """Base class for term/formula evaluation failures."""


class UnboundVariable(EvalError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound variable {name!s}")


class DivisionByZero(EvalError):
    """Division by zero is an error, not an IEEE infinity."""


class DomainError(EvalError):
    """Power with a negative base and non-integer exponent, or overflow."""


class NotNormalForm(PlchpError):
    """A parsed formula is not in scan cycle normal form."""

    def __init__(self, reason: str, location: tuple[int, int] | None = None):
        self.reason = reason
        self.location = location
        if location:
            super().__init__(f"{location[0]}:{location[1]}: {reason}")
        else:
            super().__init__(reason)


class MissingEpsilon(PlchpError):
    """No concrete scan cycle duration is available."""


class ConflictingEpsilon(PlchpError):
    """Assumptions bind the scan cycle duration to two different values."""


class PlantVariableClash(PlchpError):
    """The plant clock collides with a program variable."""


class NotAffine(PlchpError, ValueError):
    """The affine integrator was asked to integrate a plant that is not affine."""


class MissingInput(PlchpError):
    """An input provider has no value for a declared input variable."""


class SchemaError(PlchpError):
    """A trace file lacks required columns."""

    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__("trace is missing columns: " + ", ".join(str(m) for m in self.missing))


class InputFileError(PlchpError):
    """A data file (trace CSV, run configuration) is malformed. The message
    starts with the file name and, where known, the line and column."""

    def __init__(self, path, message: str, line: int | None = None, col: int | None = None):
        self.path = str(path)
        self.line = line
        self.col = col
        where = self.path + "".join(f":{n}" for n in (line, col) if n is not None)
        super().__init__(f"{where}: {message}")


class NondeterministicCtrl(PlchpError):
    """Compliance checking requires a fully complemented (deterministic) controller."""
